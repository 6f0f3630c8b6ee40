"""The one transport (``repro.transport``) under the shard servers, the
IOP service's proc workers and the proc ranks.

* a source guard: no module but ``transport.py`` starts a process or
  opens a connection;
* frame fuzzing at the one server loop: a bad frame gets a typed error
  at once, and the connection and the server live on;
* a hung service worker fails its batch within the blocking-wait
  deadline and is replaced;
* no leaked child processes, shared-memory segments or sockets after a
  clean shutdown, a killed server or worker, or a killed rank.
"""

from __future__ import annotations

import ast
import glob
import multiprocessing
import os
import signal
import time
from multiprocessing.connection import Client
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import transport
from repro.errors import (
    FileSystemError,
    MPIRuntimeError,
    ServiceError,
    ServiceWorkerError,
)
from repro.fs import ShardedFileSystem
from repro.mpi.proc import run_spmd_proc
from repro.server import IOPServer, ServiceClient

# ----------------------------------------------------------------------
# Source guard
# ----------------------------------------------------------------------

#: Calls that start a process or open a connection, or pick a start
#: method; only the transport makes them.
_SPAWNING_CALLS = {"Process", "Pipe", "Listener", "Client", "get_context"}


def _offences(source: str) -> list:
    """``(line, what)`` for every import of ``multiprocessing.connection``
    and every call named in :data:`_SPAWNING_CALLS` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.startswith("multiprocessing.connection")]
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod.startswith("multiprocessing.connection") or (
                    mod == "multiprocessing"
                    and any(a.name == "connection" for a in node.names)):
                found.append((node.lineno, mod))
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name in _SPAWNING_CALLS:
                found.append((node.lineno, name))
    return found


def test_guard_sees_spawning_code():
    src = ("from multiprocessing.connection import Client\n"
           "import multiprocessing.connection\n"
           "p = ctx.Process(target=f)\n"
           "a, b = mp.Pipe()\n"
           "ServiceClient(srv, 't')\n"
           "q = ctx.Queue()\n")
    assert [what for _l, what in _offences(src)] == [
        "multiprocessing.connection", "multiprocessing.connection",
        "Process", "Pipe"]


def test_only_transport_spawns_processes_or_opens_connections():
    root = Path(repro.__file__).parent
    offenders = [
        (str(path.relative_to(root)), line, what)
        for path in sorted(root.rglob("*.py"))
        if path != root / "transport.py"
        for line, what in _offences(path.read_text())
    ]
    assert offenders == []


# ----------------------------------------------------------------------
# Frame fuzzing at the one server loop
# ----------------------------------------------------------------------

#: Not a tuple, an unknown op (short and full length), a known op with
#: the wrong field count.
_BAD_FRAMES = [42, ("no-such-op", "/f"), ("no-such-op", "/f", 0, 1, 0.0),
               ("read", "/f")]


def _fuzz(address: str, error, valid, expect) -> None:
    """Every bad frame gets a typed error at once and leaves the client's
    connection working; so do undecodable bytes, sent raw; then
    ``valid`` succeeds on both connections."""
    peer = transport.Peers([address], ["peer under test"])
    raw = Client(address, family="AF_UNIX")
    try:
        for frame in _BAD_FRAMES:
            t0 = time.monotonic()
            with pytest.raises(error) as info:
                peer.request(0, frame)
            assert time.monotonic() - t0 < 1.0
            assert "dead" not in str(info.value)
        raw.send_bytes(b"\x80\x05not a pickle")
        tag, exc = raw.recv()
        assert tag == "err" and isinstance(exc, error), exc
        raw.send(valid)
        assert raw.recv() == ("ok", expect)
        assert peer.request(0, valid) == expect
    finally:
        raw.close()
        peer.close()


def test_shard_server_answers_bad_frames(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RECV_TIMEOUT", "5")
    fs = ShardedFileSystem(str(tmp_path / "sh"), nshards=2, stripe_size=16)
    try:
        f = fs.create("/f")
        f.pwrite(0, np.arange(64, dtype=np.uint8))
        _fuzz(fs.wire.addresses[0], FileSystemError, ("exists", "/f"),
              True)
        # The shard is not reported dead: normal traffic still flows.
        assert np.array_equal(f.pread(0, 64), np.arange(64, dtype=np.uint8))
    finally:
        fs.close()


def test_service_worker_answers_bad_frames(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RECV_TIMEOUT", "5")
    with IOPServer(workers=1, worker_mode="proc",
                   root=str(tmp_path)) as srv:
        srv.register_tenant("a")
        _fuzz(srv._proc_workers[0].address, ServiceError,
              ("write", "/g", 0, np.full(8, 2, np.uint8), 0.0), None)
        cl = ServiceClient(srv, "a")
        cl.write("/f", 0, np.full(32, 4, np.uint8), timeout=30.0)
        got = cl.read("/f", 0, 32, timeout=30.0)
        assert np.array_equal(got, np.full(32, 4, np.uint8))
        assert srv.counters.snapshot()["worker_respawns"] == 0


# ----------------------------------------------------------------------
# A hung service worker
# ----------------------------------------------------------------------

def test_hung_worker_fails_within_deadline_and_respawns(tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("REPRO_RECV_TIMEOUT", "0.5")
    with IOPServer(workers=1, worker_mode="proc", root=str(tmp_path),
                   worker_delay=3.0) as srv:
        srv.register_tenant("a")
        cl = ServiceClient(srv, "a")
        hung = srv._proc_workers[0].process
        t0 = time.monotonic()
        r = cl.iwrite("/f", 0, np.full(64, 1, np.uint8))
        with pytest.raises(ServiceWorkerError, match="silent"):
            r.wait(30.0)
        # About the deadline, well before the worker would have replied.
        assert time.monotonic() - t0 < 2.0
        assert srv.counters.snapshot()["worker_respawns"] == 1
        srv.worker_delay = 0.0
        cl.write("/f", 0, np.full(64, 6, np.uint8), timeout=30.0)
        got = cl.read("/f", 0, 64, timeout=30.0)
        assert np.array_equal(got, np.full(64, 6, np.uint8))
        assert not hung.is_alive()
        assert srv._proc_workers[0].process.pid != hung.pid


# ----------------------------------------------------------------------
# Leaks: children, shm segments, sockets
# ----------------------------------------------------------------------

#: Segment-name prefixes: transport payloads and proc-world segments.
_SHM_PREFIXES = ("tp", "rp")


def _segments() -> set:
    return {n for n in os.listdir("/dev/shm") if n.startswith(_SHM_PREFIXES)}


@pytest.fixture
def no_leaks():
    """Fail unless the test leaves no child process and no new shm
    segment behind."""
    before = _segments()
    yield
    assert multiprocessing.active_children() == []
    assert _segments() - before == set()


def test_sharded_close_leaks_nothing(tmp_path, no_leaks):
    fs = ShardedFileSystem(str(tmp_path / "sh"), nshards=2,
                           stripe_size=1 << 16)
    data = np.arange(1 << 18, dtype=np.uint32).view(np.uint8)
    f = fs.create("/big")
    f.pwrite(0, data)  # payloads past the shm threshold, both ways
    assert np.array_equal(f.pread(0, data.size), data)
    fs.close()
    assert glob.glob(os.path.join(fs.ctrl, "*.sock")) == []


def test_sharded_close_after_server_kill_leaks_nothing(tmp_path, no_leaks):
    fs = ShardedFileSystem(str(tmp_path / "sh"), nshards=2, stripe_size=16)
    f = fs.create("/f")
    f.pwrite(0, np.ones(64, np.uint8))
    os.kill(fs.server_pid(1), signal.SIGKILL)
    with pytest.raises(FileSystemError, match="shard 1 server dead"):
        f.pwrite(0, np.ones(64, np.uint8))
    fs.close()
    assert glob.glob(os.path.join(fs.ctrl, "*.sock")) == []


def test_service_stop_after_worker_kill_leaks_nothing(tmp_path, no_leaks):
    srv = IOPServer(workers=1, worker_mode="proc", root=str(tmp_path),
                    worker_delay=0.4).start()
    try:
        srv.register_tenant("a")
        cl = ServiceClient(srv, "a")
        big = np.full(1 << 17, 9, np.uint8)
        cl.write("/f", 0, big, timeout=30.0)
        r = cl.iwrite("/f", 0, np.full(64, 3, np.uint8))
        t = srv.tenant("a")
        deadline = time.time() + 5.0
        while t.stats.dispatched < 2 and time.time() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)
        os.kill(srv._proc_workers[0].process.pid, signal.SIGKILL)
        with pytest.raises(ServiceWorkerError):
            r.wait(30.0)
        srv.worker_delay = 0.0
        assert np.array_equal(cl.read("/f", 0, big.size, timeout=30.0)[64:],
                              big[64:])
        ctrl = srv._ctrl
    finally:
        srv.stop()
    assert not os.path.exists(ctrl)


def _p2p_then_allgather(comm):
    peer = 1 - comm.rank
    comm.send(peer, np.full(1 << 14, comm.rank, np.uint8), tag=3)
    got = comm.recv(peer, tag=3)
    return comm.allgather(int(got[0]))


def test_proc_world_leaks_nothing(no_leaks):
    assert run_spmd_proc(2, _p2p_then_allgather) == [[1, 0], [1, 0]]


def _killed_after_send(comm):
    if comm.rank == 1:
        comm.send(0, np.zeros(1 << 14, np.uint8), tag=9)
        os.kill(os.getpid(), signal.SIGKILL)
    comm.recv(1, tag=10)


def test_proc_world_with_killed_rank_leaks_nothing(no_leaks):
    with pytest.raises(MPIRuntimeError):
        run_spmd_proc(2, _killed_after_send, timeout=10.0)
