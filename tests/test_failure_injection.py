"""Failure injection: a rank failing mid-I/O must never deadlock the
world, locks must be released on error paths, and device faults must
propagate as exceptions, not corruption.  On the proc backend the
failures are real — a SIGKILLed rank process must surface as a
:class:`ReproError` on the survivors within the runtime timeout, never
as a hang."""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro import datatypes as dt
from repro.bench.noncontig import build_noncontig_filetype
from repro.errors import (
    FileSystemError,
    IOEngineError,
    MPIRuntimeError,
    ReproError,
)
from repro.fs import (
    DeviceModel,
    ShardedFileSystem,
    SimFileSystem,
    StripingConfig,
)
from repro.fs.simfile import SimFile
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDONLY, MODE_RDWR
from repro.io.hints import Hints
from repro.mpi import run_spmd
from repro.mpi.proc import run_spmd_proc
from repro.mpi.runtime import Runtime
from repro.session import IOSession

ENGINES = ["listless", "list_based"]


class FlakyFile(SimFile):
    """A SimFile whose n-th write (or read) raises."""

    def __init__(self, *a, fail_after_writes=None, fail_after_reads=None,
                 **kw):
        super().__init__(*a, **kw)
        self._writes_left = fail_after_writes
        self._reads_left = fail_after_reads

    def pwrite(self, offset, data):
        if self._writes_left is not None:
            if self._writes_left == 0:
                raise FileSystemError("injected write fault")
            self._writes_left -= 1
        return super().pwrite(offset, data)

    def pread_into(self, offset, out):
        if self._reads_left is not None:
            if self._reads_left == 0:
                raise FileSystemError("injected read fault")
            self._reads_left -= 1
        return super().pread_into(offset, out)

    # The vectored calls fail at the same extent the per-extent calls
    # would: the extents ahead of it are done, then the fault raises.
    def pwritev_blocks(self, offsets, lengths, data, pos=0):
        left = self._writes_left
        if left is not None and left < len(offsets):
            super().pwritev_blocks(offsets[:left], lengths[:left], data, pos)
            self._writes_left = 0
            raise FileSystemError("injected write fault")
        if left is not None:
            self._writes_left -= len(offsets)
        return super().pwritev_blocks(offsets, lengths, data, pos)

    # A mapped access is one write (or read): one fault check.
    def map_access(self, lo, hi, nbytes, write, secs, shift, copy, *args):
        attr = "_writes_left" if write else "_reads_left"
        left = getattr(self, attr)
        if left is not None:
            if left == 0:
                raise FileSystemError(
                    f"injected {'write' if write else 'read'} fault")
            setattr(self, attr, left - 1)
        return super().map_access(lo, hi, nbytes, write, secs, shift, copy,
                                  *args)

    def preadv_blocks(self, offsets, lengths, out, pos=0):
        left = self._reads_left
        if left is not None and left < len(offsets):
            super().preadv_blocks(offsets[:left], lengths[:left], out, pos)
            self._reads_left = 0
            raise FileSystemError("injected read fault")
        if left is not None:
            self._reads_left -= len(offsets)
        return super().preadv_blocks(offsets, lengths, out, pos)


def flaky_fs(path="/f", **kw) -> SimFileSystem:
    fs = SimFileSystem()
    f = FlakyFile(path, DeviceModel(), StripingConfig(), **kw)
    fs._files[path] = f
    return fs


class TestDeviceFaults:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_write_fault_propagates_no_deadlock(self, engine):
        fs = flaky_fs(fail_after_writes=0)

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDWR, engine=engine)
            ft = build_noncontig_filetype(comm.size, comm.rank, 4, 8)
            fh.set_view(0, dt.BYTE, ft)
            fh.write_at_all(0, np.zeros(32, dtype=np.uint8))
            fh.close()

        with pytest.raises(FileSystemError, match="injected write fault"):
            run_spmd(4, worker)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_read_fault_propagates_no_deadlock(self, engine):
        fs = flaky_fs(fail_after_reads=1)
        fs.lookup("/f").truncate(1024)

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDWR, engine=engine)
            ft = build_noncontig_filetype(comm.size, comm.rank, 4, 16)
            fh.set_view(0, dt.BYTE, ft)
            out = np.zeros(64, dtype=np.uint8)
            fh.read_at_all(0, out)
            fh.close()

        with pytest.raises(FileSystemError, match="injected read fault"):
            run_spmd(4, worker)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_locks_released_after_write_fault(self, engine):
        """The sieving write path holds a range lock when the device
        faults; the lock must be released so later I/O proceeds."""
        fs = unmapped(flaky_fs(fail_after_writes=0))
        f = fs.lookup("/f")

        def broken(comm):
            fh = File.open(comm, fs, "/f", MODE_RDWR, engine=engine)
            fh.set_view(0, dt.BYTE, dt.vector(8, 1, 2, dt.BYTE))
            fh.write_at(0, np.zeros(8, dtype=np.uint8))
            fh.close()

        with pytest.raises(FileSystemError):
            run_spmd(1, broken)
        # Device healed: nothing should block now.
        f._writes_left = None

        def healthy(comm):
            fh = File.open(comm, fs, "/f", MODE_RDWR, engine=engine)
            fh.set_view(0, dt.BYTE, dt.vector(8, 1, 2, dt.BYTE))
            fh.write_at(0, np.full(8, 5, dtype=np.uint8))
            fh.close()

        run_spmd(1, healthy)
        assert (f.contents()[::2] == 5).all()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mapped_write_fault_propagates_and_heals(self, engine):
        """Twin on the mapped path: the one mapped write faults, holds
        no lock, and the healed device takes the next write."""
        fs = flaky_fs(fail_after_writes=0)
        f = fs.lookup("/f")

        def write(value):
            def worker(comm):
                fh = File.open(comm, fs, "/f", MODE_RDWR, engine=engine)
                fh.set_view(0, dt.BYTE, dt.vector(8, 1, 2, dt.BYTE))
                fh.write_at(0, np.full(8, value, dtype=np.uint8))
                fh.close()
            return worker

        with pytest.raises(FileSystemError, match="injected write fault"):
            run_spmd(1, write(3))
        assert f.locks._held == {}
        assert f.size == 0
        f._writes_left = None
        run_spmd(1, write(5))
        assert (f.contents()[::2] == 5).all()


class TestPipelinedFaults:
    """Device faults hit inside deferred pipeline jobs must surface at
    the drain that applies them — as the injected exception, never as
    a hang or a corrupted staging table."""

    PIPE = Hints(cb_buffer_size=64, cb_pipeline="on")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_write_fault_mid_pipeline_no_hang(self, engine):
        fs = flaky_fs(fail_after_writes=2)

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDWR, engine=engine,
                           hints=self.PIPE)
            ft = build_noncontig_filetype(comm.size, comm.rank, 4, 64)
            fh.set_view(0, dt.BYTE, ft)
            fh.write_at_all(0, np.zeros(256, dtype=np.uint8))
            fh.close()

        with pytest.raises(FileSystemError, match="injected write fault"):
            run_spmd(4, worker)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_read_fault_mid_pipeline_no_hang(self, engine):
        fs = flaky_fs(fail_after_reads=2)
        fs.lookup("/f").truncate(4096)

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDWR, engine=engine,
                           hints=self.PIPE)
            ft = build_noncontig_filetype(comm.size, comm.rank, 4, 64)
            fh.set_view(0, dt.BYTE, ft)
            out = np.zeros(256, dtype=np.uint8)
            fh.read_at_all(0, out)
            fh.close()

        with pytest.raises(FileSystemError, match="injected read fault"):
            run_spmd(4, worker)


class TestRankFailures:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_rank_mode_error_unblocks_collective(self, engine):
        """Rank 1 hits a local error before its collective call; the
        others are already inside the collective and must be released."""
        fs = SimFileSystem()
        fs.create("/f")

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDONLY, engine=engine)
            if comm.rank == 1:
                # Erroneous local write on a read-only handle.
                fh.write_at(0, np.zeros(4, dtype=np.uint8))
            out = np.zeros(4, dtype=np.uint8)
            fh.read_at_all(0, out)
            fh.close()

        with pytest.raises(IOEngineError, match="not opened for writing"):
            run_spmd(3, worker)

    def test_open_failure_on_root_reaches_all(self):
        fs = SimFileSystem()  # no file, no MODE_CREATE

        def worker(comm):
            File.open(comm, fs, "/missing", MODE_RDWR)

        with pytest.raises(FileSystemError):
            run_spmd(4, worker)


def _killed_in_collective(comm):
    if comm.rank == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    comm.allgather(np.arange(256, dtype=np.uint8))
    comm.barrier()
    return True


def _killed_before_send(comm):
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    if comm.rank == 0:
        comm.recv(source=1)  # rank 1 is dead: must time out, not hang
    return True


def _silent_peer(comm):
    if comm.rank == 0:
        comm.recv(source=1)  # rank 1 never sends: must time out
    return True


def _raises_mid_collective(comm):
    if comm.rank == 1:
        raise ValueError("injected rank failure")
    comm.allgather(comm.rank)
    comm.barrier()
    return True


class TestProcRankDeath:
    """Real rank-process deaths under the proc backend.

    A rank SIGKILLed mid-collective cannot run *any* error path — the
    parent must notice the silent exit and abort the survivors, and
    every blocked wait (barrier, board read, queue recv) carries a
    deadline so the failure surfaces as a ReproError within the
    runtime timeout, never as a hang."""

    def test_sigkill_mid_collective_surfaces_promptly(self):
        with pytest.raises(ReproError, match="rank 2 died"):
            run_spmd_proc(4, _killed_in_collective, timeout=20.0)

    def test_sigkill_blocked_recv_times_out(self):
        with pytest.raises(MPIRuntimeError):
            run_spmd_proc(2, _killed_before_send, timeout=5.0)

    def test_recv_timeout_env_bounds_silent_rank(self, monkeypatch):
        """With no ``timeout=``, a blocked receive gives up after the
        one blocking-wait deadline, ``REPRO_RECV_TIMEOUT``."""
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "1")
        t0 = time.monotonic()
        with pytest.raises(MPIRuntimeError, match="timed out after 1s"):
            run_spmd_proc(2, _silent_peer)
        assert time.monotonic() - t0 < 15

    def test_rank_exception_propagates_across_processes(self):
        """A raising rank's exception (not a timeout shadow) wins as the
        reported failure."""
        with pytest.raises(ValueError, match="injected rank failure"):
            run_spmd_proc(3, _raises_mid_collective, timeout=20.0)


def _killed_after_rounds(comm, victim=2):
    from repro.obs import flight

    flight.note_round(0, 3)
    comm.barrier()
    flight.note_round(1, 3)
    if comm.rank == victim:
        os.kill(os.getpid(), signal.SIGKILL)
    comm.barrier()
    comm.allgather(comm.rank)
    return True


class TestFlightRecorder:
    """The crash flight recorder: a dying world must leave one parseable
    JSON artifact naming the failed rank and its last completed round —
    including ranks that died by SIGKILL and never ran an error path
    (their last round survives in the shared-memory beacon)."""

    def test_sigkill_writes_flight_record(self, tmp_path, monkeypatch):
        out = tmp_path / "flight.json"
        monkeypatch.setenv("REPRO_FLIGHT", str(out))
        with pytest.raises(ReproError, match="rank 2 died"):
            run_spmd_proc(4, _killed_after_rounds, timeout=20.0)
        doc = json.loads(out.read_text())
        assert doc["flight_version"] == 1
        assert doc["reason"] == "abort"
        assert doc["backend"] == "proc"
        assert doc["world_size"] == 4
        assert doc["failed_rank"] == 2
        assert 2 in doc["failed_ranks"]
        # The dead rank's beacon preserved its last completed round.
        assert doc["last_rounds"]["2"] == 1

    @pytest.mark.parametrize("scope", ["with", "session="])
    def test_sigkill_record_lands_in_callers_session(self, scope,
                                                     monkeypatch):
        """A proc world run in a session — activated around the call,
        or passed to ``run_spmd`` — records the killed rank's last
        round and the survivor's breadcrumbs in that session."""
        from repro.obs import flight

        monkeypatch.delenv("REPRO_FLIGHT", raising=False)
        s = IOSession("killed-rank")
        with pytest.raises(ReproError, match="rank 1 died"):
            if scope == "with":
                with s:
                    run_spmd_proc(2, _killed_after_rounds, 1,
                                  timeout=20.0)
            else:
                run_spmd(2, _killed_after_rounds, 1, session=s,
                         backend=Runtime("proc", timeout=20.0))
        rec = flight.last_record()
        assert rec["backend"] == "proc" and rec["failed_rank"] == 1
        assert rec["last_rounds"]["1"] == 1
        assert rec["last_rounds"]["0"] == 1
        assert any(c[1] == "round" for c in rec["ranks"]["0"]["breadcrumbs"])
        # The survivor's rings were merged into the caller's session.
        crumbs = s.flight.export_state()["crumbs"]
        assert any(c[1] == "rank_error" for c in crumbs[0])

    def test_sim_abort_writes_record_with_error(self, tmp_path,
                                                monkeypatch):
        out = tmp_path / "flight.json"
        monkeypatch.setenv("REPRO_FLIGHT", str(out))

        def worker(comm):
            from repro.obs import flight
            flight.note("collective", write=True, rounds=2)
            if comm.rank == 1:
                raise ValueError("sim rank blew up")
            comm.barrier()

        with pytest.raises(ValueError, match="sim rank blew up"):
            run_spmd(2, worker)
        doc = json.loads(out.read_text())
        assert doc["reason"] == "abort"
        assert doc["backend"] == "sim"
        assert doc["error"] == {"type": "ValueError",
                                "message": "sim rank blew up"}
        crumbs = [c for ent in doc["ranks"].values()
                  for c in ent["breadcrumbs"]]
        assert any(c[1] == "collective" for c in crumbs)

    def test_no_file_without_env(self, tmp_path, monkeypatch):
        from repro.obs import flight

        monkeypatch.delenv("REPRO_FLIGHT", raising=False)
        monkeypatch.chdir(tmp_path)

        def worker(comm):
            raise RuntimeError("quiet failure")

        with pytest.raises(RuntimeError):
            run_spmd(1, worker)
        assert list(tmp_path.iterdir()) == []
        # ... but the record is still stashed in memory for inspection.
        rec = flight.last_record()
        assert rec is not None and rec["reason"] == "abort"


def _interleave_view(size, rank):
    ft = dt.resized(dt.vector(6, 8, size * 8, dt.BYTE), 0, 6 * size * 8)
    return ft, rank * 8


class TestShardServerDeath:
    """SIGKILL a shard server mid-workload: the next touch of the dead
    shard must abort the world with a :class:`FileSystemError` naming
    the shard — promptly, never as a hang — the crash-safe beacon must
    still report the shard's last served round, the flight recorder must
    carry a ``ship_dead_shard`` breadcrumb, and no residual byte-range
    locks may survive on the other shard servers."""

    def test_sigkill_mid_collective_write_aborts_world(
            self, tmp_path, monkeypatch):
        out = tmp_path / "flight.json"
        monkeypatch.setenv("REPRO_FLIGHT", str(out))
        fs = ShardedFileSystem(str(tmp_path / "sh"), nshards=3,
                               stripe_size=16)
        victim = 1
        try:
            def worker(comm, fs):
                fh = File.open(comm, fs, "/w.out",
                               MODE_CREATE | MODE_RDWR, engine="listless",
                               hints=Hints(ship_protocol="list"))
                ft, disp = _interleave_view(comm.size, comm.rank)
                fh.set_view(disp, dt.BYTE, ft)
                buf = np.full(ft.size, 1 + comm.rank, dtype=np.uint8)
                fh.write_at_all(0, buf)  # warm-up: every shard serves
                comm.barrier()
                if comm.rank == 0:
                    os.kill(fs.server_pid(victim), signal.SIGKILL)
                comm.barrier()
                fh.write_at_all(ft.size, buf)  # touches the dead shard
                fh.close()

            with pytest.raises(FileSystemError,
                               match=f"shard {victim} server dead"):
                Runtime("sim").run(2, worker, fs)

            # The beacon survived the SIGKILL with a served round count.
            assert fs.shard_last_round(victim) >= 0
            # No residual locks on the surviving shard servers.
            for k in (0, 2):
                held = fs.shard_locks_held(k, "/w.out")
                assert held["ranges"] == [], (k, held)
                assert held["backing"] == [], (k, held)
            doc = json.loads(out.read_text())
            assert doc["reason"] == "abort"
            crumbs = [c for ent in doc["ranks"].values()
                      for c in ent["breadcrumbs"]]
            assert any(c[1] == "ship_dead_shard" for c in crumbs), crumbs
        finally:
            fs.close()

    def test_sigkill_mid_pipelined_read_aborts_world(self, tmp_path):
        fs = ShardedFileSystem(str(tmp_path / "shp"), nshards=3,
                               stripe_size=16)
        victim = 2
        try:
            def worker(comm, fs):
                fh = File.open(
                    comm, fs, "/r.out", MODE_CREATE | MODE_RDWR,
                    engine="listless",
                    hints=Hints(ship_protocol="list", cb_buffer_size=64,
                                cb_pipeline="on"))
                ft, disp = _interleave_view(comm.size, comm.rank)
                fh.set_view(disp, dt.BYTE, ft)
                buf = np.full(ft.size * 2, 1 + comm.rank, dtype=np.uint8)
                fh.write_at_all(0, buf)
                comm.barrier()
                if comm.rank == 0:
                    os.kill(fs.server_pid(victim), signal.SIGKILL)
                comm.barrier()
                got = np.zeros(ft.size * 2, dtype=np.uint8)
                fh.read_at_all(0, got)  # pipelined rounds hit the shard
                fh.close()

            with pytest.raises(FileSystemError,
                               match=f"shard {victim} server dead"):
                Runtime("sim").run(4, worker, fs)
        finally:
            fs.close()

    def test_locks_rolled_back_when_shard_dies_mid_rmw(self, tmp_path):
        """A sieved (rmw) write locks shards in ascending order; when a
        middle shard turns out dead the already-acquired ranges must be
        rolled back, or a second writer deadlocks on them."""
        fs = ShardedFileSystem(str(tmp_path / "shl"), nshards=3,
                               stripe_size=16)
        victim = 1
        try:
            def worker(comm, fs):
                fh = File.open(comm, fs, "/l.out",
                               MODE_CREATE | MODE_RDWR, engine="listless")
                # sparse view over [0, 47): rmw window spans shards 0..2
                fh.set_view(0, dt.BYTE, dt.vector(24, 1, 2, dt.BYTE))
                if comm.rank == 0:
                    os.kill(fs.server_pid(victim), signal.SIGKILL)
                fh.write_at(0, np.full(24, 5, dtype=np.uint8))
                fh.close()

            with pytest.raises(FileSystemError,
                               match=f"shard {victim} server dead"):
                Runtime("sim").run(1, worker, fs)

            for k in (0, 2):
                held = fs.shard_locks_held(k, "/l.out")
                assert held["ranges"] == [], (k, held)
                assert held["backing"] == [], (k, held)
        finally:
            fs.close()

    def test_sigkill_proc_runtime_surfaces_promptly(self, tmp_path):
        """Under the multi-process runtime every rank holds its own
        connections to the shard servers; a dead shard must surface as
        the original FileSystemError on the survivors, not a timeout
        shadow or a hang."""
        fs = ShardedFileSystem(str(tmp_path / "shd"), nshards=2,
                               stripe_size=16)
        try:
            def worker(comm, fs):
                fh = File.open(comm, fs, "/p.out",
                               MODE_CREATE | MODE_RDWR, engine="listless",
                               hints=Hints(ship_protocol="dtype"))
                ft, disp = _interleave_view(comm.size, comm.rank)
                fh.set_view(disp, dt.BYTE, ft)
                buf = np.full(ft.size, 7, dtype=np.uint8)
                fh.write_at_all(0, buf)
                comm.barrier()
                if comm.rank == 0:
                    os.kill(fs.server_pid(0), signal.SIGKILL)
                comm.barrier()
                fh.write_at_all(ft.size, buf)
                fh.close()

            with pytest.raises(FileSystemError,
                               match="shard 0 server dead"):
                Runtime("proc").run(2, worker, fs)
        finally:
            fs.close()


class TestShortReads:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_contiguous_read_past_eof_raises(self, engine):
        fs = SimFileSystem()
        fs.create("/f").pwrite(0, np.zeros(10, dtype=np.uint8))

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDONLY, engine=engine)
            out = np.zeros(100, dtype=np.uint8)
            fh.read_at(0, out)
            fh.close()

        with pytest.raises(IOEngineError, match="short read"):
            run_spmd(1, worker)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sieved_read_past_eof_zero_fills(self, engine):
        """Non-contiguous reads use sieving windows; past-EOF regions
        read as zero (MPI leaves them undefined; deterministic zeros make
        the behaviour testable)."""
        fs = SimFileSystem()
        fs.create("/f").pwrite(0, np.full(4, 9, dtype=np.uint8))

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDONLY, engine=engine)
            fh.set_view(0, dt.BYTE, dt.vector(8, 2, 4, dt.BYTE))
            out = np.full(16, 7, dtype=np.uint8)
            fh.read_at(0, out)
            assert (out[:2] == 9).all()
            assert (out[2:] == 0).all()
            fh.close()

        run_spmd(1, worker)
