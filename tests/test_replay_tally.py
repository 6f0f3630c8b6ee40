"""Replay tallies: a replayed access bills its bound call's tally, and
every counter it bills reads what eager billing would.

The reference is the same access sequence with binding switched off
(``PlanExecutor.bind`` returns ``None``): every access then runs the
executor's mapped op, which bills every counter as it goes.  Each
checkpoint reads every billed counter through the snapshot APIs
(``EngineStats.snapshot``, ``FileStats.snapshot``, ``blockprog_stats``,
``kernel_path_counts``, ``metrics.snapshot``), through the attributes,
and through ``FileSystem.total_sim_time``; the tallied run must read
the same — integers exactly, seconds to rounding — mid-sequence, after
evictions from the replay table, after ``set_view`` and ``set_info``,
after each kind of reset and after ``close``.

Each case runs on sim rank threads over a ``SimFile`` and an
``OsFile``, and on proc rank processes over an ``OsFile``.
"""

import sys

import numpy as np
import pytest

from repro import datatypes as dt
from repro.bench.noncontig import (
    build_noncontig_filetype,
    build_noncontig_memtype,
)
from repro.core.blockprog import blockprog_stats
from repro.core.gather import kernel_path_counts
from repro.fs import OsFileSystem, SimFileSystem
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.mpi import run_spmd
from repro.mpi.runtime import Runtime
from repro.obs import metrics
from repro.plan.executor import PlanExecutor
from repro.session import IOSession
from tests.conftest import fill_pattern

#: (runtime, backend) pairs: proc ranks need a real file.
RUNS = [("sim", "sim"), ("sim", "os"), ("proc", "os")]

#: Fig. 4 view of rank 0 of 2: ``NB`` blocks of ``BL`` bytes.
BL, NB = 8, 8
A = BL * NB

#: The counters a replay bills, by owner.
PLAN = ("plan_cache_hits", "plan_replays", "executed_ops",
        "executed_file_reads", "executed_file_writes",
        "device_sync_seconds")
FILE = ("n_reads", "n_writes", "bytes_read", "bytes_written", "sim_time")


def make_fs(backend, tmp_path):
    if backend == "sim":
        return SimFileSystem()
    return OsFileSystem(str(tmp_path / "fs"))


def billed(fh, fs, path):
    """Every counter a replay bills, read every way there is to read it,
    plus whether the replay table holds a bound call."""
    eng = fh.engine.stats
    fst = fh.simfile.stats
    snap, fsnap = eng.snapshot(), fst.snapshot()
    out = {}
    for k in PLAN:
        out[f"engine.{k}"] = snap[k]
        out[f"attr.{k}"] = getattr(eng.plan, k)
    out["engine.ff_kernel_calls"] = snap["ff_kernel_calls"]
    out["attr.ff_kernel_calls"] = eng.ff_kernel_calls
    for k in FILE:
        out[f"file.{k}"] = fsnap[k]
        out[f"file_attr.{k}"] = getattr(fst, k)
    out.update(blockprog_stats())
    out.update(kernel_path_counts())
    out["attr.blockprog_hits"] = fh.session.prog_stats.hits
    reg = metrics.snapshot()
    (e,) = [e for e in reg["engines"] if e["path"] == path]
    (f,) = [f for f in reg["files"] if f["path"] == path]
    for k in PLAN + ("ff_kernel_calls",):
        out[f"metrics.engine.{k}"] = e["counters"][k]
    for k in FILE:
        out[f"metrics.file.{k}"] = f["counters"][k]
    for k, v in reg["global"].items():
        out[f"metrics.global.{k}"] = v
    out["fs.total_sim_time"] = fs.total_sim_time()
    planner = fh.engine.planner
    out["bound"] = planner is not None and any(
        e[2] is not None for e in planner.replay.values())
    out["live"] = (len(eng.plan._tallies), len(fst._tallies))
    return out


def replay_sequence(comm, fs):
    """A fixed sequence of cold and replayed accesses, with a
    checkpoint after each step that moves a tally or an owner."""
    sess = IOSession("tally")
    with sess:
        return _sequence(comm, fs)


def _sequence(comm, fs):
    path = "/t"
    fh = File.open(comm, fs, path, MODE_CREATE | MODE_RDWR)
    view = build_noncontig_filetype(2, 0, BL, NB)
    fh.set_view(0, dt.BYTE, view)
    mt = build_noncontig_memtype(BL, NB)
    w = fill_pattern(2 * A, 3)
    r = np.zeros(2 * A, dtype=np.uint8)
    marks = {}

    def mark(name):
        marks[name] = billed(fh, fs, path)

    def strided(k0, n):
        for k in range(k0, k0 + n):
            fh.write_at(k * A, w, 1, mt)
            fh.read_at(k * A, r, 1, mt)
            fh.write_at(k * A, w[:A // 2])  # contiguous: no ff copy

    strided(0, 4)
    mark("mid")
    # Another layout of the strided write's size rebinds its entry,
    # twice: each replaced bound call folds.
    fh.write_at(A, w[:A])
    strided(1, 2)
    mark("rebound")
    # 40 sizes x 2 directions: past the table's 32 entries, each
    # replayed once before it is evicted.
    for size in range(1, 41):
        for k in range(2):
            fh.write_at(k * A, w[:size])
            fh.read_at(k * A, r[:size])
    mark("evicted")
    strided(4, 3)
    fh.set_view(0, dt.BYTE, view)
    mark("set_view")
    strided(0, 3)
    fh.set_info({"ind_wr_buffer_size": str(1 << 12)})
    mark("set_info")
    strided(0, 3)
    mark("set_info_replayed")
    metrics.reset()
    mark("metrics_reset")
    strided(3, 3)
    mark("after_metrics_reset")
    fh.simfile.stats.reset()
    mark("file_reset")
    strided(1, 3)
    mark("after_file_reset")
    fs.reset_stats()
    mark("fs_reset")
    strided(2, 3)
    mark("after_fs_reset")
    fh.close()
    mark("closed")
    return marks


def _unbound(self, plan, mem):
    return None


def assert_same(got, want):
    assert got.keys() == want.keys()
    assert got["mid"]["bound"]
    for point in want:
        g, x = dict(got[point]), dict(want[point])
        g.pop("bound"), g.pop("live")
        assert x.pop("bound") is False, point
        assert x.pop("live") == (0, 0), point
        for k, v in x.items():
            if isinstance(v, float):
                assert g[k] == pytest.approx(v, rel=1e-9, abs=1e-15), \
                    (point, k)
            else:
                assert g[k] == v, (point, k)


@pytest.mark.parametrize("runtime, backend", RUNS)
def test_tallied_counters_read_as_eager_billing(runtime, backend,
                                                tmp_path, monkeypatch):
    (tallied,) = Runtime(runtime).run(
        1, replay_sequence, make_fs(backend, tmp_path / "t"))
    monkeypatch.setattr(PlanExecutor, "bind", _unbound)
    (eager,) = Runtime(runtime).run(
        1, replay_sequence, make_fs(backend, tmp_path / "e"))
    assert_same(tallied, eager)
    # A bound call leaving its replay entry folds its tally: the
    # owners keep at most a table's worth, and none once the table is
    # dropped (new view) or the file closed.
    assert all(n <= 32 for n in tallied["evicted"]["live"])
    assert tallied["set_view"]["live"] == (0, 0)
    assert tallied["closed"]["live"] == (0, 0)
    # The resets zero what they own, live tallies included.
    for k in PLAN + FILE:
        owner = "file" if k in FILE else "engine"
        assert tallied["metrics_reset"][f"{owner}.{k}"] == 0, k
    for k in FILE:
        assert tallied["file_reset"][f"file.{k}"] == 0, k
        assert tallied["fs_reset"][f"file_attr.{k}"] == 0, k
    assert tallied["fs_reset"]["fs.total_sim_time"] == 0
    assert tallied["metrics_reset"]["metrics.global.blockprog_hits"] == 0


@pytest.mark.parametrize("nprocs", [2, 4])
def test_ranks_on_one_file_count_exactly(nprocs):
    """Sim rank threads (as many as, and more than, the cores of a
    2-vCPU host) replaying on one file: the shared file counters and
    the session's kernel-path counts are exact — a replay bumps only
    its own bound call's tally, whatever the thread switches (made
    frequent here)."""
    fs = SimFileSystem()
    n = 400
    sess = IOSession("ranks")
    box = {}

    def worker(comm):
        with sess:
            fh = File.open(comm, fs, "/shared", MODE_CREATE | MODE_RDWR)
            fh.set_view(0, dt.BYTE, build_noncontig_filetype(
                comm.size, comm.rank, BL, NB))
            mt = build_noncontig_memtype(BL, NB)
            w = fill_pattern(2 * A, comm.rank)
            r = np.zeros(2 * A, dtype=np.uint8)
            fh.write_at(0, w, 1, mt)
            fh.read_at(0, r, 1, mt)
            comm.barrier()
            if comm.rank == 0:
                box["file0"] = fh.simfile.stats.snapshot()
                box["paths0"] = kernel_path_counts()
            comm.barrier()
            for k in range(n):
                fh.write_at((k % 16) * A, w, 1, mt)
                fh.read_at((k % 16) * A, r, 1, mt)
            comm.barrier()
            if comm.rank == 0:
                box["file1"] = fh.simfile.stats.snapshot()
                box["paths1"] = kernel_path_counts()
            fh.close()
            comm.barrier()
            if comm.rank == 0:
                box["file2"] = fh.simfile.stats.snapshot()
                box["paths2"] = kernel_path_counts()

    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_spmd(nprocs, worker)
    finally:
        sys.setswitchinterval(prev)
    for after in ("1", "2"):  # live tallies, then folded at close
        f0, f1 = box["file0"], box["file" + after]
        assert f1["n_writes"] - f0["n_writes"] == nprocs * n
        assert f1["n_reads"] - f0["n_reads"] == nprocs * n
        assert f1["bytes_written"] - f0["bytes_written"] == nprocs * n * A
        assert f1["bytes_read"] - f0["bytes_read"] == nprocs * n * A
        p0, p1 = box["paths0"], box["paths" + after]
        assert sum(p1.values()) - sum(p0.values()) == 2 * nprocs * n
