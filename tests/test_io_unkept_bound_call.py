"""Mapped copies no replay entry keeps: a nonblocking ``iwrite_at`` /
``iread_at`` and an access whose plan is too big to cache still run as
a :class:`~repro.plan.executor.BoundCall` — bound when the access runs,
folded once it ran — never through the executor's mapped op.

Each case runs on sim rank threads over a ``SimFile`` and an ``OsFile``
and checks the bytes against the type-map oracle, and the counters
against the same accesses billed on kept bound calls (blocking
``write_at``/``read_at``) or against what eager billing counts.
"""

import numpy as np
import pytest

from repro import datatypes as dt
from repro.bench.noncontig import (
    build_noncontig_filetype,
    build_noncontig_memtype,
)
from repro.core.gather import kernel_path_counts
from repro.datatypes.packing import typemap_blocks
from repro.fs import OsFileSystem, SimFileSystem
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.mpi import run_spmd
from repro.plan import executor, planner
from repro.plan.ops import MEM
from tests.conftest import fill_pattern

#: Fig. 4 view of rank 0 of 2: ``NB`` blocks of ``BL`` bytes.
BL, NB = 8, 8
A = BL * NB
#: Accesses per direction.
K = 4

FILE = ("n_reads", "n_writes", "bytes_read", "bytes_written")
EXEC = ("executed_ops", "executed_file_reads", "executed_file_writes",
        "ff_kernel_calls")


def make_fs(backend, tmp_path):
    if backend == "sim":
        return SimFileSystem()
    return OsFileSystem(str(tmp_path / "fs"))


def contents(fs, path):
    data = fs.lookup(path).contents()
    if isinstance(fs, OsFileSystem):
        fs.close()
    return data


def positions(t, count):
    """Byte positions of ``count`` x ``t``, in type-map order."""
    return np.concatenate([np.arange(o, o + ln)
                           for o, ln in typemap_blocks(t, count)])


def view(rank):
    return build_noncontig_filetype(2, rank, BL, NB)


@pytest.fixture
def spies(monkeypatch):
    """Count the executor's mapped ops on a MEM piece and the bound
    calls built."""
    seen = {"mapped_mem": 0, "bound": 0}
    real_mapped = executor.PlanExecutor._mapped
    real_init = executor.BoundCall.__init__

    def mapped(self, plan, op, mem, bufs):
        seen["mapped_mem"] += op.pieces[0].slot == MEM
        return real_mapped(self, plan, op, mem, bufs)

    def init(self, *args):
        seen["bound"] += 1
        real_init(self, *args)

    monkeypatch.setattr(executor.PlanExecutor, "_mapped", mapped)
    monkeypatch.setattr(executor.BoundCall, "__init__", init)
    return seen


def live(fh):
    """Live tallies of the engine's and the file's counters."""
    return len(fh.engine.stats.plan._tallies), len(fh.simfile.stats._tallies)


def sequence(fs, how, pats):
    """``K`` writes then ``K`` reads of slots ``0..K-1`` of the Fig. 4
    view, ``how``: ``"blocking"`` or ``"nonblocking"``.  Returns the
    reads, the engine and file counters, the kernel paths fired and the
    live tallies after each access."""
    mt = build_noncontig_memtype(BL, NB)
    box = {}

    def worker(comm):
        fh = File.open(comm, fs, "/u", MODE_CREATE | MODE_RDWR)
        fh.set_view(0, dt.BYTE, view(0))
        paths0 = kernel_path_counts()
        lives, reads = [], []
        for k in range(K):
            if how == "blocking":
                fh.write_at(k * A, pats[k], 1, mt)
            else:
                fh.iwrite_at(k * A, pats[k], 1, mt).wait()
                lives.append(live(fh))
        for k in range(K):
            r = np.zeros(2 * A, dtype=np.uint8)
            if how == "blocking":
                fh.read_at(k * A, r, 1, mt)
            else:
                fh.iread_at(k * A, r, 1, mt).wait()
                lives.append(live(fh))
            reads.append(r)
        box.update(reads=reads, lives=lives,
                   engine=fh.engine.stats.snapshot(),
                   file=fh.simfile.stats.snapshot(),
                   paths={k: v - paths0[k]
                          for k, v in kernel_path_counts().items()})
        fh.close()

    run_spmd(1, worker)
    return box


def check_oracle(image, reads, pats):
    """The file holds each slot where the type map says; each read
    returns the slot's bytes where the memtype says."""
    mpos = positions(build_noncontig_memtype(BL, NB), 1)
    fpos = positions(view(0), K)
    for k in range(K):
        want = pats[k][mpos]
        assert np.array_equal(image[fpos[k * A:(k + 1) * A]], want), k
        assert np.array_equal(reads[k][mpos], want), k


@pytest.mark.parametrize("backend", ["sim", "os"])
def test_nonblocking_accesses_run_as_bound_calls(backend, tmp_path,
                                                 spies):
    pats = [fill_pattern(2 * A, k + 1) for k in range(K)]
    fs = make_fs(backend, tmp_path / "nb")
    got = sequence(fs, "nonblocking", pats)
    check_oracle(contents(fs, "/u"), got["reads"], pats)
    assert spies["mapped_mem"] == 0
    assert spies["bound"] == 2 * K  # bound at wait, one per access
    assert got["lives"] == [(0, 0)] * (2 * K)  # folded once run
    # The same accesses on kept bound calls: every counter agrees.
    spies["bound"] = 0
    ref_fs = make_fs(backend, tmp_path / "ref")
    ref = sequence(ref_fs, "blocking", pats)
    check_oracle(contents(ref_fs, "/u"), ref["reads"], pats)
    assert spies["bound"] == 2  # one per direction, replayed after
    ints = {k for k, v in ref["engine"].items() if isinstance(v, int)}
    assert {k: got["engine"][k] for k in ints} == \
        {k: ref["engine"][k] for k in ints}
    assert {k: got["file"][k] for k in FILE} == \
        {k: ref["file"][k] for k in FILE}
    assert got["file"]["sim_time"] == pytest.approx(ref["file"]["sim_time"])
    assert got["paths"] == ref["paths"]
    assert got["engine"]["plan_replays"] == 2 * (K - 1)


@pytest.mark.parametrize("backend", ["sim", "os"])
def test_uncached_plans_run_as_bound_calls(backend, tmp_path, spies,
                                           monkeypatch):
    """A plan over ``MAX_CACHED_BLOCKS`` is built, bound, run and
    folded on every access, billed as eager billing counts."""
    monkeypatch.setattr(planner, "MAX_CACHED_BLOCKS", NB // 2)
    pats = [fill_pattern(2 * A, k + 5) for k in range(K)]
    fs = make_fs(backend, tmp_path)
    got = sequence(fs, "blocking", pats)
    check_oracle(contents(fs, "/u"), got["reads"], pats)
    assert spies["mapped_mem"] == 0
    assert spies["bound"] == 2 * K
    eng, f = got["engine"], got["file"]
    assert eng["plans_built"] == 2 * K and eng["plan_replays"] == 0
    assert {k: eng[k] for k in EXEC} == {
        "executed_ops": 2 * K, "executed_file_reads": K,
        "executed_file_writes": K, "ff_kernel_calls": 2 * K}
    assert {k: f[k] for k in FILE} == {
        "n_reads": K, "n_writes": K, "bytes_read": K * A,
        "bytes_written": K * A}
    assert sum(got["paths"].values()) == 2 * K


@pytest.mark.parametrize("backend", ["sim", "os"])
def test_iwrite_set_view_wait_lands_where_planned(backend, tmp_path,
                                                  spies):
    """An ``iwrite_at`` posted under one view and waited on after
    ``set_view`` (which folds the replay table, the bound call of a
    blocking write included) lands where it was planned — a cold plan
    and a table hit alike — and keeps its counts."""
    fs = make_fs(backend, tmp_path)
    mt = build_noncontig_memtype(BL, NB)
    pats = [fill_pattern(2 * A, k + 9) for k in range(3)]
    box = {}

    def worker(comm):
        fh = File.open(comm, fs, "/v", MODE_CREATE | MODE_RDWR)
        fh.set_view(0, dt.BYTE, view(0))
        fh.write_at(0, pats[0], 1, mt)  # binds the table's entry
        hit = fh.iwrite_at(A, pats[1], 1, mt)  # a table hit
        fh.set_view(0, dt.BYTE, view(1))
        cold = fh.iwrite_at(2 * A, pats[2], 1, mt)  # view 1, cold
        fh.set_view(0, dt.BYTE, view(0))
        box["folded"] = live(fh)
        hit.wait()
        cold.wait()
        box["live"] = live(fh)
        box["file"] = fh.simfile.stats.snapshot()
        box["engine"] = fh.engine.stats.snapshot()
        fh.close()

    run_spmd(1, worker)
    assert box["folded"] == (0, 0) and box["live"] == (0, 0)
    assert spies["mapped_mem"] == 0
    assert {k: box["file"][k] for k in FILE} == {
        "n_reads": 0, "n_writes": 3, "bytes_read": 0,
        "bytes_written": 3 * A}
    assert box["engine"]["executed_file_writes"] == 3
    assert box["engine"]["executed_ops"] == 3
    image = contents(fs, "/v")
    mpos = positions(mt, 1)
    rank0, rank1 = positions(view(0), 3), positions(view(1), 3)
    for k, where in ((0, rank0), (1, rank0), (2, rank1)):
        assert np.array_equal(image[where[k * A:(k + 1) * A]],
                              pats[k][mpos]), k
    # Nothing landed in the other view's blocks of those slots.
    assert not image[rank1[:2 * A]].any()
    assert not image[rank0[2 * A:3 * A]].any()
