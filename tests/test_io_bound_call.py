"""The bound call: a replayed listless independent access on a
``SimFile`` or ``OsFile`` goes from the file handle to the pair kernel
in one call (``IOEngine.run_independent``), with O(1) buffer checks.

Every case is held against the same accesses with binding turned off
(``PlanExecutor.bind`` returning ``None``), where each replay runs its
cached plan through the executor as a cold access does: same bytes,
same counters, same errors.  The Hypothesis cases also check the bytes
against the type-map oracle.  Cases run on sim rank threads over a
``SimFile`` and an ``OsFile``, and on proc rank processes (forked, so
they inherit the patch) over an ``OsFile``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import datatypes as dt
from repro.bench.noncontig import (
    build_noncontig_filetype,
    build_noncontig_memtype,
)
from repro.core.gather import kernel_path_counts
from repro.datatypes.packing import typemap_blocks
from repro.datatypes.validation import validate_filetype
from repro.errors import DatatypeError
from repro.fs import OsFileSystem, SimFileSystem
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.mpi import run_spmd
from repro.mpi.runtime import Runtime
from repro.plan.executor import PlanExecutor
from repro.plan.planner import Planner
from tests.conftest import datatype_trees, fill_pattern

#: (runtime, backend) pairs: proc ranks need a real file.
RUNS = [("sim", "sim"), ("sim", "os"), ("proc", "os")]

#: Fig. 4 view of rank 0 of 2: ``NB`` blocks of ``BL`` bytes.
BL, NB = 8, 8
A = BL * NB


def make_fs(backend, root):
    if backend == "sim":
        return SimFileSystem()
    return OsFileSystem(str(root))


def contents(fs, path):
    data = fs.lookup(path).contents()
    if isinstance(fs, OsFileSystem):
        fs.close()
    return data


def open_fig4(comm, fs, path="/b"):
    fh = File.open(comm, fs, path, MODE_CREATE | MODE_RDWR)
    fh.set_view(0, dt.BYTE, build_noncontig_filetype(2, 0, BL, NB))
    return fh


def counters(fh, paths0):
    """Every integer counter of the engine and the file, and the kernel
    paths fired since ``paths0``."""
    out = {k: v for k, v in fh.engine.stats.snapshot().items()
           if isinstance(v, int)}
    out.update({f"file_{k}": v for k, v in fh.simfile.stats.snapshot().items()
                if isinstance(v, int)})
    out.update({k: v - paths0[k] for k, v in kernel_path_counts().items()})
    return out


def run_both(monkeypatch, runtime, nprocs, worker, backend, tmp_path):
    """``worker`` run bound and unbound: ``[(results, file bytes)]``."""
    out = []
    for tag in ("bound", "unbound"):
        if tag == "unbound":
            monkeypatch.setattr(PlanExecutor, "bind", lambda *a: None)
        fs = make_fs(backend, tmp_path / tag)
        res = Runtime(runtime).run(nprocs, worker, fs)
        out.append((res, contents(fs, "/b")))
    monkeypatch.undo()
    return out


# ----------------------------------------------------------------------
# Invalidation: what replaces a view, hints, the buffer or the locking
# ----------------------------------------------------------------------
def _set_view(fh, w, mt):
    fh.write_at(0, w, 1, mt)
    fh.write_at(A, w, 1, mt)
    # Rank 1's blocks of the same layout: the holes of the old view.
    fh.set_view(0, dt.BYTE, build_noncontig_filetype(2, 1, BL, NB))
    fh.write_at(0, w[::-1].copy(), 1, mt)
    fh.write_at(A, w, 1, mt)


def _set_info(fh, w, mt):
    fh.write_at(0, w, 1, mt)
    fh.write_at(A, w, 1, mt)
    fh.set_info({"ind_wr_buffer_size": str(1 << 12)})  # new fingerprint
    fh.write_at(2 * A, w[::-1].copy(), 1, mt)
    fh.set_info({"ind_wr_buffer_size": str(1 << 12)})  # same fingerprint
    fh.write_at(3 * A, w, 1, mt)


def _preallocate(fh, w, mt):
    fh.write_at(0, w, 1, mt)
    fh.preallocate(1 << 16)  # SimFile reallocates, OsFile remaps
    fh.write_at(A, w[::-1].copy(), 1, mt)
    fh.write_at(100 * A, w, 1, mt)  # grows the file once more


def _set_size(fh, w, mt):
    fh.write_at(0, w, 1, mt)
    fh.write_at(3 * A, w, 1, mt)
    fh.set_size(2 * 2 * A)  # cut to slots 0-1
    fh.write_at(A, w[::-1].copy(), 1, mt)
    fh.write_at(4 * A, w, 1, mt)  # past end-of-file again


def _atomic(fh, w, mt):
    fh.write_at(0, w, 1, mt)
    fh.write_at(A, w, 1, mt)
    fh.set_atomicity(True)
    fh.write_at(2 * A, w[::-1].copy(), 1, mt)
    fh.set_atomicity(False)
    fh.write_at(3 * A, w, 1, mt)


SCENARIOS = {"set_view": _set_view, "set_info": _set_info,
             "preallocate": _preallocate, "set_size": _set_size,
             "atomic": _atomic}


def _scenario_worker(name):
    def worker(comm, fs):
        fh = open_fig4(comm, fs)
        fh.simfile.stats.reset()
        paths0 = kernel_path_counts()
        mt = build_noncontig_memtype(BL, NB)
        SCENARIOS[name](fh, fill_pattern(2 * A, 7), mt)
        reads = []
        for k in range(6):
            r = np.zeros(2 * A, dtype=np.uint8)
            fh.read_at(k * A, r, 1, mt)
            reads.append(r)
        out = counters(fh, paths0)
        fh.close()
        return reads, out

    return worker


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("runtime, backend", RUNS)
def test_invalidation_matches_unbound(monkeypatch, tmp_path, runtime,
                                      backend, name):
    (bound, fb), (unbound, fu) = run_both(
        monkeypatch, runtime, 1, _scenario_worker(name), backend, tmp_path)
    ((reads_b, cnt_b),), ((reads_u, cnt_u),) = bound, unbound
    assert np.array_equal(fb, fu)
    for k, (a, b) in enumerate(zip(reads_b, reads_u)):
        assert np.array_equal(a, b), k
    assert cnt_b == cnt_u
    assert cnt_b["plan_replays"] > 0


def test_replays_take_the_bound_call(monkeypatch):
    """Once bound, a replay makes no executor run and no planner call."""
    runs = []
    real_run = PlanExecutor.run
    real_plan = Planner.plan_independent_bound
    monkeypatch.setattr(PlanExecutor, "run",
                        lambda self, *a: runs.append(1) or real_run(self, *a))
    monkeypatch.setattr(
        Planner, "plan_independent_bound",
        lambda self, *a: runs.append(2) or real_plan(self, *a))
    fs = SimFileSystem()
    box = {}

    def worker(comm):
        fh = open_fig4(comm, fs)
        mt = build_noncontig_memtype(BL, NB)
        w = fill_pattern(2 * A, 1)
        fh.write_at(0, w, 1, mt)
        fh.read_at(0, w, 1, mt)
        box["cold"] = list(runs)
        for k in range(1, 5):
            fh.write_at(k * A, w, 1, mt)
            fh.read_at(k * A, w, 1, mt)
        box["warm"] = list(runs)
        box["s"] = fh.engine.stats.snapshot()
        fh.close()

    run_spmd(1, worker)
    assert box["cold"] == [2, 1, 2, 1] and box["warm"] == box["cold"]
    assert box["s"]["plan_replays"] == 8
    assert box["s"]["executed_file_writes"] == 5


def test_a_new_layout_rebinds_its_plans_entry():
    """A new memory layout rebinds the entry of the plan it replays (the
    last layout bound wins): however many layouts come, one plan keeps
    one entry."""
    fs = SimFileSystem()
    box = {}

    def worker(comm):
        fh = open_fig4(comm, fs)
        w = fill_pattern(2 * A, 3)
        fh.write_at(0, w, 1, build_noncontig_memtype(BL, NB))
        planner = fh.engine.planner
        for k in range(3 * planner.maxsize):  # a fresh memtype each time
            fh.write_at(k * A, w, 1, build_noncontig_memtype(BL, NB))
        box["n"] = len(planner.replay)
        got = np.zeros(2 * A, dtype=np.uint8)
        fh.read_at(5 * A, got, 1, build_noncontig_memtype(BL, NB))
        box["ok"] = np.array_equal(got[:2 * A].reshape(NB, 2 * BL)[:, :BL],
                                   w.reshape(NB, 2 * BL)[:, :BL])
        fh.close()

    run_spmd(1, worker)
    assert box["n"] == 1 and box["ok"]


def test_bound_calls_keep_the_table_capacity(monkeypatch, tmp_path):
    """A bound call lives in its plan's replay entry, so binding leaves
    the table's capacity to the plans: 20 residues cycled three times
    replay every access after the first pass, bound or not."""
    R, N = 20, 16
    mt = dt.vector(N, 1, 2, dt.BYTE)

    def worker(comm, fs):
        fh = open_fig4(comm, fs)
        paths0 = kernel_path_counts()
        w = fill_pattern(2 * N, 4)
        for p in range(3):
            for r in range(R):
                fh.write_at((p + r) * A + r, w, 1, mt)
        out = counters(fh, paths0)
        fh.close()
        return out

    (bound, fb), (unbound, fu) = run_both(monkeypatch, "sim", 1, worker,
                                          "sim", tmp_path)
    assert np.array_equal(fb, fu)
    assert bound == unbound
    assert bound[0]["plan_replays"] == 2 * R


def _warm_then_count(buf_of, atomic=False):
    """A worker: bind slot 0 with a 1-D ``uint8`` buffer, then replay
    slots 1-4 with ``buf_of(k)`` (writes, then reads back into fresh
    buffers of the same kind); returns the reads and the counters."""
    mt = build_noncontig_memtype(BL, NB)

    def worker(comm, fs):
        fh = open_fig4(comm, fs)
        paths0 = kernel_path_counts()
        good = fill_pattern(2 * A, 1)
        fh.write_at(0, good, 1, mt)
        fh.read_at(0, good.copy(), 1, mt)
        fh.set_atomicity(atomic)
        reads = []
        for k in range(1, 5):
            fh.write_at(k * A, buf_of(k, True), 1, mt)
        for k in range(1, 5):
            r = buf_of(k, False)
            fh.read_at(k * A, r, 1, mt)
            reads.append(np.array(r, copy=True).view(np.uint8).reshape(-1))
        out = counters(fh, paths0)
        fh.close()
        return reads, out

    return worker


#: Buffers a replay cannot take unvalidated: ``make(k, write)``.
OTHER_BUFFERS = {
    "float64": lambda k, w: (fill_pattern(2 * A, k) if w else
                             np.zeros(2 * A, np.uint8)).view(np.float64),
    "2d": lambda k, w: (fill_pattern(2 * A, k) if w else
                        np.zeros(2 * A, np.uint8)).reshape(8, -1),
    "strided_source": lambda k, w: (fill_pattern(4 * A, k)[::2] if w else
                                    np.zeros(2 * A, np.uint8)),
    "atomic": lambda k, w: (fill_pattern(2 * A, k) if w else
                            np.zeros(2 * A, np.uint8)),
}


@pytest.mark.parametrize("name", sorted(OTHER_BUFFERS))
def test_other_buffers_replay_on_the_bound_call(monkeypatch, tmp_path,
                                                name):
    """A buffer that fails the O(1) checks, or a handle in atomic mode,
    is validated once and takes the same bound call on its byte view:
    no planner call and no executor run, and the bytes and counters of
    the accesses with binding turned off."""
    worker = _warm_then_count(OTHER_BUFFERS[name], atomic=name == "atomic")
    (bound, fb), (unbound, fu) = run_both(monkeypatch, "sim", 1, worker,
                                          "sim", tmp_path)
    ((reads_b, cnt_b),), ((reads_u, cnt_u),) = bound, unbound
    assert np.array_equal(fb, fu)
    for a, b in zip(reads_b, reads_u):
        assert np.array_equal(a, b)
    assert cnt_b == cnt_u and cnt_b["plan_replays"] == 8
    runs = []
    real_run = PlanExecutor.run
    real_plan = Planner.plan_independent_bound
    monkeypatch.setattr(PlanExecutor, "run",
                        lambda self, *a: runs.append(1) or real_run(self, *a))
    monkeypatch.setattr(
        Planner, "plan_independent_bound",
        lambda self, *a: runs.append(2) or real_plan(self, *a))
    run_spmd(1, lambda c: worker(c, SimFileSystem()))
    assert runs == [2, 1, 2, 1]  # the two cold accesses of slot 0


def test_pointer_forms_replay_like_write_at():
    """A loop of sequential ``write()``/``read()`` calls validates each
    buffer once and replays like ``write_at``/``read_at``."""
    fs = SimFileSystem()
    w = fill_pattern(2 * A, 2)
    mt = build_noncontig_memtype(BL, NB)
    K = 6

    def worker(comm, pointer):
        fh = open_fig4(comm, fs, "/p" if pointer else "/e")
        outs = []
        for k in range(K):
            if pointer:
                fh.write(w, 1, mt)
            else:
                fh.write_at(k * A, w, 1, mt)
        fh.seek(0)
        for k in range(K):
            r = np.zeros(2 * A, dtype=np.uint8)
            if pointer:
                fh.read(r, 1, mt)
            else:
                fh.read_at(k * A, r, 1, mt)
            outs.append(r)
        st = fh.engine.stats.snapshot()
        pos = fh.get_position()
        fh.close()
        return st, outs, pos

    (st_p, outs_p, pos), = run_spmd(1, lambda c: worker(c, True))
    (st_e, outs_e, _), = run_spmd(1, lambda c: worker(c, False))
    assert pos == K * A
    assert st_p["plan_replays"] == st_e["plan_replays"] == 2 * K - 2
    assert st_p == st_e
    for a, b in zip(outs_p, outs_e):
        assert np.array_equal(a, b)
    assert np.array_equal(fs.lookup("/p").contents(),
                          fs.lookup("/e").contents())


# ----------------------------------------------------------------------
# Error parity: a replay raises what a cold access raises
# ----------------------------------------------------------------------
def _bad_buffers():
    """``(name, write, make(buf size), count, memtype)``: ``make`` builds
    the buffer the replay is given."""
    mt = build_noncontig_memtype(BL, NB)
    ro = np.zeros(2 * A, dtype=np.uint8)
    ro.setflags(write=False)
    return [
        ("too_small_write", True, lambda: fill_pattern(2 * A - BL - 1, 3), 1,
         mt),
        ("too_small_read", False,
         lambda: np.zeros(2 * A - BL - 1, np.uint8), 1,
         mt),
        ("read_only_read", False, lambda: ro, 1, mt),
        ("strided_read", False, lambda: np.zeros(4 * A, np.uint8)[::2], 1,
         mt),
        ("strided_write", True, lambda: fill_pattern(4 * A, 4)[::2], 1, mt),
        ("float64_write", True,
         lambda: fill_pattern(2 * A, 5).view(np.float64), 1, mt),
        ("float64_read", False, lambda: np.zeros(2 * A // 8, np.float64), 1,
         mt),
        ("2d_write", True, lambda: fill_pattern(2 * A, 6).reshape(8, -1), 1,
         mt),
        ("2d_read", False, lambda: np.zeros((8, 2 * A // 8), np.uint8), 1,
         mt),
        ("none_count_overrun", True, lambda: fill_pattern(A - 1, 7), A,
         None),
        ("none_all_bytes", True, lambda: fill_pattern(A, 8), None, None),
        ("none_read", False, lambda: np.zeros(A, np.uint8), None, None),
        ("negative_count", True, lambda: fill_pattern(2 * A, 9), -1, mt),
    ]


BAD = {case[0]: case for case in _bad_buffers()}


def _outcome(fh, write, buf, count, memtype):
    """The exception a slot-1 access raises, else the bytes it leaves:
    the read buffer, or the file a write wrote."""
    try:
        (fh.write_at if write else fh.read_at)(A, buf, count, memtype)
    except Exception as exc:  # noqa: BLE001 — the exception is the result
        return type(exc), str(exc)
    if write:
        return None, bytes(fh.simfile.contents())
    return None, np.array(buf, copy=True).tobytes()


@pytest.mark.parametrize("backend", ["sim", "os"])
@pytest.mark.parametrize("name", sorted(BAD))
def test_errors_match_a_cold_access(tmp_path, backend, name):
    """The key the bad call looks up is bound first (a good buffer of
    the same layout), so a replay checks the bad buffer; a fresh handle
    on an identical file makes the same call cold."""
    _name, write, make, count, memtype = BAD[name]
    fs = make_fs(backend, tmp_path / "fs")
    good = fill_pattern(2 * A if memtype is not None else A, 1)
    gcount = 1 if count == -1 else count
    box = {}

    def worker(comm):
        def warmed(path):
            fh = open_fig4(comm, fs, path)
            for k in range(3):
                fh.write_at(k * A, good, gcount, memtype)
                fh.read_at(k * A, good.copy(), gcount, memtype)
            return fh

        warm = warmed("/w")
        warmed("/c").close()
        cold = open_fig4(comm, fs, "/c")
        box["warm"] = _outcome(warm, write, make(), count, memtype)
        box["cold"] = _outcome(cold, write, make(), count, memtype)
        box["replays"] = warm.engine.stats.plan.plan_replays
        box["cold_replays"] = cold.engine.stats.plan.plan_replays
        warm.close()
        cold.close()

    run_spmd(1, worker)
    if isinstance(fs, OsFileSystem):
        fs.close()
    assert box["warm"] == box["cold"]
    assert box["replays"] >= 4 and box["cold_replays"] == 0


# ----------------------------------------------------------------------
# Byte identity against the type-map oracle
# ----------------------------------------------------------------------
def _legal_filetype(t) -> bool:
    try:
        validate_filetype(t, dt.BYTE)
    except DatatypeError:
        return False
    return True


@st.composite
def sequences(draw):
    """A view, a memory layout and a sequence of accesses at random
    data offsets (so replays see many residues and file deltas)."""
    if draw(st.booleans()):
        ft = build_noncontig_filetype(draw(st.integers(1, 3)), 0,
                                      draw(st.integers(1, 16)),
                                      draw(st.integers(1, 8)))
    else:
        ft = draw(datatype_trees().filter(
            lambda t: t.size <= 512 and _legal_filetype(t)))
    kind = draw(st.sampled_from(["bytes", "gapped", "tree"]))
    if kind == "tree":
        mt = draw(datatype_trees().filter(lambda t: t.size <= 256))
        layout = (1, mt)
    else:
        n = draw(st.integers(1, 2 * ft.size))
        layout = ((None, None) if kind == "bytes"
                  else (1, dt.vector(n, 1, 2, dt.BYTE)))
        layout = layout + (n,)
    ops = draw(st.lists(st.tuples(st.booleans(),
                                  st.integers(0, 3 * ft.size)),
                        min_size=2, max_size=8))
    return ft, layout, ops, draw(st.integers(0, 1 << 16))


def _mem(layout):
    """``(count, memtype, buffer bytes, nbytes, data positions)``."""
    if len(layout) == 3:
        count, memtype, n = layout
        if memtype is None:
            return None, None, n, n, np.arange(n)
        return count, memtype, 2 * n, n, np.arange(0, 2 * n, 2)
    count, mt = layout
    origin = -min(mt.lb, mt.true_lb, 0)
    pos = np.concatenate([np.arange(o, o + ln)
                          for o, ln in typemap_blocks(mt, count)]) + origin
    return count, mt, origin + mt.true_ub, mt.size, pos


def _oracle_run(seq, runtime, fs):
    ft, layout, ops, seed = seq
    count, memtype, size, n, pos = _mem(layout)

    def worker(comm, fs):
        fh = File.open(comm, fs, "/b", MODE_CREATE | MODE_RDWR)
        fh.set_view(5, dt.BYTE, ft)
        # A contiguous view's read past end-of-file is an error.
        fh.preallocate(5 + (4 + n // ft.size + 1) * ft.extent)
        rng = np.random.default_rng(seed)
        image = np.zeros(4 * ft.size + n, dtype=np.uint8)
        bad = []
        for k, (write, d0) in enumerate(ops):
            buf = rng.integers(0, 256, size, dtype=np.uint8)
            if write:
                fh.write_at(d0, buf, count, memtype)
                image[d0:d0 + n] = buf[pos]
                continue
            before = buf.copy()
            fh.read_at(d0, buf, count, memtype)
            if not np.array_equal(buf[pos], image[d0:d0 + n]):
                bad.append(k)
            keep = np.ones(size, dtype=bool)
            keep[pos] = False
            if not np.array_equal(buf[keep], before[keep]):
                bad.append(("gap", k))
        fh.close()
        return image, bad

    ((image, bad),) = Runtime(runtime).run(1, worker, fs)
    assert bad == []
    data = contents(fs, "/b")
    nrun = -(-image.size // ft.size) + 1
    idx = 5 + np.concatenate([np.arange(o, o + ln)
                              for o, ln in typemap_blocks(ft, nrun)])
    want = np.zeros(max(int(idx.max()) + 1, data.size), dtype=np.uint8)
    want[idx[:image.size]] = image
    assert np.array_equal(data, want[:data.size])


_SETTINGS = dict(deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.filter_too_much])


@settings(max_examples=40, **_SETTINGS)
@given(seq=sequences())
def test_oracle_sim_simfile(seq):
    _oracle_run(seq, "sim", SimFileSystem())


@settings(max_examples=15, **_SETTINGS)
@given(seq=sequences())
def test_oracle_sim_osfile(tmp_path_factory, seq):
    _oracle_run(seq, "sim",
                OsFileSystem(str(tmp_path_factory.mktemp("bound"))))


@settings(max_examples=8, **_SETTINGS)
@given(seq=sequences())
def test_oracle_proc_osfile(tmp_path_factory, seq):
    _oracle_run(seq, "proc",
                OsFileSystem(str(tmp_path_factory.mktemp("bound"))))
