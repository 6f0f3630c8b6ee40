"""The bound mapped step: a replayed listless independent access on a
``SimFile`` or ``OsFile`` runs its cached plan as one bound step — one
``map_access`` call on the live file buffer, no executor loop.

Each case runs on sim rank threads over a ``SimFile`` and over an
``OsFile``, and on proc rank processes over an ``OsFile``.
"""

import time

import numpy as np
import pytest

from repro import datatypes as dt
from repro.bench.noncontig import (
    build_noncontig_filetype,
    build_noncontig_memtype,
)
from repro.core.gather import kernel_path_counts
from repro.fs import OsFileSystem, SimFileSystem
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.mpi.runtime import Runtime
from repro.obs import trace
from tests.conftest import fill_pattern

#: (runtime, backend) pairs: proc ranks need a real file.
RUNS = [("sim", "sim"), ("sim", "os"), ("proc", "os")]

#: Fig. 4 view of rank 0 of 2: ``NB`` blocks of ``BL`` bytes.
BL, NB = 8, 8
A = BL * NB


def make_fs(backend, tmp_path):
    if backend == "sim":
        return SimFileSystem()
    return OsFileSystem(str(tmp_path / "fs"))


def contents(fs, path):
    data = fs.lookup(path).contents()
    if isinstance(fs, OsFileSystem):
        fs.close()
    return data


def open_fig4(comm, fs, path="/b", create=True):
    fh = File.open(comm, fs, path,
                   (MODE_CREATE if create else 0) | MODE_RDWR)
    fh.set_view(0, dt.BYTE, build_noncontig_filetype(2, 0, BL, NB))
    return fh


def slot_bytes(data, k):
    """The data bytes of slot ``k`` of the Fig. 4 view in file image
    ``data`` (rank 0's blocks of filetype instance ``k``)."""
    inst = data[2 * A * k:2 * A * (k + 1)]
    return inst.reshape(NB, 2 * BL)[:, :BL].reshape(-1)


def live_buffer(f):
    """The backend's buffer object: ``SimFile``'s array, ``OsFile``'s
    mapping."""
    return f._data if hasattr(f, "_data") else f._map


@pytest.mark.parametrize("runtime, backend", RUNS)
def test_replays_land_in_the_live_buffer(runtime, backend, tmp_path):
    """The bound step keeps no file buffer: replays after the file grew
    (``SimFile`` reallocated its array, ``OsFile`` remapped) and after a
    truncate land in the file, and a replayed read past end-of-file
    zero-fills."""
    fs = make_fs(backend, tmp_path)
    far = 64  # a slot far enough out to outgrow the first buffer
    pats = {k: fill_pattern(A, k) for k in (0, 1, 2, 3, far)}

    def worker(comm, fs):
        fh = open_fig4(comm, fs)
        f = fh.simfile
        fh.write_at(0, pats[0])
        before = live_buffer(f)
        fh.write_at(far * A, pats[far])  # replayed, grows the file
        regrown = live_buffer(f) is not before
        fh.write_at(A, pats[1])  # replayed into the grown buffer
        fh.set_size(2 * 2 * A)  # cut to slots 0-1
        fh.write_at(2 * A, pats[2])  # replayed, past end-of-file again
        fh.set_size(8 * 2 * A)
        fh.write_at(3 * A, pats[3])
        past = np.full(A, 7, dtype=np.uint8)
        fh.read_at(6 * A, past)  # replayed read, inside the zeroed tail
        got = {}
        for k in (0, 1, 2, 3):
            got[k] = np.zeros(A, dtype=np.uint8)
            fh.read_at(k * A, got[k])
        fh.set_size(4 * 2 * A)
        beyond = np.full(A, 7, dtype=np.uint8)
        fh.read_at(5 * A, beyond)  # replayed read past end-of-file
        size = fh.get_size()
        st = fh.engine.stats.snapshot()
        fh.close()
        return regrown, got, past, beyond, size, st

    ((regrown, got, past, beyond, size, st),) = Runtime(runtime).run(
        1, worker, fs)
    assert regrown
    for k in (0, 1, 2, 3):
        assert np.array_equal(got[k], pats[k]), k
    assert not past.any() and not beyond.any()
    assert size == 4 * 2 * A, "a read must not grow the file"
    assert st["plans_built"] == 2  # one write plan, one read plan
    assert st["plan_replays"] == 9
    data = contents(fs, "/b")
    for k in (0, 1, 2, 3):
        assert np.array_equal(slot_bytes(data, k), pats[k]), k


@pytest.mark.parametrize("runtime, backend", RUNS)
def test_set_view_and_set_info_replan(runtime, backend, tmp_path):
    """A new view voids the bound plans and a hint change drops the
    replay table: the next access plans afresh and lands where the new
    view says."""
    fs = make_fs(backend, tmp_path)
    pats = [fill_pattern(A, 10 + k) for k in range(4)]

    def worker(comm, fs):
        fh = open_fig4(comm, fs)
        fh.write_at(0, pats[0])
        fh.write_at(A, pats[1])
        built = [fh.engine.stats.plan.plans_built]
        # Rank 1's blocks of the same layout: the holes of the old view.
        fh.set_view(0, dt.BYTE, build_noncontig_filetype(2, 1, BL, NB))
        fh.write_at(0, pats[2])
        built.append(fh.engine.stats.plan.plans_built)
        fh.set_info({"ind_wr_buffer_size": str(1 << 12)})
        fh.write_at(A, pats[3])
        built.append(fh.engine.stats.plan.plans_built)
        fh.close()
        return built

    assert Runtime(runtime).run(1, worker, fs) == [[1, 2, 3]]
    data = contents(fs, "/b")
    for k in (0, 1):
        assert np.array_equal(slot_bytes(data, k), pats[k]), k
    holes = data[:4 * A].reshape(2 * NB, 2 * BL)[:, BL:].reshape(2, A)
    assert np.array_equal(holes[0], pats[2])
    assert np.array_equal(holes[1], pats[3])


@pytest.mark.parametrize("runtime, backend", RUNS)
def test_atomic_mode_serializes_overlapping_writers(runtime, backend,
                                                    tmp_path):
    """Both ranks replay writes of the same strided region in atomic
    mode: the whole-access range lock keeps each one whole."""
    fs = make_fs(backend, tmp_path)
    n, K = 1 << 12, 8
    ft = dt.vector(n // 4, 4, 8, dt.BYTE)

    def worker(comm, fs):
        fh = File.open(comm, fs, "/a", MODE_CREATE | MODE_RDWR)
        fh.set_view(0, dt.BYTE, ft)
        fh.set_atomicity(True)
        comm.barrier()
        for _ in range(K):
            fh.write_at(0, np.full(n, 1 + comm.rank, dtype=np.uint8))
        comm.barrier()
        st = fh.engine.stats.snapshot()
        fh.close()
        return st["plan_replays"], st["executed_file_writes"]

    assert Runtime(runtime).run(2, worker, fs) == [(K - 1, K)] * 2
    data = contents(fs, "/a")
    mine = np.zeros(data.size, dtype=bool)
    for k in range(n // 4):
        mine[8 * k:8 * k + 4] = True
    assert np.unique(data[mine]).size == 1
    assert (data[~mine] == 0).all()


@pytest.mark.parametrize("runtime, backend", RUNS)
def test_tracing_emits_the_same_spans(runtime, backend, tmp_path):
    """With tracing on, a replayed write and read still record the
    engine, planner, executor and file-buffer spans."""
    fs = make_fs(backend, tmp_path)

    def worker(comm, fs):
        fh = open_fig4(comm, fs)
        buf = fill_pattern(A, 1)
        fh.write_at(0, buf)
        fh.read_at(0, buf)
        prev = trace.set_tracing(True)
        trace.TRACER.clear()
        try:
            fh.write_at(A, buf)
            fh.read_at(A, buf)
            names = {s.name for s in trace.TRACER.spans()}
        finally:
            trace.set_tracing(prev)
            trace.TRACER.clear()
        fh.close()
        return names

    (names,) = Runtime(runtime).run(1, worker, fs)
    assert {"listless.write_independent", "listless.read_independent",
            "plan.independent", "exec.FileWriteOp", "exec.FileReadOp",
            "fs.map"} <= names


#: Counters of :func:`counted_sequence`, as they read before accesses
#: were bound into one step — the step must leave every one the same.
SEQUENCE_COUNTS = {
    "plans_built": 2, "plan_cache_hits": 10, "plan_replays": 10,
    "executed_ops": 12, "executed_file_reads": 6,
    "executed_file_writes": 6, "executed_locks": 0,
    "ff_kernel_calls": 10, "peak_staging_bytes": 0,
    "n_reads": 6, "n_writes": 6, "bytes_read": 6 * A,
    "bytes_written": 6 * A, "n_locks": 0,
    "kernel_path_strided_view": 12,
}


def counted_sequence(comm, fs):
    """A fixed access sequence: five strided-memory writes and reads,
    then a contiguous-memory write and a read past end-of-file."""
    fh = open_fig4(comm, fs)
    mt = build_noncontig_memtype(BL, NB)
    f = fh.simfile
    f.stats.reset()
    paths0 = kernel_path_counts()
    w = fill_pattern(2 * A, 3)
    for k in range(5):
        fh.write_at(k * A, w, 1, mt)
    for k in range(5):
        r = np.zeros(2 * A, dtype=np.uint8)
        fh.read_at(k * A, r, 1, mt)
    fh.write_at(5 * A, w[:A])
    fh.read_at(9 * A, w[:A])
    st = fh.engine.stats.snapshot()
    files = f.stats.snapshot()
    paths = {k: v - paths0[k] for k, v in kernel_path_counts().items()}
    fh.close()
    out = {k: st[k] for k in ("plans_built", "plan_cache_hits",
                               "plan_replays", "executed_ops",
                               "executed_file_reads",
                               "executed_file_writes", "executed_locks",
                               "ff_kernel_calls", "peak_staging_bytes")}
    out.update({k: files[k] for k in ("n_reads", "n_writes", "bytes_read",
                                       "bytes_written", "n_locks")})
    out.update({k: v for k, v in paths.items() if v})
    return out, files["sim_time"]


@pytest.mark.parametrize("runtime, backend", RUNS)
def test_counters_are_unchanged(runtime, backend, tmp_path):
    fs = make_fs(backend, tmp_path)
    ((counts, sim_time),) = Runtime(runtime).run(1, counted_sequence, fs)
    assert counts == SEQUENCE_COUNTS
    if backend == "sim":
        # Six writes and six reads of A bytes each, one device op each.
        dev = fs.device
        want = 6 * (dev.write_time(A) + dev.read_time(A))
        assert sim_time == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("runtime, backend", RUNS)
def test_phase_buckets_sum_within_wall_time(runtime, backend, tmp_path):
    """A replayed write bills ``pack`` and ``file_io`` (a read
    ``unpack`` and ``file_io``), each positive, together never more than
    the call's wall time."""
    fs = make_fs(backend, tmp_path)

    def worker(comm, fs):
        fh = open_fig4(comm, fs)
        mt = build_noncontig_memtype(BL, NB)
        buf = fill_pattern(2 * A, 5)
        fh.write_at(0, buf, 1, mt)
        fh.read_at(0, buf, 1, mt)
        out = {}
        for kind, call in (("write", fh.write_at), ("read", fh.read_at)):
            phases = fh.engine.stats.phases
            phases.reset()
            t0 = time.perf_counter()
            call(A, buf, 1, mt)
            out[kind] = (time.perf_counter() - t0, phases.snapshot())
        fh.close()
        return out

    (out,) = Runtime(runtime).run(1, worker, fs)
    for kind, copy in (("write", "pack"), ("read", "unpack")):
        wall, ph = out[kind]
        for bucket in ("plan", copy, "file_io"):
            assert ph[f"phase_{bucket}"] > 0, (kind, bucket)
        assert sum(ph.values()) <= wall, kind
