"""The mapped independent access on ``SimFile`` and ``OsFile``.

On a file whose bytes are one buffer (:class:`~repro.fs.simfile.
FileBuffer`) an independent access is one ``"mapped"`` file op: one
copy straight between user memory and the file buffer — no window, no
pre-read, no write-back, no lock.  Each case checks the bytes against
the type-map oracle *and* that the access really took the mapped path
(one file op per access, no lock), on sim rank threads and, over one
``OsFile``, on proc rank processes.
"""

import sys

import numpy as np
import pytest

from repro import datatypes as dt
from repro.bench.noncontig import (
    build_noncontig_filetype,
    build_noncontig_memtype,
)
from repro.datatypes.packing import pack_typemap, typemap_blocks
from repro.fs import OsFileSystem, SimFileSystem
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.mpi.runtime import Runtime
from tests.conftest import fill_pattern

ENGINES = ["listless", "list_based"]

#: (runtime, backend) pairs: proc ranks need a real file.
RUNS = [("sim", "sim"), ("sim", "os"), ("proc", "os")]


def make_fs(backend, tmp_path):
    if backend == "sim":
        return SimFileSystem()
    return OsFileSystem(str(tmp_path / "fs"))


def contents(fs, path):
    data = fs.lookup(path).contents()
    if isinstance(fs, OsFileSystem):
        fs.close()
    return data


def oracle(views, payloads, size):
    """The file image the type map says: rank ``r``'s packed data bytes
    ``payloads[r]`` at the offsets of ``views[r] = (disp, ft, count)``."""
    img = np.zeros(size, dtype=np.uint8)
    for (disp, ft, count), data in zip(views, payloads):
        idx = np.concatenate([np.arange(o, o + ln)
                              for o, ln in typemap_blocks(ft, count)])
        img[disp + idx] = data
    return img


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("backend", ["sim", "os"])
def test_read_past_eof_zero_fills(engine, backend, tmp_path):
    fs = make_fs(backend, tmp_path)
    fs.create("/f").pwrite(0, np.full(5, 9, dtype=np.uint8))

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_RDWR, engine=engine)
        fh.set_view(0, dt.BYTE, dt.vector(8, 2, 4, dt.BYTE))
        out = np.full(16, 7, dtype=np.uint8)
        fh.read_at(0, out)
        f = fh.simfile
        snap = (f.size, f.stats.n_reads, f.stats.bytes_read)
        fh.close()
        return out, snap

    ((out, (size, nreads, nbytes)),) = Runtime("sim").run(1, worker)
    # File bytes 0-1 and 4 hold 9; the rest of the view is past EOF.
    assert (out[:2] == 9).all() and out[2] == 9
    assert (out[3:] == 0).all()
    assert size == 5, "a read must not grow the file"
    assert (nreads, nbytes) == (1, 16)


@pytest.mark.parametrize("runtime, backend", RUNS)
def test_write_past_eof_grows(runtime, backend, tmp_path):
    """Every access of both ranks lands past end-of-file; the file grows
    to exactly the end of the last block written, holes zero."""
    P, bl, nb, K = 2, 8, 16, 6
    fs = make_fs(backend, tmp_path)
    pats = [[fill_pattern(bl * nb, 10 * r + k) for k in range(K)]
            for r in range(P)]

    def worker(comm, fs):
        fh = File.open(comm, fs, "/g", MODE_CREATE | MODE_RDWR)
        ft = build_noncontig_filetype(P, comm.rank, bl, nb)
        fh.set_view(64, dt.BYTE, ft)
        comm.barrier()
        for k in range(K):
            fh.write_at(2 * k * bl * nb, pats[comm.rank][k])
        st = fh.engine.stats.snapshot()
        fh.close()
        return st["executed_file_writes"], st["executed_locks"]

    res = Runtime(runtime).run(P, worker, fs)
    assert res == [(K, 0)] * P
    ft_ext = P * bl * nb
    # Accesses fill every other filetype instance (the ones between
    # stay zero); the last block of the last rank ends the file.
    views = [(64, build_noncontig_filetype(P, r, bl, nb), 2 * K - 1)
             for r in range(P)]
    size = 64 + (2 * K - 1) * ft_ext
    data = contents(fs, "/g")
    assert data.size == size
    gap = np.zeros(bl * nb, dtype=np.uint8)
    full = [np.concatenate([x for p in pats[r] for x in (p, gap)][:-1])
            for r in range(P)]
    assert np.array_equal(data, oracle(views, full, size))


@pytest.mark.parametrize("backend", ["sim", "os"])
def test_racing_growth_loses_no_bytes(backend, tmp_path):
    """More rank threads than cores, a short switch interval, every
    access of every rank past end-of-file: the lock-free mapped writes
    and their growth of the one shared file lose no byte."""
    P, bl, nb, K = 4, 4, 32, 40
    fs = make_fs(backend, tmp_path)
    pats = [[fill_pattern(bl * nb, 1000 * r + k) for k in range(K)]
            for r in range(P)]

    def worker(comm, fs):
        fh = File.open(comm, fs, "/s", MODE_CREATE | MODE_RDWR)
        fh.set_view(0, dt.BYTE, build_noncontig_filetype(P, comm.rank,
                                                         bl, nb))
        comm.barrier()
        for k in range(K):
            fh.write_at(k * bl * nb, pats[comm.rank][k])
        fh.close()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        Runtime("sim").run(P, worker, fs)
    finally:
        sys.setswitchinterval(old)
    views = [(0, build_noncontig_filetype(P, r, bl, nb), K)
             for r in range(P)]
    size = K * P * bl * nb
    data = contents(fs, "/s")
    assert data.size == size
    assert np.array_equal(
        data, oracle(views, [np.concatenate(p) for p in pats], size))


@pytest.mark.parametrize("backend", ["sim", "os"])
def test_replayed_plan_lands_translated(backend, tmp_path):
    """A replayed mapped plan runs with a non-zero file delta: its copy
    lands that many bytes further into the file."""
    fs = make_fs(backend, tmp_path)
    ft = dt.vector(16, 2, 5, dt.BYTE)
    A = ft.size
    pats = [fill_pattern(A, k) for k in range(4)]
    box = {}

    def worker(comm):
        fh = File.open(comm, fs, "/r", MODE_CREATE | MODE_RDWR)
        fh.set_view(3, dt.BYTE, ft)
        fh.write_at(0, pats[0])
        first, d0 = fh.engine.planner.plan_independent_bound(0, A, True)
        plan, delta = fh.engine.planner.plan_independent_bound(2 * A, A,
                                                               True)
        assert d0 == 0 and plan is first and delta == 2 * ft.extent
        assert [op.mode for op in plan.ops] == ["mapped"]
        for k in range(1, 4):
            fh.write_at(k * A, pats[k])
        for k in range(4):
            got = np.zeros(A, dtype=np.uint8)
            fh.read_at(k * A, got)
            assert np.array_equal(got, pats[k]), k
        box["s"] = fh.engine.stats.snapshot()
        fh.close()

    Runtime("sim").run(1, worker)
    assert box["s"]["plan_replays"] >= 6
    assert box["s"]["executed_file_writes"] == 4
    size = 3 + 3 * ft.extent + ft.true_ub
    data = contents(fs, "/r")
    assert np.array_equal(
        data, oracle([(3, ft, 4)], [np.concatenate(pats)], size))


@pytest.mark.parametrize("runtime, backend", [("sim", "sim"),
                                              ("proc", "os")])
def test_atomic_mode_serializes_overlapping_writers(runtime, backend,
                                                    tmp_path):
    """Both ranks write the same strided region, repeatedly, in atomic
    mode: every access is guarded by the handle's whole-access lock, so
    each one lands whole — the region holds one rank's bytes."""
    fs = make_fs(backend, tmp_path)
    n, K = 1 << 14, 8
    ft = dt.vector(n // 4, 4, 8, dt.BYTE)

    def worker(comm, fs):
        fh = File.open(comm, fs, "/a", MODE_CREATE | MODE_RDWR)
        fh.set_view(0, dt.BYTE, ft)
        fh.set_atomicity(True)
        comm.barrier()
        for k in range(K):
            fh.write_at(0, np.full(n, 1 + comm.rank, dtype=np.uint8))
        comm.barrier()
        st = fh.engine.stats.snapshot()
        locks = fh.simfile.stats.n_locks
        fh.close()
        return st["executed_file_writes"], st["executed_locks"], locks

    res = Runtime(runtime).run(2, worker, fs)
    for writes, plan_locks, _ in res:
        assert (writes, plan_locks) == (K, 0)
    # The guard lock is the only lock: one per access.
    if backend == "os":
        assert [r[2] for r in res] == [K, K]
    else:
        assert res[0][2] == 2 * K
    data = contents(fs, "/a")
    assert data.size == ft.true_ub
    mine = np.zeros(data.size, dtype=bool)
    for o, ln in typemap_blocks(ft):
        mine[o:o + ln] = True
    assert np.unique(data[mine]).size == 1
    assert (data[~mine] == 0).all()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("runtime, backend", RUNS)
def test_interleaved_fig4_writers(runtime, backend, engine, tmp_path):
    """Two ranks write their interleaved Fig. 4 views from strided
    memory, access after access with no barrier between them: the file
    is the type-map oracle's, no lock is taken, and each access is one
    file op."""
    P, bl, nb, K = 2, 8, 64, 12
    fs = make_fs(backend, tmp_path)
    A = bl * nb
    mt = build_noncontig_memtype(bl, nb)
    bufs = [[fill_pattern(mt.extent, 100 * r + k) for k in range(K)]
            for r in range(P)]

    def worker(comm, fs):
        fh = File.open(comm, fs, "/i", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        fh.set_view(0, dt.BYTE, build_noncontig_filetype(P, comm.rank,
                                                         bl, nb))
        f = fh.simfile
        comm.barrier()
        for k in range(K):
            fh.write_at(k * A, bufs[comm.rank][k], 1, mt)
        comm.barrier()
        for k in range(K):
            got = np.zeros(mt.extent, dtype=np.uint8)
            fh.read_at(k * A, got, 1, mt)
            assert np.array_equal(pack_typemap(got, 1, mt),
                                  pack_typemap(bufs[comm.rank][k], 1, mt))
        comm.barrier()
        st = fh.engine.stats.snapshot()
        fs_stats = f.stats.snapshot()
        fh.close()
        return (st["executed_file_writes"], st["executed_file_reads"],
                st["executed_locks"]), fs_stats

    res = Runtime(runtime).run(P, worker, fs)
    for ops, _ in res:
        assert ops == (K, K, 0)
    if runtime == "proc":  # per-process file statistics
        per_file = [s for _, s in res]
        nops = K
    else:  # one file object shared by the rank threads
        per_file = [res[0][1]]
        nops = P * K
    for s in per_file:
        assert (s["n_writes"], s["n_reads"], s["n_locks"]) == \
            (nops, nops, 0)
        assert s["bytes_written"] == nops * A
    views = [(0, build_noncontig_filetype(P, r, bl, nb), K)
             for r in range(P)]
    payloads = [np.concatenate([pack_typemap(b, 1, mt) for b in bufs[r]])
                for r in range(P)]
    size = K * P * A
    data = contents(fs, "/i")
    assert data.size == size
    assert np.array_equal(data, oracle(views, payloads, size))
