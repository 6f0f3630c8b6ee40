"""The listless dense-range fast path: a non-contiguous view whose
accessed range happens to be fully dense (e.g. a k-plane of a subarray)
bypasses data sieving entirely — one plain file access, no pre-read, no
lock — while remaining byte-identical to the general path."""

import numpy as np
import pytest

from repro import datatypes as dt
from repro.fs import SimFileSystem
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDONLY, MODE_RDWR
from repro.mpi import run_spmd

N = 16


def plane_type(axis: int, index: int) -> dt.Datatype:
    sizes = [N, N, N]
    subsizes = [N, N, N]
    starts = [0, 0, 0]
    subsizes[axis] = 1
    starts[axis] = index
    return dt.subarray(sizes, subsizes, starts, dt.DOUBLE)


class TestDenseWrite:
    def test_kplane_write_no_preread_no_lock(self):
        fs = SimFileSystem()
        fs.create("/g").truncate(N ** 3 * 8)
        f = fs.lookup("/g")
        f.stats.reset()

        def worker(comm):
            fh = File.open(comm, fs, "/g", MODE_RDWR, engine="listless")
            fh.set_view(0, dt.DOUBLE, plane_type(0, 3))
            fh.write_at(0, np.full(N * N, 7.0), N * N, dt.DOUBLE)
            fh.close()

        run_spmd(1, worker)
        s = f.stats.snapshot()
        assert s["n_reads"] == 0
        assert s["n_writes"] == 1
        assert s["n_locks"] == 0
        grid = f.contents().view(np.float64).reshape(N, N, N)
        assert (grid[3] == 7.0).all()
        assert (grid[:3] == 0).all() and (grid[4:] == 0).all()

    def test_iplane_write_still_sieves(self):
        # Sieving is planned only where the file is not a file buffer.
        fs = unmapped(SimFileSystem())
        fs.create("/g").truncate(N ** 3 * 8)
        f = fs.lookup("/g")
        f.stats.reset()

        def worker(comm):
            fh = File.open(comm, fs, "/g", MODE_RDWR, engine="listless")
            fh.set_view(0, dt.DOUBLE, plane_type(2, 3))
            fh.write_at(0, np.full(N * N, 7.0), N * N, dt.DOUBLE)
            fh.close()

        run_spmd(1, worker)
        s = f.stats.snapshot()
        assert s["n_reads"] >= 1  # read-modify-write
        assert s["n_locks"] >= 1
        grid = f.contents().view(np.float64).reshape(N, N, N)
        assert (grid[:, :, 3] == 7.0).all()
        assert (grid[:, :, 4] == 0).all()

    def test_iplane_write_is_mapped(self):
        """Twin on ``SimFile``: the strided i-plane is one mapped write,
        no pre-read, no lock, and the same bytes land."""
        fs = SimFileSystem()
        fs.create("/g").truncate(N ** 3 * 8)
        f = fs.lookup("/g")
        f.stats.reset()

        def worker(comm):
            fh = File.open(comm, fs, "/g", MODE_RDWR, engine="listless")
            fh.set_view(0, dt.DOUBLE, plane_type(2, 3))
            fh.write_at(0, np.full(N * N, 7.0), N * N, dt.DOUBLE)
            fh.close()

        run_spmd(1, worker)
        s = f.stats.snapshot()
        assert (s["n_writes"], s["n_reads"], s["n_locks"]) == (1, 0, 0)
        assert s["bytes_written"] == N * N * 8
        grid = f.contents().view(np.float64).reshape(N, N, N)
        assert (grid[:, :, 3] == 7.0).all()
        assert (grid[:, :, 4] == 0).all()

    def test_dense_with_noncontig_memtype(self):
        fs = SimFileSystem()
        fs.create("/g").truncate(N ** 3 * 8)

        def worker(comm):
            fh = File.open(comm, fs, "/g", MODE_RDWR, engine="listless")
            fh.set_view(0, dt.DOUBLE, plane_type(0, 0))
            mt = dt.vector(N * N, 1, 2, dt.DOUBLE)
            buf = np.arange(2 * N * N, dtype=np.float64)
            fh.write_at(0, buf, 1, mt)
            fh.close()

        run_spmd(1, worker)
        grid = fs.lookup("/g").contents().view(np.float64).reshape(
            N, N, N
        )
        assert (grid[0].reshape(-1) ==
                np.arange(2 * N * N, dtype=np.float64)[::2]).all()


class TestDenseRead:
    def test_kplane_read_single_op(self):
        fs = SimFileSystem()
        grid = np.arange(N ** 3, dtype=np.float64)
        fs.create("/g").pwrite(0, grid)
        f = fs.lookup("/g")
        f.stats.reset()
        out = np.zeros(N * N, dtype=np.float64)

        def worker(comm):
            fh = File.open(comm, fs, "/g", MODE_RDONLY, engine="listless")
            fh.set_view(0, dt.DOUBLE, plane_type(0, 5))
            fh.read_at(0, out, N * N, dt.DOUBLE)
            fh.close()

        run_spmd(1, worker)
        s = f.stats.snapshot()
        assert s["n_reads"] == 1
        assert s["bytes_read"] == N * N * 8  # exactly the plane
        assert (out == grid.reshape(N, N, N)[5].reshape(-1)).all()

    def test_partial_access_inside_dense_region(self):
        """An access covering only part of a dense region still uses the
        fast path and reads the right bytes at an etype offset."""
        fs = SimFileSystem()
        grid = np.arange(N ** 3, dtype=np.float64)
        fs.create("/g").pwrite(0, grid)
        out = np.zeros(N, dtype=np.float64)

        def worker(comm):
            fh = File.open(comm, fs, "/g", MODE_RDONLY, engine="listless")
            fh.set_view(0, dt.DOUBLE, plane_type(0, 2))
            fh.read_at(7 * N, out, N, dt.DOUBLE)  # row 7 of plane 2
            fh.close()

        run_spmd(1, worker)
        assert (out == grid.reshape(N, N, N)[2, 7]).all()
