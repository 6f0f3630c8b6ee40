"""The POSIX-style cursor interface, and per-extent call counts of
sparse direct access on a real file."""

import numpy as np
import pytest

from repro import datatypes as dt
from repro.errors import FileSystemError
from repro.fs import OsFileSystem, PosixFile, SimFileSystem
from repro.fs.posix import SEEK_CUR, SEEK_END, SEEK_SET
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.mpi import run_spmd
from tests.conftest import fill_pattern


@pytest.fixture
def pf():
    fs = SimFileSystem()
    return PosixFile(fs.create("/p"))


class TestCursor:
    def test_sequential_write_read(self, pf):
        a, b = fill_pattern(10, 1), fill_pattern(6, 2)
        pf.write(a)
        pf.write(b)
        assert pf.tell() == 16
        pf.lseek(0)
        assert (pf.read(10) == a).all()
        assert (pf.read(6) == b).all()

    def test_seek_modes(self, pf):
        pf.write(fill_pattern(100))
        assert pf.lseek(10, SEEK_SET) == 10
        assert pf.lseek(5, SEEK_CUR) == 15
        assert pf.lseek(-20, SEEK_END) == 80

    def test_seek_negative_rejected(self, pf):
        with pytest.raises(FileSystemError):
            pf.lseek(-1, SEEK_SET)

    def test_bad_whence(self, pf):
        with pytest.raises(FileSystemError):
            pf.lseek(0, 9)

    def test_positional_ops_dont_move_cursor(self, pf):
        pf.write(fill_pattern(20))
        pos = pf.tell()
        pf.pwrite(0, np.zeros(4, np.uint8))
        pf.pread(0, 4)
        assert pf.tell() == pos

    def test_ftruncate(self, pf):
        pf.write(fill_pattern(20))
        pf.ftruncate(5)
        pf.lseek(0)
        assert pf.read(100).size == 5

    def test_closed_rejects_io(self, pf):
        pf.close()
        with pytest.raises(FileSystemError):
            pf.read(1)
        with pytest.raises(FileSystemError):
            pf.write(np.zeros(1, np.uint8))
        with pytest.raises(FileSystemError):
            pf.preadv_blocks([0], [1], np.zeros(1, np.uint8))
        with pytest.raises(FileSystemError):
            pf.pwritev_blocks([0], [1], np.zeros(1, np.uint8))

    def test_vectored_calls_leave_cursor(self, pf):
        pf.write(fill_pattern(20))
        pos = pf.tell()
        assert pf.pwritev_blocks([0, 10], [2, 2],
                                 np.zeros(4, np.uint8))[0] == 4
        out = np.empty(4, np.uint8)
        assert pf.preadv_blocks([0, 10], [2, 2], out)[0] is None
        assert (out == 0).all()
        assert pf.tell() == pos

    def test_context_manager(self):
        fs = SimFileSystem()
        with PosixFile(fs.create("/c")) as pf:
            pf.write(fill_pattern(4))
        with pytest.raises(FileSystemError):
            pf.tell()

    def test_two_handles_independent_cursors(self):
        fs = SimFileSystem()
        f = fs.create("/x")
        h1, h2 = PosixFile(f), PosixFile(f)
        h1.write(fill_pattern(8, 3))
        assert h2.tell() == 0
        assert (h2.read(8) == fill_pattern(8, 3)).all()


class TestSparseDirectCounts:
    """256 x 1 KiB blocks at a 64 KiB stride through ``File`` on a real
    file: one file call per block, whichever way the executor issues
    them, and a replayed plan lands at the translated offsets."""

    NB, BL, STRIDE = 256, 1024, 64 * 1024

    def test_one_call_per_block_and_replay_translates(self, tmp_path):
        fs = OsFileSystem(str(tmp_path))
        nb, bl, stride = self.NB, self.BL, self.STRIDE
        span = nb * stride
        vec = dt.vector(nb, bl, stride, dt.BYTE)
        ft = dt.struct([1, 1, 1], [0, 0, span], [dt.LB, vec, dt.UB])
        pats = [fill_pattern(nb * bl, k) for k in (1, 2)]
        seen = {}

        def worker(comm):
            fh = File.open(comm, fs, "/sparse", MODE_CREATE | MODE_RDWR)
            fh.set_view(0, dt.BYTE, ft)
            stats = fh.simfile.stats
            for k, pat in enumerate(pats):
                before = stats.snapshot()
                fh.write_at(k * nb * bl, pat)
                out = np.zeros(nb * bl, np.uint8)
                fh.read_at(k * nb * bl, out)
                after = stats.snapshot()
                assert np.array_equal(out, pat)
                seen[k] = {key: after[key] - before[key]
                           for key in ("n_writes", "n_reads",
                                       "bytes_written", "bytes_read")}
            seen["plan"] = fh.engine.stats.snapshot()
            fh.close()

        run_spmd(1, worker)
        for k in (0, 1):
            assert seen[k] == {"n_writes": nb, "n_reads": nb,
                               "bytes_written": nb * bl,
                               "bytes_read": nb * bl}
        assert seen["plan"]["executed_file_writes"] == 2 * nb
        assert seen["plan"]["executed_file_reads"] == 2 * nb
        # The second access replays the first one's plan, translated by
        # one filetype extent.
        assert seen["plan"]["plan_replays"] >= 2
        with open(tmp_path / "sparse", "rb") as fd:
            raw = np.frombuffer(fd.read(), dtype=np.uint8)
        assert raw.size == span + (nb - 1) * stride + bl
        for k, pat in enumerate(pats):
            got = np.stack([raw[k * span + j * stride:
                                k * span + j * stride + bl]
                            for j in range(nb)])
            assert np.array_equal(got.reshape(-1), pat)
