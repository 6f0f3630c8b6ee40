"""The POSIX-style cursor interface, per-extent call counts of sparse
direct access on a real file, and the real file's mapping."""

import gc
import multiprocessing as mp
import os
import sys

import numpy as np
import pytest

from repro import datatypes as dt
from repro.datatypes.packing import typemap_blocks
from repro.errors import FileSystemError
from repro.fs import OsFileSystem, PosixFile, SimFileSystem
from repro.fs.posix import SEEK_CUR, SEEK_END, SEEK_SET, OsFile
from repro.fs.unmapped import unmapped
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
    them, and a replayed plan lands at the translated offsets.  Direct
    access is planned on a file that is not a file buffer (an
    :func:`~repro.fs.unmapped.unmapped` ``OsFile``); on the ``OsFile``
    itself the access is mapped (:class:`TestSparseMappedCounts`)."""

    NB, BL, STRIDE = 256, 1024, 64 * 1024

    def test_one_call_per_block_and_replay_translates(self, tmp_path):
        fs = unmapped(OsFileSystem(str(tmp_path)))
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


class TestSparseMappedCounts:
    """The same sparse accesses on the ``OsFile`` itself: each is one
    mapped copy — one file op of the access's own bytes — and a
    replayed plan lands at the translated offsets."""

    def test_one_op_per_access_and_replay_translates(self, tmp_path):
        fs = OsFileSystem(str(tmp_path))
        nb, bl, stride = (TestSparseDirectCounts.NB,
                          TestSparseDirectCounts.BL,
                          TestSparseDirectCounts.STRIDE)
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
                           for key in ("n_writes", "n_reads", "n_locks",
                                       "bytes_written", "bytes_read")}
            seen["plan"] = fh.engine.stats.snapshot()
            fh.close()

        run_spmd(1, worker)
        for k in (0, 1):
            assert seen[k] == {"n_writes": 1, "n_reads": 1, "n_locks": 0,
                               "bytes_written": nb * bl,
                               "bytes_read": nb * bl}
        assert seen["plan"]["executed_file_writes"] == 2
        assert seen["plan"]["executed_file_reads"] == 2
        assert seen["plan"]["plan_replays"] >= 2
        with open(tmp_path / "sparse", "rb") as fd:
            raw = np.frombuffer(fd.read(), dtype=np.uint8)
        assert raw.size == span + (nb - 1) * stride + bl
        for k, pat in enumerate(pats):
            got = np.stack([raw[k * span + j * stride:
                                k * span + j * stride + bl]
                            for j in range(nb)])
            assert np.array_equal(got.reshape(-1), pat)


class TestMappedFile:
    """OsFile's vectored calls copy against a shared mapping of the
    file: growth never shrinks it, a cut never faults, and no mapping
    or descriptor outlives the handle."""

    @pytest.mark.parametrize("runtime, nprocs", [("proc", 2), ("sim", 4)])
    def test_concurrent_growth_never_shrinks(self, tmp_path, runtime,
                                             nprocs):
        # Ranks write disjoint interleaved blocks, every access past
        # end-of-file, at the same time: rank processes each with their
        # own mapping, or more rank threads than cores sharing one
        # cached OsFile (remapping under it) with a short switch
        # interval.
        from repro.mpi.proc import run_spmd_proc

        bl, nb, stride, k = 1024, 4, 64 * 1024, 256
        span = nb * stride
        vec = dt.vector(nb, bl, stride, dt.BYTE)
        ft = dt.struct([1, 1, 1], [0, 0, span], [dt.LB, vec, dt.UB])
        fs = OsFileSystem(str(tmp_path))
        pats = [[fill_pattern(nb * bl, 1000 * r + i) for i in range(k)]
                for r in range(nprocs)]

        def worker(comm):
            fh = File.open(comm, fs, "/grow", MODE_CREATE | MODE_RDWR)
            fh.set_view(comm.rank * bl, dt.BYTE, ft)
            comm.barrier()
            for i, pat in enumerate(pats[comm.rank]):
                fh.write_at(i * nb * bl, pat)
            mapped = fh.simfile._map is not None
            fh.close()
            return mapped

        if runtime == "proc":
            res = run_spmd_proc(nprocs, worker, timeout=60.0)
        else:
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                res = run_spmd(nprocs, worker)
            finally:
                sys.setswitchinterval(old)
            fs.close()
        assert res == [True] * nprocs
        runs = typemap_blocks(ft, k)
        fidx = np.concatenate([np.arange(o, o + ln) for o, ln in runs])
        want = np.zeros((k - 1) * span + (nb - 1) * stride + nprocs * bl,
                        dtype=np.uint8)
        for r in range(nprocs):
            want[r * bl + fidx] = np.concatenate(pats[r])
        got = np.fromfile(tmp_path / "grow", dtype=np.uint8)
        assert got.size == want.size
        assert np.array_equal(got, want)

    def test_shrink_then_access(self, tmp_path):
        path = str(tmp_path / "s")
        data = np.arange(16 * 1024, dtype=np.uint32).view(np.uint8)
        offs, lens = [0, 40_000, 200_000], [4096, 4096, 4096]

        def access(f, cut):
            f.pwritev_blocks(offs, lens, data)
            assert f.size == 204_096
            if cut == 5000:
                f.truncate(cut)  # through this handle
            else:
                os.truncate(path, cut)  # another one: the map is stale
            out = np.full(12_288, 7, np.uint8)
            short, _ = f.preadv_blocks(offs, lens, out)
            assert short == ((0, cut) if cut < 4096 else (1, 0))
            want = np.zeros(12_288, np.uint8)
            want[:min(cut, 4096)] = data[:min(cut, 4096)]
            assert np.array_equal(out, want)
            # A write past the new end regrows the file.
            f.pwritev_blocks(offs[1:], lens[1:], data, 4096)
            assert f.size == 204_096
            raw = np.fromfile(path, dtype=np.uint8)
            assert np.array_equal(raw[40_000:44_096], data[4096:8192])
            assert np.array_equal(raw[200_000:], data[8192:12_288])
            assert not raw[max(cut, 4096):40_000].any()

        def child():
            f = OsFile(path)
            access(f, 5000)
            access(f, 1000)
            f.close()

        # In a child process: a SIGBUS there fails this test instead of
        # killing the test run.
        p = mp.get_context("fork").Process(target=child)
        p.start()
        p.join(60)
        assert not p.is_alive()
        assert p.exitcode == 0

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="needs /proc")
    def test_no_leaked_mappings(self, tmp_path):
        def maps(path):
            with open("/proc/self/maps") as fd:
                return sum(path in line for line in fd)

        def fds(path):  # an unlinked path reads "<path> (deleted)"
            n = 0
            for fd in os.listdir("/proc/self/fd"):
                try:
                    n += os.readlink(f"/proc/self/fd/{fd}").startswith(path)
                except OSError:  # the listing's own descriptor
                    pass
            return n

        fs = OsFileSystem(str(tmp_path))
        paths = [str(tmp_path / n) for n in ("u", "c")]
        handles = []  # alive: closing them must release the mappings
        gc.disable()
        try:
            for name in ("/u", "/c"):
                f = fs.create(name)
                handles.append(f)
                f.pwritev_blocks([0, 8192], [16, 16], fill_pattern(32))
                out = np.empty(32, np.uint8)
                f.preadv_blocks([0, 8192], [16, 16], out)
                assert maps(f.path) == 1
                # Growing past the mapping remaps; the old one is gone.
                f.pwritev_blocks([1 << 20], [16], fill_pattern(16))
                assert maps(f.path) == 1
            fs.unlink("/u")
            fs.close()
            for path in paths:
                assert maps(path) == 0
                assert fds(path) == 0
        finally:
            gc.enable()

    def test_sync_fsyncs_the_file(self, tmp_path, monkeypatch):
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (calls.append(fd), real(fd))[1])
        for fs in (OsFileSystem(str(tmp_path)), SimFileSystem()):
            def worker(comm):
                fh = File.open(comm, fs, "/y", MODE_CREATE | MODE_RDWR)
                fh.write_at(0, fill_pattern(64))
                fh.sync()
                fh.sync()
                fh.close()

            run_spmd(1, worker)
        assert len(calls) == 2
