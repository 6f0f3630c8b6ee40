"""The in-memory file object: POSIX read/write semantics and stats,
and the vectored extent calls of every file backend, differentially
against the one-extent calls."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FileSystemError, IOEngineError
from repro.fs import (
    DeviceModel,
    OsFileSystem,
    PosixFile,
    ShardedFileSystem,
    SimFile,
    SimFileSystem,
    StripingConfig,
)
from repro.plan import (STAGE, Blocks, FileReadOp, IOPlan, Piece,
                        PlanExecutor)
from tests.conftest import fill_pattern


@pytest.fixture
def f():
    return SimFile("/t", DeviceModel(), StripingConfig())


class TestReadWrite:
    def test_write_then_read(self, f):
        data = fill_pattern(100)
        assert f.pwrite(0, data) == 100
        assert (f.pread(0, 100) == data).all()
        assert f.size == 100

    def test_read_past_eof_truncates(self, f):
        f.pwrite(0, fill_pattern(10))
        out = f.pread(5, 100)
        assert out.size == 5

    def test_read_at_eof_empty(self, f):
        f.pwrite(0, fill_pattern(10))
        assert f.pread(10, 4).size == 0
        assert f.pread(50, 4).size == 0

    def test_write_creates_hole(self, f):
        f.pwrite(100, fill_pattern(4, seed=1))
        assert f.size == 104
        assert (f.pread(0, 100) == 0).all()

    def test_sparse_overwrite(self, f):
        f.pwrite(0, np.full(64, 7, np.uint8))
        f.pwrite(16, np.full(8, 9, np.uint8))
        out = f.pread(0, 64)
        assert (out[:16] == 7).all()
        assert (out[16:24] == 9).all()
        assert (out[24:] == 7).all()

    def test_pread_into(self, f):
        data = fill_pattern(32)
        f.pwrite(0, data)
        buf = np.zeros(16, dtype=np.uint8)
        assert f.pread_into(8, buf) == 16
        assert (buf == data[8:24]).all()

    def test_growth_across_capacity(self, f):
        big = fill_pattern(100_000, seed=2)
        f.pwrite(0, big)
        assert (f.contents() == big).all()

    def test_negative_offset_rejected(self, f):
        with pytest.raises(FileSystemError):
            f.pwrite(-1, np.zeros(4, np.uint8))
        with pytest.raises(FileSystemError):
            f.pread(-1, 4)

    def test_zero_byte_write_past_eof_does_not_extend(self, f):
        f.pwrite(0, fill_pattern(10))
        assert f.pwrite(50, np.empty(0, np.uint8)) == 0
        assert f.pwritev_blocks([60, 4], [0, 2], fill_pattern(2))[0] == 2
        assert f.size == 10

    def test_non_byte_arrays_accepted(self, f):
        data = np.arange(8, dtype=np.float64)
        f.pwrite(0, data)
        assert (f.pread(0, 64).view(np.float64) == data).all()


class TestTruncate:
    def test_shrink(self, f):
        f.pwrite(0, fill_pattern(64))
        f.truncate(16)
        assert f.size == 16
        assert f.pread(0, 64).size == 16

    def test_shrink_then_regrow_zeroes(self, f):
        f.pwrite(0, np.full(64, 5, np.uint8))
        f.truncate(16)
        f.pwrite(32, np.full(4, 6, np.uint8))
        out = f.pread(0, 36)
        assert (out[16:32] == 0).all()

    def test_extend_zero_fills(self, f):
        f.pwrite(0, np.full(8, 3, np.uint8))
        f.truncate(32)
        assert f.size == 32
        assert (f.pread(8, 24) == 0).all()

    def test_negative_rejected(self, f):
        with pytest.raises(FileSystemError):
            f.truncate(-1)


class TestStats:
    def test_counters(self, f):
        f.pwrite(0, fill_pattern(100))
        f.pread(0, 50)
        s = f.stats.snapshot()
        assert s["n_writes"] == 1
        assert s["n_reads"] == 1
        assert s["bytes_written"] == 100
        assert s["bytes_read"] == 50
        assert s["sim_time"] > 0

    def test_device_model_time(self):
        dm = DeviceModel(read_bandwidth=1e6, write_bandwidth=1e6,
                         latency=1e-3)
        assert dm.read_time(1000) == pytest.approx(1e-3 + 1e-3)
        assert dm.write_time(0) == pytest.approx(1e-3)

    def test_striping_aggregates_bandwidth(self):
        dm = DeviceModel(latency=0.0, read_bandwidth=1e6)
        assert dm.read_time(1000, nstreams=4) == pytest.approx(
            dm.read_time(1000) / 4
        )

    def test_streams_for(self):
        s = StripingConfig(ndisks=4, stripe_size=100)
        assert s.streams_for(0, 50) == 1
        assert s.streams_for(0, 250) == 3
        assert s.streams_for(0, 10_000) == 4
        assert s.streams_for(90, 20) == 2

    def test_reset(self, f):
        f.pwrite(0, fill_pattern(10))
        f.stats.reset()
        assert f.stats.snapshot()["n_writes"] == 0

    @pytest.mark.parametrize("write", [False, True])
    def test_extents_time_lists_arrays_striped(self, write):
        dm = DeviceModel(read_bandwidth=3e6, write_bandwidth=2e6,
                         latency=1e-5)
        rng = np.random.default_rng(4)
        offs = rng.integers(0, 10_000, 256).tolist()
        lens = rng.integers(0, 1500, 256).tolist()
        arr = (np.array(offs, np.int64), np.array(lens, np.int64))
        one = dm.write_time if write else dm.read_time
        bw = dm.write_bandwidth if write else dm.read_bandwidth
        flat = StripingConfig()
        # Unstriped: the closed form, to the last bit, for both inputs.
        want = len(offs) * dm.latency + sum(lens) / bw
        assert dm.extents_time(offs, lens, flat, write) == want
        assert dm.extents_time(*arr, flat, write) == want
        # Striped: one op per extent, each with its own stream count.
        st4 = StripingConfig(ndisks=4, stripe_size=512)
        per = sum(one(ln, st4.streams_for(o, ln))
                  for o, ln in zip(offs, lens))
        got = dm.extents_time(offs, lens, st4, write)
        assert got == dm.extents_time(*arr, st4, write)
        assert got == pytest.approx(per, rel=1e-12)


class TestFileSystem:
    def test_create_lookup(self):
        fs = SimFileSystem()
        f = fs.create("/a")
        assert fs.lookup("/a") is f
        assert fs.exists("/a")

    def test_create_exclusive(self):
        fs = SimFileSystem()
        fs.create("/a")
        with pytest.raises(FileSystemError):
            fs.create("/a", exist_ok=False)

    def test_lookup_missing(self):
        with pytest.raises(FileSystemError):
            SimFileSystem().lookup("/nope")

    def test_unlink(self):
        fs = SimFileSystem()
        fs.create("/a")
        fs.unlink("/a")
        assert not fs.exists("/a")
        with pytest.raises(FileSystemError):
            fs.unlink("/a")

    def test_listdir_sorted(self):
        fs = SimFileSystem()
        fs.create("/b")
        fs.create("/a")
        assert fs.listdir() == ["/a", "/b"]

    def test_total_sim_time(self):
        fs = SimFileSystem()
        fs.create("/a").pwrite(0, fill_pattern(10))
        fs.create("/b").pwrite(0, fill_pattern(10))
        assert fs.total_sim_time() > 0
        fs.reset_stats()
        assert fs.total_sim_time() == 0


# ----------------------------------------------------------------------
# Vectored extent calls (preadv_blocks / pwritev_blocks) on every file
# backend, against a loop of the one-extent pread_into / pwrite calls on
# a twin file.  A finite device model and multi-disk striping make the
# simulated-time comparison non-trivial.
# ----------------------------------------------------------------------
DEV = DeviceModel(read_bandwidth=3e6, write_bandwidth=2e6, latency=1e-5)
STRIPES = StripingConfig(ndisks=3, stripe_size=32)
BACKENDS = ["sim", "os", "posix", "sharded"]
_names = itertools.count()


@pytest.fixture(scope="module")
def twins(tmp_path_factory):
    """``make(kind) -> ((handle, file), (handle, file))``: two fresh,
    identically configured files of one backend (``file`` carries the
    stats and contents; it differs from ``handle`` for PosixFile)."""
    sharded = ShardedFileSystem(str(tmp_path_factory.mktemp("vsh")),
                                nshards=2, stripe_size=32, device=DEV)
    osfs = OsFileSystem(str(tmp_path_factory.mktemp("vos")), device=DEV,
                        striping=STRIPES)

    def make(kind):
        n = next(_names)
        if kind == "sharded":
            fs = sharded
        elif kind == "os":
            fs = osfs
        else:
            fs = SimFileSystem(device=DEV, striping=STRIPES)
        pair = []
        for name in (f"/a{n}", f"/b{n}"):
            f = fs.create(name)
            pair.append((PosixFile(f) if kind == "posix" else f, f))
        return pair

    yield make
    osfs.close()
    sharded.close()


def loop_read(h, offs, lens, out, pos):
    """The per-extent reference: one ``pread_into`` per extent, the
    unread tail zero-filled; returns the first short ``(i, got)``."""
    first = None
    for i, (o, ln) in enumerate(zip(offs, lens)):
        got = h.pread_into(o, out[pos:pos + ln])
        if got < ln:
            out[pos + got:pos + ln] = 0
            if first is None:
                first = (i, got)
        pos += ln
    return first


def loop_write(h, offs, lens, data, pos):
    n = 0
    for o, ln in zip(offs, lens):
        n += h.pwrite(o, data[pos:pos + ln])
        pos += ln
    return n


def assert_same_stats(fa, fb):
    a, b = fa.stats.snapshot(), fb.stats.snapshot()
    for key in ("n_reads", "n_writes", "bytes_read", "bytes_written"):
        assert a[key] == b[key], key
    assert a["sim_time"] == pytest.approx(b["sim_time"], rel=1e-12,
                                          abs=1e-300)


def seeded_twins(make, kind, size):
    (ha, fa), (hb, fb) = make(kind)
    if size:
        fa.pwrite(0, fill_pattern(size, 5))
        fb.pwrite(0, fill_pattern(size, 5))
    fa.stats.reset()
    fb.stats.reset()
    return ha, fa, hb, fb


# Up to 40 extents: lists longer than 16 reach the index kernels, where
# overlapping extents become repeated indices (the later must win).
extent_lists = st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 70)), max_size=40,
)


@pytest.mark.parametrize("kind", BACKENDS)
class TestVectoredDifferential:
    @settings(max_examples=50, deadline=None)
    @given(size=st.integers(0, 300), extents=extent_lists,
           pos=st.integers(0, 5))
    def test_read_matches_per_extent_calls(self, twins, kind, size,
                                           extents, pos):
        ha, fa, hb, fb = seeded_twins(twins, kind, size)
        offs = [o for o, _ in extents]
        lens = [ln for _, ln in extents]
        total = sum(lens)
        out_a = np.full(pos + total + 3, 0xAB, dtype=np.uint8)
        out_b = out_a.copy()
        short, secs = ha.preadv_blocks(np.array(offs, dtype=np.int64),
                                       np.array(lens, dtype=np.int64),
                                       out_a, pos)
        assert short == loop_read(hb, offs, lens, out_b, pos)
        assert np.array_equal(out_a, out_b)
        assert_same_stats(fa, fb)
        assert fa.stats.n_reads == len(extents)
        assert secs == pytest.approx(fa.stats.sim_time, rel=1e-12,
                                     abs=1e-300)

    @settings(max_examples=50, deadline=None)
    @given(size=st.integers(0, 300), extents=extent_lists,
           pos=st.integers(0, 5))
    def test_write_matches_per_extent_calls(self, twins, kind, size,
                                            extents, pos):
        ha, fa, hb, fb = seeded_twins(twins, kind, size)
        offs = [o for o, _ in extents]
        lens = [ln for _, ln in extents]
        data = fill_pattern(pos + sum(lens), 9)
        n, secs = ha.pwritev_blocks(offs, lens, data, pos)
        assert n == loop_write(hb, offs, lens, data, pos) == sum(lens)
        assert_same_stats(fa, fb)
        assert fa.stats.n_writes == len(extents)
        assert secs == pytest.approx(fa.stats.sim_time, rel=1e-12,
                                     abs=1e-300)
        assert np.array_equal(fa.contents(), fb.contents())


@pytest.mark.parametrize("kind", BACKENDS)
class TestVectoredEdges:
    def test_empty_list(self, twins, kind):
        ha, fa, _hb, _fb = seeded_twins(twins, kind, 10)
        out = np.full(4, 7, dtype=np.uint8)
        assert ha.preadv_blocks([], [], out) == (None, 0.0)
        assert ha.pwritev_blocks([], [], out) == (0, 0.0)
        assert (out == 7).all()
        s = fa.stats.snapshot()
        assert s["n_reads"] == s["n_writes"] == 0
        assert s["sim_time"] == 0.0

    def test_zero_length_extents(self, twins, kind):
        ha, fa, _hb, _fb = seeded_twins(twins, kind, 10)
        out = np.full(4, 7, dtype=np.uint8)
        # Zero-length extents are counted calls that move no bytes,
        # past end-of-file too, and are never short.
        assert ha.preadv_blocks([3, 500], [0, 0], out)[0] is None
        assert ha.preadv_blocks([2, 600, 5], [2, 0, 2], out)[0] is None
        assert out.tolist() == fill_pattern(10, 5)[[2, 3, 5, 6]].tolist()
        assert fa.stats.n_reads == 5
        assert fa.stats.bytes_read == 4

    def test_short_reads_zero_fill_and_report_the_first(self, twins, kind):
        # Sharded (2 shards x 32 B stripes): extent 1 is short on shard
        # 1, extent 2 on shard 0 — the earlier one must win.
        ha, _fa, _hb, _fb = seeded_twins(twins, kind, 40)
        out = np.full(30, 7, dtype=np.uint8)
        short, _ = ha.preadv_blocks([0, 36, 64, 10], [10, 8, 5, 7], out)
        assert short == (1, 4)
        want = np.concatenate([fill_pattern(40, 5)[:10],
                               fill_pattern(40, 5)[36:40],
                               np.zeros(9, np.uint8),
                               fill_pattern(40, 5)[10:17]])
        assert np.array_equal(out, want)

    def test_negative_offset_rejected(self, twins, kind):
        ha, fa, _hb, _fb = seeded_twins(twins, kind, 10)
        out = np.zeros(8, dtype=np.uint8)
        with pytest.raises(FileSystemError, match="invalid read offset -3"):
            ha.preadv_blocks([0, -3], [4, 4], out)
        with pytest.raises(FileSystemError,
                           match="invalid write offset -3"):
            ha.pwritev_blocks([0, -3], [4, 4], out)
        assert fa.stats.n_reads == fa.stats.n_writes == 0

    def test_malformed_lists_rejected(self, twins, kind):
        ha, _fa, _hb, _fb = seeded_twins(twins, kind, 10)
        out = np.zeros(8, dtype=np.uint8)
        with pytest.raises(FileSystemError, match="2 offsets but 1"):
            ha.preadv_blocks([0, 4], [4], out)
        with pytest.raises(FileSystemError, match="negative read length"):
            ha.preadv_blocks([0], [-1], out)
        with pytest.raises(FileSystemError, match="overruns"):
            ha.pwritev_blocks([0, 8], [4, 4], out, pos=2)


def strict_read_plan(strict):
    """Direct read of file blocks [0,4) + [8,12) into data [0,8)."""
    blocks = Blocks(np.array([0, 8], dtype=np.int64),
                    np.array([4, 4], dtype=np.int64))
    op = FileReadOp(0, 12, "direct", (Piece(STAGE, 0, 8, blocks),),
                    strict=strict)
    return IOPlan("read-independent", 0, 8, (op,), slots={STAGE: (0, 8)})


@pytest.mark.parametrize("kind", BACKENDS)
class TestExecutorShortReads:
    """The direct-read contract the executor keeps on the vectored
    path: strict → today's error message (plan offsets, untranslated),
    otherwise the unread tail is zero-filled."""

    def test_strict_short_read_raises(self, twins, kind):
        ha, _fa, _hb, _fb = seeded_twins(twins, kind, 10)
        ex = PlanExecutor(ha)
        with pytest.raises(IOEngineError,
                           match=r"^short read: 2 of 4 bytes at 8$"):
            ex.run(strict_read_plan(True))

    def test_strict_short_read_reports_plan_offsets(self, twins, kind):
        ha, _fa, _hb, _fb = seeded_twins(twins, kind, 110)
        ex = PlanExecutor(ha)
        with pytest.raises(IOEngineError,
                           match=r"^short read: 2 of 4 bytes at 8$"):
            ex.run(strict_read_plan(True), file_delta=100)

    def test_non_strict_short_read_zero_fills(self, twins, kind):
        ha, fa, _hb, _fb = seeded_twins(twins, kind, 10)
        ex = PlanExecutor(ha)
        bufs = ex.run(strict_read_plan(False))
        want = fill_pattern(10, 5)
        assert bufs[STAGE].arr.tolist() == (
            want[:4].tolist() + want[8:10].tolist() + [0, 0])
        assert ex.stats.executed_file_reads == 2
        assert fa.stats.n_reads == 2


class TestSieveWindow:
    """``read_window`` fills a window once: the bytes before EOF come
    from the file, and only the tail past EOF is zeroed."""

    @pytest.mark.parametrize("kind", ["sim", "os"])
    def test_window_straddling_eof(self, twins, monkeypatch, kind):
        from repro.io import sieving

        class DirtyNumpy:
            """``np`` for the sieving module, with ``empty`` returning
            garbage so a window that is not fully written shows."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(shape, dtype=float):
                return np.full(shape, 0xAB, dtype=dtype)

        monkeypatch.setattr(sieving, "np", DirtyNumpy())
        (f, _), _ = twins(kind)
        data = fill_pattern(100, seed=9)
        f.pwrite(0, data)
        reads = f.stats.n_reads
        fb = sieving.read_window(f, 60, 160)
        assert fb.size == 100
        assert (fb[:40] == data[60:]).all()
        assert (fb[40:] == 0).all()
        assert f.stats.n_reads == reads + 1
        assert (sieving.read_window(f, 120, 130) == 0).all()
