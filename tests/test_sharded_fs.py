"""The striped multi-server backend (``repro.fs.sharded``).

Three layers of pinning:

* the shard mapper's arithmetic (offset round-trips, exact extent
  cover, size inversion) under hypothesis — the geometry every wire
  request depends on;
* the :class:`ShardedFile` / :class:`ShardedFileSystem` surfaces —
  round trips, sparse files, truncation, pickling across processes;
* the lock-scaling regression the paper's PVFS comparison motivates:
  sieved read-modify-write against N shards must take *per-shard*
  ranges on the owning servers only, and concurrent writers racing at
  stripe boundaries must never lose bytes.
"""

import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import datatypes as dt
from repro.fs import (
    ShardedFileSystem,
    SimFileSystem,
    StripingConfig,
    global_size,
    local_size,
    split_blocks,
    to_global,
    to_local,
)
from repro.intervals import floor_to
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.hints import Hints
from repro.mpi.runtime import Runtime

# ----------------------------------------------------------------------
# Shard-mapper properties
# ----------------------------------------------------------------------

geom = st.tuples(
    st.integers(min_value=0, max_value=1 << 20),   # offset
    st.integers(min_value=0, max_value=4096),      # nbytes
    st.integers(min_value=1, max_value=512),       # stripe_size
    st.integers(min_value=1, max_value=8),         # ndisks
)


def _extents(per_shard):
    """``split_blocks`` output as ``(shard, local_off, len, data_off)``."""
    return [(k, lo, ln, d) for k, arrs in sorted(per_shard.items())
            for lo, ln, d in zip(*(a.tolist() for a in arrs))]


class TestShardMapper:
    @settings(max_examples=200, deadline=None)
    @given(geom)
    def test_offset_round_trip(self, g):
        off, _n, ss, nd = g
        k, loc = to_local(off, ss, nd)
        assert 0 <= k < nd
        assert to_global(k, loc, ss, nd) == off

    @settings(max_examples=200, deadline=None)
    @given(geom)
    def test_split_blocks_one_block_covers_exactly(self, g):
        off, n, ss, nd = g
        parts = sorted(_extents(split_blocks([off], [n], ss, nd)),
                       key=lambda p: p[3])
        # data offsets tile [0, n) in order, without gaps or overlap
        pos = 0
        for k, lo, ln, doff in parts:
            assert 0 <= k < nd and ln > 0
            assert doff == pos
            pos += ln
            # every extent stays inside one stripe of its shard
            assert lo // ss == (lo + ln - 1) // ss
            # and maps back to exactly its global bytes
            assert to_global(k, lo, ss, nd) == off + doff
        assert pos == n

    @settings(max_examples=200, deadline=None)
    @given(geom)
    def test_sizes_invert(self, g):
        gsize, _n, ss, nd = g
        sizes = [local_size(k, gsize, ss, nd) for k in range(nd)]
        assert sum(sizes) == gsize
        assert global_size(sizes, ss, nd) == gsize

    @settings(max_examples=200, deadline=None)
    @given(geom)
    def test_local_size_counts_mapped_bytes(self, g):
        gsize, _n, ss, nd = g
        per = split_blocks([0], [gsize], ss, nd)
        for k in range(nd):
            mapped = int(per[k][1].sum()) if k in per else 0
            assert mapped == local_size(k, gsize, ss, nd)

    @settings(max_examples=100, deadline=None)
    @given(geom)
    def test_matches_striping_config(self, g):
        off, n, ss, nd = g
        cfg = StripingConfig(ndisks=nd, stripe_size=ss)
        # the stripe floor names the stripe to_local assigns the offset to
        stripe = floor_to(off, ss) // ss
        k, loc = to_local(off, ss, nd)
        assert stripe % nd == k
        # an extent touches exactly the shards split_blocks names,
        # bounded by the device model's stream count
        shards = set(split_blocks([off], [n], ss, nd))
        if n:
            assert len(shards) <= cfg.streams_for(off, n)

    def test_degenerate_pins(self):
        # zero-length access maps to nothing
        assert split_blocks([123], [0], 64, 4) == {}
        assert split_blocks(np.array([5], dtype=np.int64),
                            np.array([0], dtype=np.int64), 16, 2) == {}
        # access inside one stripe stays one extent on one shard
        assert _extents(split_blocks([130], [20], 64, 4)) == [(2, 2, 20, 0)]
        # stripe_size=1 interleaves byte by byte
        parts = sorted(_extents(split_blocks([0], [6], 1, 3)),
                       key=lambda p: p[3])
        assert [(k, lo) for k, lo, _ln, _d in parts] == [
            (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)
        ]
        assert all(ln == 1 for _k, _lo, ln, _d in parts)
        # sizes: empty file, single byte
        assert global_size([0, 0], 16, 2) == 0
        assert global_size([1, 0], 16, 2) == 1
        assert local_size(0, 1, 16, 2) == 1
        assert local_size(1, 1, 16, 2) == 0


# ----------------------------------------------------------------------
# File/namespace surface
# ----------------------------------------------------------------------

@pytest.fixture
def sharded_fs(tmp_path):
    fs = ShardedFileSystem(str(tmp_path / "store"), nshards=3,
                           stripe_size=16)
    yield fs
    fs.close()


class TestShardedSurface:
    def test_round_trip_and_size(self, sharded_fs):
        f = sharded_fs.create("f.dat")
        data = np.arange(200, dtype=np.uint8)
        assert f.pwrite(0, data) == 200
        assert f.size == 200
        assert np.array_equal(f.pread(0, 200), data)
        assert np.array_equal(f.pread(7, 150), data[7:157])

    def test_sparse_and_truncate(self, sharded_fs):
        f = sharded_fs.create("s.dat")
        f.pwrite(500, np.full(10, 7, dtype=np.uint8))
        assert f.size == 510
        c = f.contents()
        assert (c[:500] == 0).all() and (c[500:] == 7).all()
        f.truncate(100)
        assert f.size == 100
        f.truncate(0)
        assert f.size == 0

    def test_read_past_eof_zero_fills(self, sharded_fs):
        f = sharded_fs.create("e.dat")
        f.pwrite(0, np.full(10, 3, dtype=np.uint8))
        out = np.full(64, 9, dtype=np.uint8)
        got = f.pread_into(0, out)
        assert got == 10
        assert (out[:10] == 3).all() and (out[10:] == 0).all()

    def test_namespace(self, sharded_fs):
        sharded_fs.create("/a")
        sharded_fs.create("/b")
        assert sorted(sharded_fs.listdir()) == ["/a", "/b"]
        assert sharded_fs.exists("/a")
        sharded_fs.unlink("/a")
        assert not sharded_fs.exists("/a")
        assert sharded_fs.listdir() == ["/b"]

    def test_wire_accounting(self, sharded_fs):
        f = sharded_fs.create("w.dat")
        f.pwrite(0, np.zeros(48, dtype=np.uint8))  # 3 shards, 16 each
        tot = f.wire_totals()
        assert tot["requests"] == 3  # one write request per shard
        assert tot["payload_bytes"] >= 48
        per_shard = [w["payload_bytes"] for w in f.wire]
        assert sum(per_shard) >= 48

    def test_pickle_reopens_same_servers(self, sharded_fs):
        f = sharded_fs.create("p.dat")
        f.pwrite(0, np.arange(100, dtype=np.uint8))
        clone = pickle.loads(pickle.dumps(f))
        assert np.array_equal(clone.contents(), f.contents())
        clone.pwrite(100, np.arange(50, dtype=np.uint8))
        assert f.size == 150

    def test_server_introspection(self, sharded_fs):
        sharded_fs.create("i.dat").pwrite(0, np.zeros(64, dtype=np.uint8))
        for k in range(sharded_fs.nshards):
            assert sharded_fs.server_pid(k) > 0
            counters = sharded_fs.shard_counters(k)
            assert counters["requests"] > 0
        # no data op carried a round yet
        assert all(r == -1 for r in sharded_fs.shard_last_rounds())


# ----------------------------------------------------------------------
# Lock scaling + concurrent writers (paper §: per-server locking)
# ----------------------------------------------------------------------

class TestShardLockScaling:
    def test_lock_ranges_land_per_shard_only(self, sharded_fs):
        f = sharded_fs.create("l.dat")
        f.pwrite(0, np.zeros(96, dtype=np.uint8))
        # [8, 56) covers stripes 0..3: shard 0 gets local [8,16) from
        # stripe 0 plus [16,24) from stripe 3, coalesced into one range.
        f.lock_range(8, 56)
        expect = {0: [(8, 24)], 1: [(0, 16)], 2: [(0, 16)]}
        for k in range(3):
            held = sharded_fs.shard_locks_held(k, "l.dat")
            assert held["ranges"] == expect[k], (k, held)
            assert held["backing"] == expect[k], (k, held)
        f.unlock_range(8, 56)
        for k in range(3):
            held = sharded_fs.shard_locks_held(k, "l.dat")
            assert held["ranges"] == [] and held["backing"] == []

    def test_sieved_rmw_locks_scale_per_shard(self, tmp_path):
        """A sieved (rmw) write through the engine against 4 shards must
        acquire byte ranges on every involved shard server — and only
        local-coordinate ranges, never the global span."""
        fs = ShardedFileSystem(str(tmp_path / "rmw"), nshards=4,
                               stripe_size=16)
        try:
            def worker(comm, fs):
                fh = File.open(comm, fs, "/rmw.out",
                               MODE_CREATE | MODE_RDWR, engine="listless")
                # sparse view => rmw write window under lock
                fh.set_view(0, dt.BYTE, dt.vector(32, 1, 2, dt.BYTE))
                fh.write_at(0, np.full(32, 5, dtype=np.uint8))
                fh.close()

            Runtime("sim").run(1, worker, fs)
            acquires = [fs.shard_counters(k)["lock_acquires"]
                        for k in range(4)]
            lock_bytes = [fs.shard_counters(k)["lock_bytes"]
                          for k in range(4)]
            # the access extent [0, 63) spans all 4 shards: every shard
            # saw a lock, and each saw only its local share of the bytes
            assert all(a >= 1 for a in acquires), acquires
            assert sum(lock_bytes) == 63, lock_bytes
            assert all(b <= 16 for b in lock_bytes), lock_bytes
            # nothing left held
            for k in range(4):
                held = fs.shard_locks_held(k, "/rmw.out")
                assert held["ranges"] == [] and held["backing"] == []
            got = fs.lookup("/rmw.out").contents()
            assert (got[::2] == 5).all() and (got[1::2] == 0).all()
        finally:
            fs.close()

    def test_concurrent_writers_no_lost_bytes(self, tmp_path):
        """Two threads doing locked read-modify-write of interleaved
        bytes around a stripe boundary: every written byte must survive
        (the classic lost-update race the per-shard locks must close)."""
        fs = ShardedFileSystem(str(tmp_path / "race"), nshards=2,
                               stripe_size=16)
        try:
            f = fs.create("race.dat")
            f.pwrite(0, np.zeros(64, dtype=np.uint8))
            errs = []

            def rmw(which):
                try:
                    mine = pickle.loads(pickle.dumps(f))
                    for rep in range(20):
                        # each writer owns alternating bytes of [8, 40),
                        # which straddles the 16-byte stripe boundary
                        mine.lock_range(8, 40)
                        try:
                            window = mine.pread(8, 32)
                            window[which::2] = 100 + which
                            mine.pwrite(8, window)
                        finally:
                            mine.unlock_range(8, 40)
                except BaseException as exc:  # pragma: no cover
                    errs.append(exc)

            ts = [threading.Thread(target=rmw, args=(w,)) for w in (0, 1)]
            for t in ts:
                t.start()
            for t in ts:
                t.join(60)
            assert not errs, errs
            got = f.pread(8, 32)
            assert (got[0::2] == 100).all(), got
            assert (got[1::2] == 101).all(), got
        finally:
            fs.close()


# ----------------------------------------------------------------------
# Ship engagement: the hint actually reroutes the data plane
# ----------------------------------------------------------------------

class TestShipEngagement:
    @pytest.mark.parametrize("protocol", ["list", "dtype"])
    def test_collective_write_ships(self, tmp_path, protocol):
        fs = ShardedFileSystem(str(tmp_path / "ship"), nshards=2,
                               stripe_size=64)
        try:
            def worker(comm, fs):
                fh = File.open(
                    comm, fs, "/s.out", MODE_CREATE | MODE_RDWR,
                    engine="listless",
                    hints=Hints(ship_protocol=protocol),
                )
                ft = dt.resized(
                    dt.vector(6, 8, comm.size * 8, dt.BYTE),
                    0, 6 * comm.size * 8,
                )
                fh.set_view(comm.rank * 8, dt.BYTE, ft)
                buf = np.full(ft.size * 2, 1 + comm.rank, dtype=np.uint8)
                fh.write_at_all(0, buf)
                snap = {**fh.engine.stats.snapshot(),
                        **fh.engine.stats.phases.snapshot()}
                fh.close()
                return snap

            snaps = Runtime("sim").run(2, worker, fs)
            assert sum(s["ship_ops"] for s in snaps) > 0
            assert sum(s["ship_requests"] for s in snaps) > 0
            assert sum(s["ship_wire_request_bytes"] for s in snaps) > 0
            if protocol == "dtype":
                assert sum(s["ship_view_bytes"] for s in snaps) > 0
                dt_ops = sum(fs.shard_counters(k)["dt_writes"]
                             for k in range(2))
                assert dt_ops > 0
            assert sum(s["phase_ship"] for s in snaps) > 0
        finally:
            fs.close()

    def test_hint_ignored_on_plain_backend(self):
        """ship_protocol on a non-sharded backend is a silent no-op."""
        fs = SimFileSystem()

        def worker(comm, fs):
            fh = File.open(comm, fs, "/p.out", MODE_CREATE | MODE_RDWR,
                           engine="listless",
                           hints=Hints(ship_protocol="dtype"))
            fh.set_view(0, dt.BYTE, dt.vector(4, 2, 4, dt.BYTE))
            fh.write_at(0, np.full(8, 9, dtype=np.uint8))
            snap = fh.engine.stats.snapshot()
            fh.close()
            return snap

        (snap,) = Runtime("sim").run(1, worker, fs)
        assert snap["ship_ops"] == 0
        got = fs.lookup("/p.out").contents()
        assert (got[:2] == 9).all()
