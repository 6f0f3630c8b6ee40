"""The round-based aggregation layer: partitioning, schedule, bounds.

Unit-level properties of ``repro.io.aggregation`` (exact cover of the
pluggable file-domain partitioners, empty-domain handling in the round
schedule) plus end-to-end guarantees of the driver: byte-identity of
round-based against one-shot staging for every alignment strategy and
engine, and the O(cb_buffer_size x APs) bound on IOP staging memory
that the rounds exist to enforce.  The end-to-end runs use
:func:`~repro.fs.unmapped.unmapped` file systems: on a ``SimFile`` a
collective is mapped (one barrier, one copy) and runs no rounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import datatypes as dt
from repro.fs import SimFileSystem, StripingConfig
from repro.fs.unmapped import unmapped
from repro.intervals import floor_to, split_even
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.aggregation import (
    RoundSchedule,
    domain_skew,
    partition_domains_aligned,
    snap_to_blocks,
)
from repro.io.hints import DOMAIN_ALIGNMENTS, Hints
from repro.mpi import run_spmd
from repro.mpi.cost_model import choose_domain_align

ENGINES = ["list_based", "listless"]


# ----------------------------------------------------------------------
# Partitioning strategies: exact cover, no overlap
# ----------------------------------------------------------------------
class TestPartitionAligned:
    @given(
        lo=st.integers(0, 1 << 20),
        size=st.integers(0, 1 << 20),
        niops=st.integers(1, 9),
        align=st.sampled_from(DOMAIN_ALIGNMENTS),
        stripe=st.integers(1, 1 << 16),
        geoms=st.lists(
            st.tuples(st.integers(0, 4096), st.integers(0, 8192)),
            max_size=5,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_cover_no_overlap(self, lo, size, niops, align,
                                    stripe, geoms):
        """Every strategy tiles [lo, hi) exactly: contiguous,
        monotone, no overlap, whatever the snapping inputs."""
        hi = lo + size
        domains = partition_domains_aligned(
            lo, hi, niops, align, stripe_size=stripe, geoms=geoms
        )
        assert len(domains) == niops
        assert domains[0][0] == lo
        assert domains[-1][1] == hi
        for (dlo, dhi), (nlo, _nhi) in zip(domains, domains[1:]):
            assert dlo <= dhi
            assert dhi == nlo  # contiguous: no gap, no overlap
        assert sum(dhi - dlo for dlo, dhi in domains) == size

    def test_even_matches_two_phase(self):
        assert partition_domains_aligned(0, 100, 3) == \
            split_even(0, 100, 3)

    def test_stripe_snaps_boundaries(self):
        domains = partition_domains_aligned(
            0, 40960, 4, "stripe", stripe_size=4096
        )
        for _dlo, dhi in domains[:-1]:
            assert dhi % 4096 == 0
        assert domains[-1][1] == 40960

    def test_block_snaps_to_view_edges(self):
        # One view: disp=8, extent=1000 -> edges 8, 1008, 2008, ...
        domains = partition_domains_aligned(
            0, 4000, 4, "block", geoms=[(8, 1000)]
        )
        for _dlo, dhi in domains[:-1]:
            assert (dhi - 8) % 1000 == 0
        assert domains[-1][1] == 4000

    def test_snap_helpers(self):
        assert floor_to(4097, 4096) == 4096
        assert floor_to(4096, 4096) == 4096
        assert snap_to_blocks(2500, [(8, 1000), (0, 300)]) == 2400
        assert snap_to_blocks(5, [(8, 1000)]) is None
        assert snap_to_blocks(5, [(0, 0)]) is None

    def test_domain_skew(self):
        assert domain_skew([]) == 0
        assert domain_skew([(0, 10), (10, 20)]) == 0
        assert domain_skew([(0, 4), (4, 20)]) == 12


class TestChooseDomainAlign:
    def test_single_iop_even(self):
        assert choose_domain_align(
            total_bytes=1 << 20, niops=1, ndisks=8,
            stripe_size=4096, max_ft_extent=1024,
        ) == "even"

    def test_striped_file_prefers_stripe(self):
        assert choose_domain_align(
            total_bytes=1 << 20, niops=4, ndisks=8,
            stripe_size=4096, max_ft_extent=0,
        ) == "stripe"

    def test_large_extent_prefers_block(self):
        assert choose_domain_align(
            total_bytes=1 << 20, niops=4, ndisks=1,
            stripe_size=1, max_ft_extent=4096,
        ) == "block"

    def test_small_access_falls_back_even(self):
        assert choose_domain_align(
            total_bytes=64, niops=4, ndisks=8,
            stripe_size=4096, max_ft_extent=4096,
        ) == "even"


# ----------------------------------------------------------------------
# Round schedule: empty domains sit out uniformly
# ----------------------------------------------------------------------
class TestRoundSchedule:
    def test_empty_domains_skipped(self):
        """A 2-byte range over 4 IOPs leaves two empty domains: they
        contribute no windows, no rounds, and never appear active."""
        domains = split_even(0, 2, 4)
        assert [dhi - dlo for dlo, dhi in domains] == [1, 1, 0, 0]
        sched = RoundSchedule(domains, cb_buffer_size=4)
        assert sched.nrounds == 1
        assert sched.window(2, 0) is None
        assert sched.window(3, 0) is None
        assert [iop for iop, _w in sched.active(0)] == [0, 1]

    def test_rank_beyond_iop_count_has_no_window(self):
        sched = RoundSchedule(split_even(0, 100, 2), 64)
        assert sched.window(5, 0) is None

    def test_nrounds_is_max_over_iops(self):
        # Domain 0: 100 B -> 2 windows at cb=64; domain 1: 10 B -> 1.
        sched = RoundSchedule([(0, 100), (100, 110)], 64)
        assert sched.nrounds == 2
        assert sched.window(1, 1) is None
        assert [iop for iop, _w in sched.active(1)] == [0]

    def test_no_domains_no_rounds(self):
        sched = RoundSchedule([], 64)
        assert sched.nrounds == 0


# ----------------------------------------------------------------------
# End-to-end: byte-identity and the staging bound
# ----------------------------------------------------------------------
NP = 4
BLOCK = 512
NBLOCKS = 32
PER_RANK = BLOCK * NBLOCKS
TOTAL = NP * PER_RANK


def _collective_run(engine, hints, *, preset=None):
    """One interleaved collective write+read on NP ranks.

    Returns (file contents, per-rank read buffers, per-rank stats).
    When ``preset`` is given the file starts with those bytes and the
    write phase is skipped (pure-read identity).
    """
    fs = unmapped(SimFileSystem())
    f = fs.create(
        "/f", striping=StripingConfig(ndisks=2, stripe_size=2048)
    )
    f.truncate(TOTAL)
    if preset is not None:
        f.pwrite(0, preset)

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine, hints=hints)
        ft = dt.vector(NBLOCKS, BLOCK, NP * BLOCK, dt.BYTE)
        fh.set_view(comm.rank * BLOCK, dt.BYTE, ft)
        rng = np.random.default_rng(comm.rank)
        wbuf = rng.integers(0, 256, PER_RANK, dtype=np.uint8)
        if preset is None:
            fh.write_at_all(0, wbuf)
        rbuf = np.zeros(PER_RANK, dtype=np.uint8)
        fh.read_at_all(0, rbuf)
        st = fh.engine.stats
        out = {
            "rbuf": rbuf,
            "peak_staging": st.plan.peak_staging_bytes,
            "rounds": st.coll_rounds,
            "pipelined_ops": st.plan.pipelined_file_ops,
            "idle_synced": st.plan.rounds_idle_synced,
        }
        fh.close()
        return out

    rows = run_spmd(NP, worker)
    return fs.lookup("/f").contents().copy(), rows


ONE_SHOT = Hints(cb_buffer_size=4 * TOTAL)
ROUND = Hints(cb_buffer_size=2048)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("align", [None, *DOMAIN_ALIGNMENTS])
def test_round_based_matches_one_shot(engine, align):
    """Small-window rounds must produce the same file bytes and the
    same read-back as a single whole-domain window, for every
    partitioning strategy (None = cost-model choice)."""
    one = ONE_SHOT.with_(cb_domain_align=align)
    rnd = ROUND.with_(cb_domain_align=align)
    data_one, rows_one = _collective_run(engine, one)
    data_rnd, rows_rnd = _collective_run(engine, rnd)
    assert np.array_equal(data_one, data_rnd)
    for a, b in zip(rows_one, rows_rnd):
        assert np.array_equal(a["rbuf"], b["rbuf"])
    assert rows_rnd[0]["rounds"] > rows_one[0]["rounds"]


@pytest.mark.parametrize("engine", ENGINES)
def test_strategies_byte_identical(engine):
    """All three alignment strategies write identical file contents."""
    images = [
        _collective_run(engine, ROUND.with_(cb_domain_align=a))[0]
        for a in DOMAIN_ALIGNMENTS
    ]
    for img in images[1:]:
        assert np.array_equal(images[0], img)


@pytest.mark.parametrize("engine", ENGINES)
def test_pure_read_identity(engine):
    """Round-based reads return the preset file bytes exactly."""
    rng = np.random.default_rng(99)
    preset = rng.integers(0, 256, TOTAL, dtype=np.uint8)
    _data, rows = _collective_run(engine, ROUND, preset=preset)
    for rank, row in enumerate(rows):
        expect = np.concatenate([
            preset[i * NP * BLOCK + rank * BLOCK:][:BLOCK]
            for i in range(NBLOCKS)
        ])
        assert np.array_equal(row["rbuf"], expect)


@pytest.mark.parametrize("engine", ENGINES)
def test_iop_staging_bounded_by_window(engine):
    """The refactor's memory guarantee: with cb_buffer_size windows an
    IOP stages at most O(cb x participating APs) bytes at any moment,
    while the one-shot configuration stages whole accesses."""
    cb = ROUND.cb_buffer_size
    _data, rows = _collective_run(engine, ROUND)
    peak_rnd = max(r["peak_staging"] for r in rows)
    assert peak_rnd <= NP * cb, (peak_rnd, NP * cb)

    _data, rows = _collective_run(engine, ONE_SHOT)
    peak_one = max(r["peak_staging"] for r in rows)
    assert peak_one >= PER_RANK, (peak_one, PER_RANK)
    assert peak_rnd < peak_one


def test_cost_model_uniform_across_ranks():
    """Unset cb_domain_align must resolve identically on every rank
    (the chosen strategy is a pure function of allgathered inputs) —
    asserted indirectly: the run completes and round counts agree."""
    _data, rows = _collective_run("listless", ROUND)
    assert len({r["rounds"] for r in rows}) == 1


# ----------------------------------------------------------------------
# Pipelined rounds: overlap without changing a single byte
# ----------------------------------------------------------------------
SERIAL = ROUND.with_(cb_pipeline="off")
PIPED = ROUND.with_(cb_pipeline="on")


class TestPipelinedRounds:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("align", [None, *DOMAIN_ALIGNMENTS])
    def test_pipelined_matches_serial_and_one_shot(self, engine, align):
        """The tentpole's correctness bar: one-shot, serial rounds and
        pipelined rounds produce identical file bytes and read-backs for
        every partitioning strategy and engine."""
        imgs, reads = [], []
        for hints in (ONE_SHOT, SERIAL, PIPED):
            data, rows = _collective_run(
                engine, hints.with_(cb_domain_align=align)
            )
            imgs.append(data)
            reads.append([r["rbuf"] for r in rows])
        for img in imgs[1:]:
            assert np.array_equal(imgs[0], img)
        for rbufs in reads[1:]:
            for a, b in zip(reads[0], rbufs):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pipelined_keeps_staging_bound(self, engine):
        """Publication-at-drain keeps the live staging table identical
        to serial rounds — the O(cb x APs) bound must survive the
        pipeline (the in-flight window is tracked separately)."""
        cb = PIPED.cb_buffer_size
        _data, rows = _collective_run(engine, PIPED)
        assert max(r["peak_staging"] for r in rows) <= NP * cb
        assert any(r["pipelined_ops"] > 0 for r in rows)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pipelined_never_idle_syncs(self, engine):
        """Relaxed p2p synchronization: no rank ever blocks in a round
        it moves no bytes in."""
        _data, rows = _collective_run(engine, PIPED)
        assert all(r["idle_synced"] == 0 for r in rows)

    def test_auto_engages_on_multi_round(self):
        """cb_pipeline=auto (the default) pipelines once there is more
        than one round to overlap, and stays serial one-shot."""
        _data, rows = _collective_run("listless", ROUND)  # auto
        assert all(r["pipelined_ops"] > 0 for r in rows)
        _data, rows = _collective_run("listless", ONE_SHOT)  # 1 round
        assert all(r["pipelined_ops"] == 0 for r in rows)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pipelined_rmw_rounds_match_serial(self, engine):
        """Sparse writes leave uncovered window bytes -> rmw rounds,
        which must stay on the ordered synchronous path while covered
        rounds pipeline.  Gap bytes keep their preset contents."""
        rng = np.random.default_rng(3)
        preset = rng.integers(0, 256, TOTAL, dtype=np.uint8)
        images = []
        for hints in (SERIAL, PIPED):
            fs = unmapped(SimFileSystem())
            f = fs.create("/f")
            f.truncate(TOTAL)
            f.pwrite(0, preset)

            def worker(comm, hints=hints):
                fh = File.open(comm, fs, "/f", MODE_RDWR,
                               engine=engine, hints=hints)
                # Half-filled blocks: every window keeps gap bytes.
                ft = dt.vector(NBLOCKS, BLOCK // 2, NP * BLOCK, dt.BYTE)
                fh.set_view(comm.rank * BLOCK, dt.BYTE, ft)
                wbuf = np.full(NBLOCKS * BLOCK // 2, comm.rank + 1,
                               dtype=np.uint8)
                fh.write_at_all(0, wbuf)
                fh.close()

            run_spmd(NP, worker)
            images.append(fs.lookup("/f").contents().copy())
        assert np.array_equal(images[0], images[1])
        # Gap bytes (second half of each rank's block) kept the preset.
        img = images[1].reshape(-1, BLOCK)
        assert np.array_equal(img[:, BLOCK // 2:].ravel(),
                              preset.reshape(-1, BLOCK)[:, BLOCK // 2:]
                              .ravel())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pipelined_back_to_back_write_ordering(self, engine):
        """Two successive collective writes to the same region: the
        first run's pipeline must fully land before the second run's
        bytes (the plan's final drain closes the worker per run)."""
        images = []
        for hints in (SERIAL, PIPED):
            fs = unmapped(SimFileSystem())
            f = fs.create("/f")
            f.truncate(TOTAL)

            def worker(comm, hints=hints):
                fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                               engine=engine, hints=hints)
                ft = dt.vector(NBLOCKS, BLOCK, NP * BLOCK, dt.BYTE)
                fh.set_view(comm.rank * BLOCK, dt.BYTE, ft)
                fh.write_at_all(
                    0, np.full(PER_RANK, 101, dtype=np.uint8))
                fh.write_at_all(
                    0, np.full(PER_RANK, comm.rank + 1, dtype=np.uint8))
                fh.close()

            run_spmd(NP, worker)
            images.append(fs.lookup("/f").contents().copy())
        assert np.array_equal(images[0], images[1])
        assert not (images[1] == 101).any()  # second write won

    def test_skewed_access_serial_syncs_idle_p2p_does_not(self):
        """A single-IOP collective where ranks 1..3 only touch the
        first window: serial alltoall synchronizes them through every
        remaining round, the relaxed p2p exchange lets them leave."""
        outs = {}
        for mode in ("off", "on"):
            fs = unmapped(SimFileSystem())
            fs.create("/f").truncate(8192)
            hints = Hints(cb_buffer_size=1024, cb_nodes=1,
                          cb_pipeline=mode)

            def worker(comm, hints=hints):
                fh = File.open(comm, fs, "/f", MODE_RDWR,
                               engine="listless", hints=hints)
                r = comm.rank
                if r == 0:
                    fh.write_at_all(
                        256, np.full(4096 - 256, 9, dtype=np.uint8))
                else:
                    fh.write_at_all(
                        64 * r, np.full(64, r, dtype=np.uint8))
                st = fh.engine.stats
                out = (st.plan.rounds_idle_synced, st.coll_rounds)
                fh.close()
                return out

            outs[mode] = (run_spmd(NP, worker),
                          fs.lookup("/f").contents().copy())
        (rows_off, img_off), (rows_on, img_on) = \
            outs["off"], outs["on"]
        assert np.array_equal(img_off, img_on)
        nrounds = rows_off[0][1]
        assert nrounds > 1
        # Ranks 1..3 are active only in round 0 under serial alltoall.
        assert all(idle == nrounds - 1 for idle, _n in rows_off[1:])
        assert all(idle == 0 for idle, _n in rows_on)
