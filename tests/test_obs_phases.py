"""Phase accounting: the Table-3-style overhead decomposition."""

import time

import numpy as np
import pytest

from repro import datatypes as dt
from repro.fs import SimFileSystem
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.mpi import run_spmd
from repro.obs.phases import (
    BUCKETS,
    ROUND_LOG_CAP,
    PhaseAccumulator,
    RoundLog,
    format_phase_table,
)

FT = dt.vector(64, 8, 16, dt.BYTE)


class TestAccumulator:
    def test_add_and_total(self):
        acc = PhaseAccumulator()
        acc.add("plan", 0.25)
        acc.add("pack", 0.5)
        acc.add("plan", 0.25)
        assert acc.plan == 0.5
        assert acc.total == 1.0

    def test_unknown_bucket_rejected(self):
        with pytest.raises(AttributeError):
            PhaseAccumulator().add("warp_drive", 1.0)

    def test_timed_context_manager(self):
        acc = PhaseAccumulator()
        with acc.timed("file_io"):
            time.sleep(0.002)
        assert acc.file_io >= 0.001
        assert acc.total == acc.file_io

    def test_snapshot_keys_sorted_and_prefixed(self):
        snap = PhaseAccumulator().snapshot()
        assert list(snap) == sorted(f"phase_{b}" for b in BUCKETS)
        assert all(v == 0.0 for v in snap.values())

    def test_reset_merge_sum(self):
        a, b = PhaseAccumulator(), PhaseAccumulator()
        a.add("lock", 1.0)
        b.add("lock", 2.0)
        b.add("sync", 3.0)
        s = PhaseAccumulator.sum([a, b])
        assert s.lock == 3.0 and s.sync == 3.0
        a.reset()
        assert a.total == 0.0


class TestRoundLog:
    def test_keeps_newest_rows_up_to_cap(self):
        log = RoundLog()
        n = ROUND_LOG_CAP + 5
        for i in range(n):
            log.add(i, n, 0.001, 0.0, 0.0)
        assert len(log) == ROUND_LOG_CAP
        snap = log.snapshot()
        assert [r["index"] for r in snap] == list(range(5, n))


def run_access(engine, collective, nreps=2, nprocs=2, fs=None):
    """Per-rank (phase snapshot, access wall seconds) for write accesses.

    Phases are reset after set_view so only the accesses themselves are
    decomposed (view setup is traced, not bucketed).  Collectives run
    two-phase, on an :func:`~repro.fs.unmapped.unmapped` file system,
    unless ``fs`` is given.
    """
    if fs is None:
        fs = unmapped(SimFileSystem()) if collective else SimFileSystem()
    out = [None] * nprocs

    def worker(comm):
        r = comm.rank
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        fh.set_view(r * 8, dt.BYTE, FT)
        buf = np.full(FT.size, r, dtype=np.uint8)
        fh.engine.stats.phases.reset()
        t0 = time.perf_counter()
        for rep in range(nreps):
            if collective:
                fh.write_at_all(rep * FT.size, buf)
            else:
                fh.write_at(rep * FT.size, buf)
        wall = time.perf_counter() - t0
        out[r] = (fh.engine.stats.phases.snapshot(), wall)
        fh.close()

    run_spmd(nprocs, worker)
    return out


class TestEngineDecomposition:
    @pytest.mark.parametrize("engine", ["list_based", "listless"])
    def test_collective_write_buckets_sum_to_wall(self, engine):
        """The buckets partition the access: their sum is positive and
        bounded by the measured wall time (tolerant upper bound — the
        clock reads themselves add a little)."""
        for snap, wall in run_access(engine, collective=True):
            total = sum(snap.values())
            assert total > 0.0
            assert total <= wall * 1.25, (total, wall, snap)

    @pytest.mark.parametrize("engine", ["list_based", "listless"])
    def test_collective_write_touches_expected_buckets(self, engine):
        for snap, _wall in run_access(engine, collective=True):
            assert snap["phase_plan"] > 0.0
            assert snap["phase_exchange"] > 0.0
            assert snap["phase_sync"] > 0.0
            assert snap["phase_file_io"] > 0.0

    @pytest.mark.parametrize("engine", ["list_based", "listless"])
    def test_mapped_collective_buckets(self, engine):
        """A mapped collective (on a ``SimFile``) is a barrier and a
        copy: its barrier bills ``sync``, its copy ``pack`` (write) or
        ``unpack`` (read), and it exchanges nothing."""
        fs = SimFileSystem()
        for snap, _wall in run_access(engine, collective=True, fs=fs):
            assert snap["phase_sync"] > 0.0
            assert snap["phase_pack"] > 0.0
            assert snap["phase_exchange"] == 0.0

        def reader(comm):
            fh = File.open(comm, fs, "/f", MODE_RDWR, engine=engine)
            fh.set_view(comm.rank * 8, dt.BYTE, FT)
            fh.engine.stats.phases.reset()
            fh.read_at_all(0, np.zeros(FT.size, dtype=np.uint8))
            snap = fh.engine.stats.phases.snapshot()
            fh.close()
            return snap

        for snap in run_spmd(2, reader):
            assert snap["phase_sync"] > 0.0
            assert snap["phase_unpack"] > 0.0
            assert snap["phase_exchange"] == 0.0

    @pytest.mark.parametrize("engine", ["list_based", "listless"])
    def test_independent_write_has_no_exchange(self, engine):
        for snap, _wall in run_access(engine, collective=False):
            assert snap["phase_exchange"] == 0.0
            assert snap["phase_sync"] == 0.0
            assert snap["phase_plan"] > 0.0
            assert snap["phase_file_io"] > 0.0

    def test_btio_result_carries_phases(self):
        from repro.bench import BTIOConfig, run_btio

        r = run_btio("listless",
                     BTIOConfig(cls="S", nprocs=4, nsteps=1))
        assert len(r.phases_by_rank) == 4
        assert set(r.phases) == set(r.phases_by_rank[0])
        assert sum(r.phases.values()) > 0.0
        for k, v in r.phases.items():
            assert v == pytest.approx(
                sum(row[k] for row in r.phases_by_rank)
            )


class TestPipelinedAttribution:
    """The ``pipeline_io`` bucket: offloaded window I/O is attributed to
    its own bucket, and on the simulated executor those seconds are
    *moved* out of ``file_io`` so the bucket sum still bounds wall."""

    @pytest.mark.parametrize("engine", ["list_based", "listless"])
    def test_pipeline_io_bucket_and_wall_bound(self, engine):
        from repro.io.hints import Hints
        from repro.mpi import run_spmd as _run_spmd

        fs = unmapped(SimFileSystem())
        out = [None, None]
        hints = Hints(cb_buffer_size=64, cb_pipeline="on")

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine, hints=hints)
            fh.set_view(comm.rank * 8, dt.BYTE, FT)
            buf = np.full(FT.size, comm.rank + 1, dtype=np.uint8)
            fh.engine.stats.phases.reset()
            t0 = time.perf_counter()
            for rep in range(2):
                fh.write_at_all(rep * FT.size, buf)
            wall = time.perf_counter() - t0
            out[comm.rank] = (fh.engine.stats.phases.snapshot(), wall)
            fh.close()

        _run_spmd(2, worker)
        for snap, wall in out:
            assert snap["phase_pipeline_io"] > 0.0
            assert snap["phase_file_io"] >= 0.0
            assert sum(snap.values()) <= wall * 1.25, (snap, wall)


class TestPhaseTable:
    def test_format_contains_buckets_and_total(self):
        a = PhaseAccumulator()
        a.add("plan", 0.010)
        a.add("file_io", 0.030)
        out = format_phase_table([("listless", a.snapshot())])
        for b in BUCKETS:
            assert b in out
        assert "total" in out
        assert "listless [ms]" in out
        assert "10.000" in out and "30.000" in out
        assert "75.0" in out  # file_io share of the 40 ms total

    def test_bare_bucket_keys_accepted(self):
        out = format_phase_table([("x", {"plan": 0.001})])
        assert "1.000" in out

    def test_totals_override_denominator(self):
        a = PhaseAccumulator()
        a.add("plan", 0.010)
        out = format_phase_table([("x", a.snapshot())],
                                 totals={"x": 0.100})
        assert "10.0" in out  # 10 ms of a 100 ms wall
