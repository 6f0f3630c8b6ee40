"""Two-phase scaffolding: range aggregation and domain partitioning."""

import pytest

from repro.intervals import split_even
from repro.io.two_phase import AccessRange, aggregate_ranges
from repro.mpi import run_spmd


class TestAccessRange:
    def test_empty_detection(self):
        assert AccessRange(None, None, 0, 0).empty
        assert AccessRange(10, 10, 0, 0).empty
        assert not AccessRange(0, 10, 0, 10).empty


class TestPartitionDomains:
    def test_even_split(self):
        doms = split_even(0, 100, 4)
        assert doms == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_uneven_split_front_loads(self):
        doms = split_even(0, 10, 3)
        assert doms == [(0, 4), (4, 7), (7, 10)]
        assert doms[-1][1] == 10

    def test_single_domain(self):
        assert split_even(7, 19, 1) == [(7, 19)]

    def test_more_domains_than_bytes(self):
        doms = split_even(0, 2, 4)
        assert doms == [(0, 1), (1, 2), (2, 2), (2, 2)]
        assert sum(hi - lo for lo, hi in doms) == 2

    def test_contiguous_cover(self):
        doms = split_even(123, 4567, 7)
        assert doms[0][0] == 123
        assert doms[-1][1] == 4567
        for (a_lo, a_hi), (b_lo, b_hi) in zip(doms, doms[1:]):
            assert a_hi == b_lo


class TestAggregateRanges:
    def test_aggregation(self):
        def worker(comm):
            mine = AccessRange(
                comm.rank * 100, comm.rank * 100 + 50, 0, 50
            )
            ranges, lo, hi = aggregate_ranges(comm, mine)
            assert len(ranges) == comm.size
            assert lo == 0
            assert hi == (comm.size - 1) * 100 + 50
            return (lo, hi)

        assert run_spmd(3, worker) == [(0, 250)] * 3

    def test_empty_ranks_ignored(self):
        def worker(comm):
            if comm.rank == 1:
                mine = AccessRange(None, None, 0, 0)
            else:
                mine = AccessRange(10, 20, 0, 10)
            _ranges, lo, hi = aggregate_ranges(comm, mine)
            return (lo, hi)

        assert run_spmd(3, worker) == [(10, 20)] * 3

    def test_all_empty(self):
        def worker(comm):
            mine = AccessRange(None, None, 0, 0)
            _r, lo, hi = aggregate_ranges(comm, mine)
            return (lo, hi)

        assert run_spmd(2, worker) == [(None, None)] * 2
