"""Engine statistics: the §2.4 overheads made countable.

Collective runs use an :func:`~repro.fs.unmapped.unmapped` file system:
the per-access list expansion and exchange these counters measure are
two-phase mechanics, and a ``SimFile`` collective is mapped instead.
"""

import numpy as np
import pytest

from repro import datatypes as dt
from repro.bench.noncontig import build_noncontig_filetype
from repro.fs import SimFileSystem
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.mpi import run_spmd

P, SBLOCK, NBLOCK = 2, 8, 256
A = SBLOCK * NBLOCK


def run_and_collect(engine, collective, nreps=2, stagger=False):
    """``stagger`` offsets each access by a distinct residue of the
    filetype period, defeating the planner's replay fast path so every
    access is planned from scratch."""
    fs = unmapped(SimFileSystem()) if collective else SimFileSystem()
    stats = [None] * P

    def worker(comm):
        r = comm.rank
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        ft = build_noncontig_filetype(P, r, SBLOCK, NBLOCK)
        fh.set_view(0, dt.BYTE, ft)
        buf = np.full(A, r, dtype=np.uint8)
        write = fh.write_at_all if collective else fh.write_at
        for rep in range(nreps):
            write(rep * A + (rep if stagger else 0), buf)
        stats[r] = fh.engine.stats.snapshot()
        fh.close()

    run_spmd(P, worker)
    return stats


class TestListBasedStats:
    def test_flattening_counted_once(self):
        stats = run_and_collect("list_based", collective=False)
        for s in stats:
            # The filetype flattening (NBLOCK tuples) happens at
            # set_view; independent writes add no per-access expansions.
            # (+1 allowed: the very first open in a session flattens the
            # default BYTE view before its cache warms.)
            assert NBLOCK <= s["list_tuples_built"] <= NBLOCK + 1

    def test_navigation_scans_counted(self):
        stats = run_and_collect("list_based", collective=False)
        for s in stats:
            assert s["list_scans"] >= 2  # start+end per access

    def test_collective_expansions_counted_and_sent(self):
        stats = run_and_collect("list_based", collective=True, nreps=3)
        for s in stats:
            # Per access: ~NBLOCK tuples expanded across the IOP domains
            # (boundary splitting may add a few); 3 accesses.
            assert s["list_tuples_sent"] >= 3 * NBLOCK * 0.9
            assert s["list_tuples_built"] >= s["list_tuples_sent"]

    def test_merge_volume_counted(self):
        stats = run_and_collect("list_based", collective=True)
        total_merged = sum(s["list_tuples_merged"] for s in stats)
        assert total_merged > 0

    def test_no_ff_activity(self):
        stats = run_and_collect("list_based", collective=True)
        for s in stats:
            assert s["ff_navigations"] == 0
            assert s["ff_kernel_calls"] == 0
            assert s["ff_view_bytes_exchanged"] == 0


class TestListlessStats:
    def test_no_list_activity(self):
        for collective in (False, True):
            stats = run_and_collect("listless", collective=collective)
            for s in stats:
                assert s["list_tuples_built"] == 0
                assert s["list_tuples_sent"] == 0
                assert s["list_tuples_merged"] == 0
                assert s["list_scans"] == 0

    def test_view_exchange_once_and_small(self):
        stats = run_and_collect("listless", collective=True, nreps=4)
        for s in stats:
            # Exchanged at open (default view) + set_view; independent of
            # the number of accesses and of Nblock.
            assert 0 < s["ff_view_bytes_exchanged"] < 2048

    def test_navigations_scale_with_accesses_not_nblock(self):
        # Staggered offsets: every access has a fresh period residue,
        # so every access is actually planned (no replay).
        few = run_and_collect("listless", collective=False, nreps=1,
                              stagger=True)
        many = run_and_collect("listless", collective=False, nreps=4,
                               stagger=True)
        assert many[0]["ff_navigations"] > few[0]["ff_navigations"]

    def test_replay_keeps_navigations_flat(self):
        # Period-translated accesses replay one relocatable plan;
        # repeats add no navigations at all.
        few = run_and_collect("listless", collective=False, nreps=1)
        many = run_and_collect("listless", collective=False, nreps=4)
        assert many[0]["plan_replays"] >= 2
        assert many[0]["ff_navigations"] == few[0]["ff_navigations"]

    def test_view_exchange_independent_of_nblock(self):
        def bytes_for(nblock):
            fs = SimFileSystem()
            out = [None]

            def worker(comm):
                fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                               engine="listless")
                ft = build_noncontig_filetype(1, 0, SBLOCK, nblock)
                fh.set_view(0, dt.BYTE, ft)
                out[0] = fh.engine.stats.ff_view_bytes_exchanged
                fh.close()

            run_spmd(1, worker)
            return out[0]

        assert bytes_for(16) == bytes_for(16384)
