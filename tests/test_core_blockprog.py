"""Compiled block programs: cache semantics, relocation, kernel parity.

The invariant under test: for any loop and range, the compiled program
translated by its base reproduces ``blocks_range`` exactly, and the
gather/scatter it executes is byte-identical to the cold traversal path
— including skipbytes landing mid-block at period boundaries, where the
residue-class reduction is easiest to get wrong.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import datatypes as dt
from repro.core import blockprog
from repro.core.blockprog import (
    MAX_PROGRAMS,
    BlockProgram,
    program_for,
)
from repro.core.dataloop import compile_dataloop
from repro.core.ff_pack import ff_pack, ff_unpack, top_dataloop
from repro.datatypes import decode
from repro.core.gather import gather_blocks, scatter_blocks
from repro.errors import FFError
from repro.session import current
from tests.conftest import datatype_trees, fill_pattern


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test sees an empty cache and zeroed counters."""
    blockprog.clear()
    current().prog_stats.reset()
    current().kernel_paths.reset()
    yield
    blockprog.clear()


def periodic_type():
    """A ragged indexed type under a resized period — the worst case for
    relocation (mid-block cuts at every residue)."""
    lens = [3, 1, 7, 2]
    displs = [0, 5, 9, 20]
    return dt.resized(dt.indexed(lens, displs, dt.BYTE), 0, 32)


# ----------------------------------------------------------------------
# Translation equality: program + base == blocks_range
# ----------------------------------------------------------------------
class TestTranslation:
    @pytest.mark.parametrize("skip", [0, 1, 3, 12, 13, 26, 32, 45, 400])
    @pytest.mark.parametrize("n", [1, 5, 13, 40, 200])
    def test_materialize_matches_blocks_range(self, skip, n):
        t = periodic_type()
        count = 64
        loop = top_dataloop(t, count)
        n = min(n, loop.size - skip)
        if n <= 0:
            pytest.skip("range beyond data")
        ref_offs, ref_lens = loop.blocks_range(skip, skip + n)
        hit = program_for(loop, skip, skip + n)
        assert hit is not None
        prog, base = hit
        offs, lens = prog.materialize(base)
        assert offs.tolist() == ref_offs.tolist()
        assert lens.tolist() == ref_lens.tolist()

    def test_same_residue_shares_one_program(self):
        t = periodic_type()
        loop = top_dataloop(t, 64)
        progs = set()
        for period in range(8):
            hit = program_for(loop, 4 + period * t.size, 14 + period * t.size)
            progs.add(id(hit[0]))
        assert len(progs) == 1
        assert current().prog_stats.misses == 1
        assert current().prog_stats.hits == 7

    def test_distinct_shapes_get_distinct_programs(self):
        t = periodic_type()
        loop = top_dataloop(t, 64)
        a, _ = program_for(loop, 0, 10)
        b, _ = program_for(loop, 1, 11)  # different residue
        c, _ = program_for(loop, 0, 11)  # different length
        assert len({id(a), id(b), id(c)}) == 3
        assert current().prog_stats.misses == 3


# ----------------------------------------------------------------------
# Cache behavior: bypasses, invalidation, LRU bound
# ----------------------------------------------------------------------
class TestCache:
    def test_contiguous_loop_bypassed(self):
        loop = top_dataloop(dt.contiguous(64, dt.BYTE), 4)
        assert program_for(loop, 8, 40) is None
        assert current().prog_stats.bypasses == 1

    def test_clear_forces_recompile(self):
        loop = top_dataloop(periodic_type(), 8)
        a, _ = program_for(loop, 0, 10)
        blockprog.clear()
        b, _ = program_for(loop, 0, 10)
        assert a is not b
        assert current().prog_stats.misses == 2

    def test_store_bounded(self):
        t = periodic_type()
        loop = top_dataloop(t, 512)
        for n in range(1, MAX_PROGRAMS + 20):
            program_for(loop, 0, n)
        assert len(current().programs) == MAX_PROGRAMS
        # Oldest shapes were evicted: re-querying them misses again,
        # while the newest still hits.
        current().prog_stats.reset()
        program_for(loop, 0, MAX_PROGRAMS + 19)
        assert current().prog_stats.hits == 1
        program_for(loop, 0, 1)
        assert current().prog_stats.misses == 1

    def test_concurrent_miss_compiles_once(self, monkeypatch):
        """Two rank threads missing the same key at once: one compiles,
        the other waits for that program — one miss, one hit."""
        loop = top_dataloop(periodic_type(), 8)
        real = blockprog.BlockProgram
        compiles = []

        def slow_compile(offs, lens):
            compiles.append(1)
            time.sleep(0.05)  # hold the compile open across the race
            return real(offs, lens)

        monkeypatch.setattr(blockprog, "BlockProgram", slow_compile)
        barrier = threading.Barrier(2)
        got = [None, None]

        def rank(i):
            barrier.wait()
            got[i] = program_for(loop, 0, 10)

        threads = [threading.Thread(target=rank, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert len(compiles) == 1
        assert current().prog_stats.compiled == 1
        assert current().prog_stats.misses == 1 and current().prog_stats.hits == 1
        assert got[0][0] is got[1][0]

    def test_failed_compile_wakes_waiter(self, monkeypatch):
        """A compile that raises releases its key: a thread waiting on
        it compiles in its place instead of hanging."""
        loop = top_dataloop(periodic_type(), 8)
        real = blockprog.BlockProgram
        calls = []

        def flaky_compile(offs, lens):
            calls.append(1)
            if len(calls) == 1:
                time.sleep(0.05)
                raise RuntimeError("compile failed")
            return real(offs, lens)

        monkeypatch.setattr(blockprog, "BlockProgram", flaky_compile)
        barrier = threading.Barrier(2)
        results = []

        def rank():
            barrier.wait()
            try:
                results.append(program_for(loop, 0, 10))
            except RuntimeError as exc:
                results.append(exc)

        threads = [threading.Thread(target=rank) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 2
        assert sum(isinstance(r, RuntimeError) for r in results) == 1
        assert program_for(loop, 0, 10) is not None

    def test_concurrent_misses_stress(self, monkeypatch):
        """More threads than cores hammering overlapping keys with a
        short switch interval: every key compiles exactly once and every
        lookup counts as exactly one hit or one miss."""
        loop = top_dataloop(periodic_type(), 64)
        real = blockprog.BlockProgram
        mu = threading.Lock()
        compiles = []

        def counted_compile(offs, lens):
            with mu:
                compiles.append(1)
            return real(offs, lens)

        monkeypatch.setattr(blockprog, "BlockProgram", counted_compile)
        nthreads, shapes, reps = 8, 12, 20
        barrier = threading.Barrier(nthreads)
        progs = [dict() for _ in range(nthreads)]

        def rank(i):
            barrier.wait()
            for r in range(reps):
                n = 1 + (i + r) % shapes
                progs[i].setdefault(n, set()).add(
                    id(program_for(loop, 0, n)[0]))

        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=rank, args=(i,))
                       for i in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(prev)
        assert not any(t.is_alive() for t in threads)
        assert len(compiles) == shapes
        assert current().prog_stats.misses == shapes
        assert current().prog_stats.hits == nthreads * reps - shapes
        # Every thread saw the one program of each shape.
        for n in range(1, shapes + 1):
            ids = set().union(*(p.get(n, set()) for p in progs))
            assert len(ids) == 1

    def test_planner_invalidate_keeps_programs(self):
        loop = top_dataloop(periodic_type(), 8)
        a, _ = program_for(loop, 0, 10)
        assert len(current().programs) == 1

        class _Stub:  # minimal planner host
            pass

        from repro.plan.planner import Planner
        from repro.plan.stats import PlanStats

        planner = Planner(_Stub(), cacheable=True, stats=PlanStats())
        planner.invalidate()
        current().prog_stats.reset()
        b, _ = program_for(loop, 0, 10)
        assert b is a
        assert current().prog_stats.hits == 1
        assert current().prog_stats.misses == 0


# ----------------------------------------------------------------------
# Keys: equal layouts share one program
# ----------------------------------------------------------------------
class TestLayoutKey:
    @settings(max_examples=60, deadline=None)
    @given(tree=datatype_trees(), count=st.integers(1, 4), data=st.data())
    def test_round_trip_shares_programs(self, tree, count, data):
        """A datatype rebuilt from its serialized tree compiles to a loop
        with an equal key, whose program is the first one's: the second
        lookup hits, and both materialize their own blocks_range."""
        twin = decode.from_tree(decode.to_tree(tree))
        assert compile_dataloop(twin).key == compile_dataloop(tree).key
        la, lb = top_dataloop(tree, count), top_dataloop(twin, count)
        assert la.key == lb.key
        lo = data.draw(st.integers(0, la.size - 1))
        hi = data.draw(st.integers(lo + 1, la.size))
        blockprog.clear()
        current().prog_stats.reset()
        hit_a = program_for(la, lo, hi)
        hit_b = program_for(lb, lo, hi)
        if hit_a is None:  # contiguous: never compiled
            assert hit_b is None
            return
        assert hit_b[0] is hit_a[0]
        assert current().prog_stats.misses == 1
        assert current().prog_stats.hits == 1
        for loop, (prog, base) in ((la, hit_a), (lb, hit_b)):
            offs, lens = prog.materialize(base)
            ref_offs, ref_lens = loop.blocks_range(lo, hi)
            assert offs.tolist() == ref_offs.tolist()
            assert lens.tolist() == ref_lens.tolist()

    def test_distinct_descriptors_distinct_keys(self):
        a = compile_dataloop(dt.indexed([3, 1, 7], [0, 5, 9], dt.BYTE))
        b = compile_dataloop(dt.indexed([3, 1, 7], [0, 5, 10], dt.BYTE))
        c = compile_dataloop(dt.indexed([3, 2, 6], [0, 5, 9], dt.BYTE))
        assert len({a.key, b.key, c.key}) == 3

    def test_equal_layouts_from_other_constructors_share(self):
        """``vector`` and the equal ``hvector`` compile to loops with one
        key, so the second compiles nothing."""
        a = top_dataloop(dt.vector(16, 2, 5, dt.INT), 3)
        b = top_dataloop(dt.hvector(16, 2, 20, dt.INT), 3)
        assert a is not b and a.key == b.key
        pa, _ = program_for(a, 4, 100)
        pb, _ = program_for(b, 4, 100)
        assert pa is pb


# ----------------------------------------------------------------------
# Kernel parity: every compiled dispatch kind vs the generic kernels
# ----------------------------------------------------------------------
class TestKernelParity:
    CASES = {
        "single": ([(3, 9)], 0),
        "small": ([(0, 3), (9, 1), (30, 7)], 0),
        "strided": ([(i * 8, 4) for i in range(24)], 0),
        "index": ([(i * 8 + (i % 3), 4) for i in range(24)], 0),
        "ragged_index": ([(i * 9, (i % 5) + 1) for i in range(24)], 0),
        "big": ([(i * 600, 512) for i in range(20)], 0),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("base", [0, 64])
    def test_gather_scatter_match_generic(self, name, base):
        pairs, _ = self.CASES[name]
        offs = np.array([o for o, _ in pairs], dtype=np.int64)
        lens = np.array([ln for _, ln in pairs], dtype=np.int64)
        total = int(lens.sum())
        span = int(offs.max() + lens.max()) + base + 8
        src = fill_pattern(span, seed=3)
        prog = BlockProgram(offs, lens)

        got = np.zeros(total, dtype=np.uint8)
        assert prog.gather(src, base, got, 0) == total
        ref = np.zeros(total, dtype=np.uint8)
        gather_blocks(src, offs + base, lens, ref, 0)
        assert (got == ref).all()

        data = fill_pattern(total, seed=4)
        got_dst = np.zeros(span, dtype=np.uint8)
        assert prog.scatter(got_dst, base, data, 0) == total
        ref_dst = np.zeros(span, dtype=np.uint8)
        scatter_blocks(ref_dst, offs + base, lens, data, 0)
        assert (got_dst == ref_dst).all()

    def test_program_arrays_are_frozen_copies(self):
        offs = np.array([0, 10], dtype=np.int64)
        lens = np.array([4, 4], dtype=np.int64)
        prog = BlockProgram(offs, lens)
        offs[0] = 99  # caller's array must stay writable and unshared
        assert prog.offsets[0] == 0
        assert not prog.offsets.flags.writeable
        with pytest.raises(ValueError):
            prog.offsets[0] = 1


# ----------------------------------------------------------------------
# ff_pack / ff_unpack through the program path
# ----------------------------------------------------------------------
class TestFFIntegration:
    def test_counters_flow_through_ff_pack(self):
        t = periodic_type()
        src = fill_pattern(64 * t.extent + 8)
        out = np.zeros(40, dtype=np.uint8)
        for w in range(6):
            ff_pack(src, 64, t, 4 + w * t.size, out, 40)
        assert current().prog_stats.misses == 1
        assert current().prog_stats.hits == 5
        assert current().prog_stats.translations == 6

    def test_traversal_corruption_raises_fferror(self, monkeypatch):
        import importlib

        # "repro.core.ff_pack" as an attribute is the *function* (the
        # package re-exports it); fetch the module itself to patch it.
        ffmod = importlib.import_module("repro.core.ff_pack")

        t = periodic_type()
        src = fill_pattern(8 * t.extent + 8)
        out = np.zeros(16, dtype=np.uint8)
        dst = np.zeros(src.size, dtype=np.uint8)
        short = lambda *a, **k: -1  # noqa: E731

        # Program branch: the periodic type compiles to a program.
        with monkeypatch.context() as m:
            m.setattr(BlockProgram, "gather", short)
            m.setattr(BlockProgram, "scatter", short)
            with pytest.raises(FFError, match="traversal corruption"):
                ff_pack(src, 8, t, 0, out, 16)
            with pytest.raises(FFError, match="traversal corruption"):
                ff_unpack(out, 16, dst, 8, t, 0)
        assert current().prog_stats.bypasses == 0

        # Contiguous-bypass branch: the one-shot kernels run.
        c = dt.contiguous(16, dt.BYTE)
        monkeypatch.setattr(ffmod, "gather_blocks", short)
        monkeypatch.setattr(ffmod, "scatter_blocks", short)
        with pytest.raises(FFError, match="traversal corruption"):
            ff_pack(src, 8, c, 0, out, 16)
        with pytest.raises(FFError, match="traversal corruption"):
            ff_unpack(out, 16, dst, 8, c, 0)
        assert current().prog_stats.bypasses == 2

    # ------------------------------------------------------------------
    # Property tests — skipbytes mid-block at period boundaries, miss
    # and hit paths vs the cold reference (``blocks_range`` + one-shot
    # kernel), byte-identical.
    # ------------------------------------------------------------------
    @settings(max_examples=50, deadline=None)
    @given(
        tree=datatype_trees(),
        period=st.integers(0, 5),
        within=st.integers(-2, 2),
        size=st.integers(1, 64),
    )
    def test_pack_hit_equals_cold_at_period_boundaries(
        self, tree, period, within, size
    ):
        count = 8
        if tree.size == 0 or tree.extent <= 0:
            return
        # Skip positions straddling a period boundary: a whole number of
        # instances plus/minus a couple of bytes lands mid-block for most
        # trees (the residue reduction must cut blocks, not copy them).
        skip = period * tree.size + within
        if skip < 0 or skip >= count * tree.size:
            return
        span = (count - 1) * tree.extent + tree.true_ub + 8
        src = fill_pattern(span, seed=7)
        n = min(size, count * tree.size - skip)

        offs, lens = top_dataloop(tree, count).blocks_range(skip, skip + n)
        cold = np.zeros(n, dtype=np.uint8)
        assert gather_blocks(src, offs, lens, cold, 0) == n
        blockprog.clear()
        miss = np.zeros(n, dtype=np.uint8)
        assert ff_pack(src, count, tree, skip, miss, n) == n
        hit = np.zeros(n, dtype=np.uint8)
        assert ff_pack(src, count, tree, skip, hit, n) == n
        assert (miss == cold).all()
        assert (hit == cold).all()

    @settings(max_examples=50, deadline=None)
    @given(
        tree=datatype_trees(),
        period=st.integers(0, 5),
        within=st.integers(-2, 2),
        size=st.integers(1, 64),
    )
    def test_unpack_hit_equals_cold_at_period_boundaries(
        self, tree, period, within, size
    ):
        count = 8
        if tree.size == 0 or tree.extent <= 0:
            return
        skip = period * tree.size + within
        if skip < 0 or skip >= count * tree.size:
            return
        span = (count - 1) * tree.extent + tree.true_ub + 8
        n = min(size, count * tree.size - skip)
        data = fill_pattern(n, seed=9)

        offs, lens = top_dataloop(tree, count).blocks_range(skip, skip + n)
        cold = np.zeros(span, dtype=np.uint8)
        assert scatter_blocks(cold, offs, lens, data, 0) == n
        blockprog.clear()
        miss = np.zeros(span, dtype=np.uint8)
        assert ff_unpack(data, n, miss, count, tree, skip) == n
        hit = np.zeros(span, dtype=np.uint8)
        assert ff_unpack(data, n, hit, count, tree, skip) == n
        assert (miss == cold).all()
        assert (hit == cold).all()
