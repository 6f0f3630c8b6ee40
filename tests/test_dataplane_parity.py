"""Whole-access compiled programs and fused copies vs the interpreted walk.

Two differentials pin the data-plane refactor:

* the generalized residue reduction (``_periodicity`` descending
  nested/struct dataloops) — for random constructor trees, the compiled
  whole-access program translated by its base must reproduce
  ``blocks_range`` exactly, cold and from a cache hit, at every
  period-translated position;
* the :class:`~repro.plan.dataplane.DataPlane` facade — the fused
  batched copies must be byte-identical to an interpreted per-tuple
  reference loop, for both block flavors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import datatypes as dt
from repro.core import blockprog
from repro.core.blockprog import program_for
from repro.core.ff_pack import top_dataloop
from repro.plan.dataplane import DataPlane, block_arrays, tuple_arrays
from repro.plan.ops import Blocks, TupleBlocks
from repro.session import current
from tests.conftest import datatype_trees, fill_pattern


@pytest.fixture(autouse=True)
def _fresh_cache():
    blockprog.clear()
    current().prog_stats.reset()
    yield
    blockprog.clear()


def nested_struct_type():
    """A struct nested under a vector under a resized period — the
    shape the top-level-only residue reduction used to give up on."""
    inner = dt.struct([2, 1], [0, 7], [dt.BYTE, dt.contiguous(3, dt.BYTE)])
    return dt.resized(dt.vector(3, 1, 2, inner), 0, 96)


# ----------------------------------------------------------------------
# Compiled whole-access program vs interpreted blocks_range
# ----------------------------------------------------------------------
class TestWholeAccessParity:
    @settings(max_examples=60, deadline=None)
    @given(tree=datatype_trees(), data=st.data())
    def test_program_matches_blocks_range(self, tree, data):
        count = 6
        loop = top_dataloop(tree, count)
        if loop is None or loop.size <= 0:
            return
        total = loop.size
        s_lo = data.draw(st.integers(0, total - 1), label="s_lo")
        n = data.draw(st.integers(1, total - s_lo), label="n")
        ref_offs, ref_lens = loop.blocks_range(s_lo, s_lo + n)
        for attempt in ("cold", "hit"):
            hit = program_for(loop, s_lo, s_lo + n)
            if hit is None:  # contiguous bypass: nothing to compile
                return
            prog, base = hit
            offs, lens = prog.materialize(base)
            assert offs.tolist() == ref_offs.tolist(), attempt
            assert lens.tolist() == ref_lens.tolist(), attempt

    @settings(max_examples=40, deadline=None)
    @given(tree=datatype_trees(), data=st.data())
    def test_relocation_across_periods(self, tree, data):
        """A range and its whole-period translate resolve to programs
        whose materializations both match the interpreted walk."""
        count = 6
        loop = top_dataloop(tree, count)
        if loop is None or loop.size <= 0 or tree.size <= 0:
            return
        per = tree.size
        s_lo = data.draw(st.integers(0, per - 1), label="s_lo")
        n = data.draw(st.integers(1, per), label="n")
        for q in range(count - 1):
            lo = q * per + s_lo
            hi = min(lo + n, loop.size)
            if hi <= lo:
                break
            ref_offs, ref_lens = loop.blocks_range(lo, hi)
            hit = program_for(loop, lo, hi)
            if hit is None:
                return
            prog, base = hit
            offs, lens = prog.materialize(base)
            assert offs.tolist() == ref_offs.tolist(), q
            assert lens.tolist() == ref_lens.tolist(), q

    def test_nested_struct_periods_share_one_program(self):
        """The generalized reduction keys period-translated ranges of a
        nested struct type to one canonical program."""
        t = nested_struct_type()
        loop = top_dataloop(t, 16)
        progs = set()
        for q in range(8):
            hit = program_for(loop, q * t.size + 2, q * t.size + 9)
            assert hit is not None
            progs.add(id(hit[0]))
        assert len(progs) == 1
        assert current().prog_stats.misses == 1
        assert current().prog_stats.hits == 7

    def test_sub_period_translation_inside_nested_vector(self):
        """Ranges confined to one inner-vector child reduce through the
        nested levels, not just the top one: translates by the *inner*
        stride share a program too."""
        inner = dt.contiguous(4, dt.BYTE)
        t = dt.resized(dt.vector(8, 1, 3, inner), 0, 128)
        loop = top_dataloop(t, 4)
        a = program_for(loop, 0, 3)
        b = program_for(loop, 4, 7)  # next inner child, same residue
        assert a is not None and b is not None
        assert id(a[0]) == id(b[0])
        assert a[1] != b[1]  # distinct translation bases


# ----------------------------------------------------------------------
# Fused DataPlane copies vs an interpreted per-tuple reference
# ----------------------------------------------------------------------
def _random_blocks(rng, wlo, whi, max_blocks=24):
    """Disjoint ascending (offset, length) pairs inside [wlo, whi)."""
    pairs = []
    pos = wlo
    for _ in range(rng.integers(1, max_blocks + 1)):
        pos += int(rng.integers(0, 9))
        ln = int(rng.integers(1, 17))
        if pos + ln > whi:
            break
        pairs.append((pos, ln))
        pos += ln
    return pairs or [(wlo, 1)]


class TestDataPlaneParity:
    @pytest.mark.parametrize("flavor", ["blocks", "tuples"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_gather_fused_equals_interpreted(self, flavor, seed):
        rng = np.random.default_rng(seed)
        wlo, whi = 128, 1024
        pairs = _random_blocks(rng, wlo, whi)
        total = sum(ln for _, ln in pairs)
        fb = fill_pattern(whi - wlo, seed=seed)
        if flavor == "blocks":
            mk = lambda: Blocks(
                np.array([o for o, _ in pairs], dtype=np.int64),
                np.array([ln for _, ln in pairs], dtype=np.int64),
            )
        else:
            mk = lambda: TupleBlocks(tuple(pairs))
        out_fused = np.zeros(total, dtype=np.uint8)
        out_interp = np.zeros(total, dtype=np.uint8)
        n1 = DataPlane.gather(fb, wlo, mk(), out_fused, 0)
        pos = 0
        for o, ln in pairs:
            out_interp[pos : pos + ln] = fb[o - wlo : o - wlo + ln]
            pos += ln
        assert n1 == pos == total
        assert (out_fused == out_interp).all()

    @pytest.mark.parametrize("flavor", ["blocks", "tuples"])
    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_scatter_fused_equals_interpreted(self, flavor, seed):
        rng = np.random.default_rng(seed)
        wlo, whi = 64, 768
        pairs = _random_blocks(rng, wlo, whi)
        total = sum(ln for _, ln in pairs)
        src = fill_pattern(total, seed=seed + 100)
        if flavor == "blocks":
            mk = lambda: Blocks(
                np.array([o for o, _ in pairs], dtype=np.int64),
                np.array([ln for _, ln in pairs], dtype=np.int64),
            )
        else:
            mk = lambda: TupleBlocks(tuple(pairs))
        fb_fused = np.zeros(whi - wlo, dtype=np.uint8)
        fb_interp = np.zeros(whi - wlo, dtype=np.uint8)
        n1 = DataPlane.scatter(fb_fused, wlo, mk(), src, 0)
        pos = 0
        for o, ln in pairs:
            fb_interp[o - wlo : o - wlo + ln] = src[pos : pos + ln]
            pos += ln
        assert n1 == pos == total
        assert (fb_fused == fb_interp).all()

    def test_tuple_arrays_memoized(self):
        tb = TupleBlocks(((4, 2), (10, 3)))
        offs1, lens1 = tuple_arrays(tb)
        offs2, lens2 = tuple_arrays(tb)
        assert offs1 is offs2 and lens1 is lens2
        assert offs1.tolist() == [4, 10]
        assert lens1.tolist() == [2, 3]

    def test_block_arrays_both_flavors(self):
        b = Blocks(np.array([8, 20], dtype=np.int64),
                   np.array([4, 1], dtype=np.int64))
        tb = TupleBlocks(((8, 4), (20, 1)))
        for spec in (b, tb):
            o1, l1 = block_arrays(spec)
            o2, l2 = block_arrays(spec)
            assert o1 is o2 and l1 is l2
            assert o1.dtype == np.int64 and l1.dtype == np.int64
            assert (o1.tolist(), l1.tolist()) == ([8, 20], [4, 1])
