"""Ol-list operations: range expansion, merging, coalescing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import datatypes as dt
from repro.flatten import (
    OLList,
    expand_range,
    flatten_datatype,
    merge_lists,
)
from repro.intervals import union


class TestCoalesce:
    """The union ``merge_lists`` coalesces its merged pairs with."""

    def test_merges_touching(self):
        assert union([(0, 4), (4, 4)]) == [(0, 8)]

    def test_merges_overlapping(self):
        assert union([(0, 6), (4, 4)]) == [(0, 8)]

    def test_keeps_gaps(self):
        assert union([(0, 4), (8, 4)]) == [(0, 4), (8, 4)]

    def test_drops_empty(self):
        assert union([(0, 0), (4, 4)]) == [(4, 4)]


def _brute_expand(flat, extent, disp, lo, hi):
    """Brute-force reference for expand_range."""
    out = []
    n = 0
    while disp + n * extent < hi + extent:
        for off, ln in flat:
            a = disp + n * extent + off
            b = a + ln
            a2, b2 = max(a, lo), min(b, hi)
            if b2 > a2:
                out.append((a2, b2 - a2))
        n += 1
        if n > 1000:
            break
    # coalesce strictly adjacent as expand_range does
    merged = []
    for off, ln in out:
        if merged and merged[-1][0] + merged[-1][1] == off:
            merged[-1] = (merged[-1][0], merged[-1][1] + ln)
        else:
            merged.append((off, ln))
    return merged


class TestExpandRange:
    def test_against_brute_force(self):
        v = dt.vector(4, 2, 5, dt.DOUBLE)
        flat = flatten_datatype(v)
        for disp in (0, 100):
            for lo, hi in [(0, 50), (130, 300), (77, 333), (0, 1000)]:
                got = expand_range(flat, v.extent, disp, lo, hi).to_pairs()
                want = _brute_expand(
                    flat.to_pairs(), v.extent, disp, lo, hi
                )
                assert got == want, (disp, lo, hi)

    def test_empty_range(self):
        flat = OLList([(0, 4)])
        assert len(expand_range(flat, 8, 0, 10, 10)) == 0

    def test_size_proportional_to_range_not_nblock(self):
        # Paper §2.3: Ncoll depends on the access extent, not Nblock.
        flat = OLList([(0, 4)])
        ol = expand_range(flat, 8, 0, 0, 8 * 1000)
        assert len(ol) == 1000

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(0, 40),
        st.integers(0, 200),
        st.integers(0, 200),
    )
    def test_random_vectors_match_brute(self, count, blocklen, disp, a, b):
        v = dt.vector(count, blocklen, blocklen + 2, dt.INT)
        flat = flatten_datatype(v)
        lo, hi = min(a, b), max(a, b)
        got = expand_range(flat, v.extent, disp, lo, hi).to_pairs()
        want = _brute_expand(flat.to_pairs(), v.extent, disp, lo, hi)
        assert got == want


class TestMergeLists:
    def test_interleaved_lists_merge_to_one_block(self):
        a = OLList([(0, 8), (16, 8)])
        b = OLList([(8, 8), (24, 8)])
        assert merge_lists([a, b]) == [(0, 32)]

    def test_gap_remains(self):
        a = OLList([(0, 8)])
        b = OLList([(24, 8)])
        assert merge_lists([a, b]) == [(0, 8), (24, 8)]

    def test_empty_input(self):
        assert merge_lists([]) == []

    def test_three_way(self):
        lists = [
            OLList([(i * 3, 1) for i in range(5)]),
            OLList([(i * 3 + 1, 1) for i in range(5)]),
            OLList([(i * 3 + 2, 1) for i in range(5)]),
        ]
        assert merge_lists(lists) == [(0, 15)]
