"""``repro.intervals`` against a brute-force byte-set oracle.

Every function is checked by enumerating the bytes its ranges cover:
tilings and splits must cover exactly their range, unions and runs must
reproduce the byte set (widened by the run gap), subtraction must remove
exactly the cut, and the NumPy merge must equal a per-tuple loop.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.intervals import (
    clip,
    floor_to,
    merge_adjacent,
    overlaps,
    runs,
    split_even,
    subtract,
    tile,
    union,
)


def byte_set(pairs):
    """Every byte covered by ``(offset, length)`` pairs."""
    out = set()
    for off, ln in pairs:
        out.update(range(off, off + ln))
    return out


def blocks_of(byte_set_):
    """Maximal runs of consecutive integers, as ``(lo, hi)``."""
    out = []
    for b in sorted(byte_set_):
        if out and b == out[-1][1]:
            out[-1][1] += 1
        else:
            out.append([b, b + 1])
    return [tuple(r) for r in out]


offsets = st.integers(0, 200)
pair_lists = st.lists(st.tuples(offsets, st.integers(0, 40)), max_size=20)

PROPS = settings(max_examples=200, deadline=None)


class TestClip:
    @PROPS
    @given(st.integers(-50, 250), offsets, offsets)
    def test_clamps_into_range(self, v, a, b):
        lo, hi = min(a, b), max(a, b)
        want = v if v in range(lo, hi + 1) else (lo if v < lo else hi)
        assert clip(v, lo, hi) == want


class TestTile:
    @PROPS
    @given(offsets, offsets, st.integers(1, 64))
    @example(0, 10, 4)
    @example(7, 10, 4)
    @example(0, 0, 4)
    def test_covers_exactly_in_full_windows(self, lo, hi, size):
        wins = tile(lo, hi, size)
        assert byte_set((a, b - a) for a, b in wins) == set(range(lo, hi))
        assert sum(b - a for a, b in wins) == max(hi - lo, 0)
        for (_a, b), (c, _d) in zip(wins, wins[1:]):
            assert b == c
        for a, b in wins[:-1]:
            assert b - a == size
        if wins:
            assert wins[0][0] == lo and 0 < wins[-1][1] - wins[-1][0] <= size

    @given(st.integers(-8, 0))
    def test_rejects_non_positive_size(self, size):
        with pytest.raises(ValueError):
            tile(0, 10, size)


class TestSplitEven:
    @PROPS
    @given(offsets, st.integers(0, 300), st.integers(1, 12))
    def test_balanced_exact_cover(self, lo, n, k):
        hi = lo + n
        doms = split_even(lo, hi, k)
        assert len(doms) == k
        assert doms[0][0] == lo and doms[-1][1] == hi
        for (_a, b), (c, _d) in zip(doms, doms[1:]):
            assert b == c
        sizes = [b - a for a, b in doms]
        assert sum(sizes) == n
        assert sizes == sorted(sizes, reverse=True)
        assert max(sizes) - min(sizes) <= 1
        assert byte_set((a, b - a) for a, b in doms) == set(range(lo, hi))


class TestFloorTo:
    @PROPS
    @given(st.integers(-300, 300), st.integers(1, 64),
           st.integers(-100, 100))
    def test_largest_grid_point_at_or_below(self, v, unit, base):
        want = max(x for x in range(v - unit + 1, v + 1)
                   if (x - base) % unit == 0)
        assert floor_to(v, unit, base) == want
        if base == 0:
            assert floor_to(v, unit) == want


class TestRuns:
    @PROPS
    @given(st.data(), st.integers(0, 16))
    def test_groups_match_widened_byte_blocks(self, data, gap):
        # A pair joins a run iff it starts within ``gap`` bytes of the
        # run's end: the runs are the blocks of the byte set with every
        # pair widened by ``gap`` (a zero-width pair has no bytes, so
        # gap 0 draws non-empty pairs; union covers empty ones).
        pairs = sorted(data.draw(st.lists(
            st.tuples(offsets, st.integers(0 if gap else 1, 40)),
            max_size=20)))
        got = runs(pairs, gap)
        assert sum(n for _o, _l, n in got) == len(pairs)
        blocks = blocks_of(byte_set((o, ln + gap) for o, ln in pairs))
        assert len(got) == len(blocks)
        i = 0
        for (off, ln, n), (blo, bhi) in zip(got, blocks):
            members = pairs[i:i + n]
            i += n
            assert n >= 1
            assert off == members[0][0] == blo
            assert off + ln == max(o + m for o, m in members) == bhi - gap

    @PROPS
    @given(pair_lists.map(sorted))
    def test_union_is_byte_set_as_maximal_runs(self, pairs):
        got = union(pairs)
        assert byte_set(got) == byte_set(pairs)
        assert [(o, o + ln) for o, ln in got] == \
            blocks_of(byte_set(pairs))

    def test_union_accepts_an_iterator(self):
        assert union(iter([(0, 4), (2, 2), (9, 0)])) == [(0, 4)]


class TestSubtract:
    @PROPS
    @given(pair_lists, offsets, offsets)
    @example([(0, 10), (20, 10)], 5, 30)  # cut ends where a pair ends
    def test_removes_exactly_the_cut(self, pairs, a, b):
        lo, hi = min(a, b), max(a, b)
        got = subtract(pairs, lo, hi)
        assert byte_set(got) == byte_set(pairs) - set(range(lo, hi))
        # each pair is cut on its own, in order, into pieces inside it
        per = [subtract([p], lo, hi) for p in pairs]
        assert got == [q for pieces in per for q in pieces]
        for (off, ln), pieces in zip(pairs, per):
            assert len(pieces) <= 2
            for qo, ql in pieces:
                assert off <= qo and qo + ql <= off + ln
                assert ql > 0 or ln == 0


class TestOverlaps:
    @PROPS
    @given(offsets, st.integers(1, 40), offsets, st.integers(1, 40))
    def test_shares_a_byte(self, a, an, b, bn):
        want = bool(set(range(a, a + an)) & set(range(b, b + bn)))
        assert overlaps(a, a + an, b, b + bn) == want
        assert overlaps(b, b + bn, a, a + an) == want


def _merge_per_tuple(pairs):
    """Reference: fold each block into its predecessor when it starts
    where the predecessor ends."""
    out, merged = [], 0
    for off, ln in pairs:
        if out and off == out[-1][0] + out[-1][1]:
            out[-1] = (out[-1][0], out[-1][1] + ln)
            merged += ln
        else:
            out.append((off, ln))
    return out, merged


class TestMergeAdjacent:
    @PROPS
    @given(st.lists(st.tuples(st.sampled_from([0, 0, 1, 5, -30]),
                              st.integers(0, 20)), max_size=40),
           offsets)
    def test_matches_per_tuple_merge(self, steps, start):
        # ``steps`` are (distance from the previous block's end, length):
        # 0 makes sequence-adjacent blocks, >0 gaps, <0 out-of-order.
        pairs, end = [], start
        for delta, ln in steps:
            pairs.append((end + delta, ln))
            end = end + delta + ln
        offs = np.array([p[0] for p in pairs], dtype=np.int64)
        lens = np.array([p[1] for p in pairs], dtype=np.int64)
        got_o, got_l, merged = merge_adjacent(offs, lens)
        want, want_merged = _merge_per_tuple(pairs)
        assert list(zip(got_o.tolist(), got_l.tolist())) == want
        assert merged == want_merged
        if len(want) == len(pairs):
            assert got_o is offs and got_l is lens
