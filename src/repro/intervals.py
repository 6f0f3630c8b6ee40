"""Interval algebra over half-open byte ranges.

Data sieving, two-phase I/O, stripe splitting, range locks and request
batching all cut the file into half-open ranges ``[lo, hi)``: they tile
an access into fixed-size windows, split an aggregate range into file
domains, union and group block lists, subtract lock ranges and clip
data offsets.  This leaf module (NumPy only, no package imports) is the
one implementation of those operations; round-robin stripe geometry
lives in :mod:`repro.fs.striping`.

Two conventions, one per kind of value:

* the pieces of *one* range — windows and domains — are ``(lo, hi)``
  bounds, the shape every plan op and lock takes;
* a *set* of byte extents — a block list, as ROMIO's ol-lists and the
  backends' vectored calls hold it — is ``(offset, length)`` pairs (or
  two parallel int64 arrays for :func:`merge_adjacent`), so
  :func:`union` takes an :class:`~repro.flatten.ol_list.OLList`'s pairs
  as they are.

One deliberate second implementation stays outside this module: the
list-based baseline (``flatten.flattener._coalesce_exact``,
``flatten.list_ops.expand_range`` and the heap merge in
``merge_lists``) walks its ol-lists one Python tuple at a time,
because those per-tuple costs are what the paper measures ROMIO by
(§2.3).  Rewriting them onto :func:`merge_adjacent` would make the
baseline cheaper than the thing it models.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

__all__ = [
    "clip",
    "floor_to",
    "merge_adjacent",
    "overlaps",
    "runs",
    "split_even",
    "subtract",
    "tile",
    "union",
]


def clip(v: int, lo: int, hi: int) -> int:
    """``v`` clamped into ``[lo, hi]``."""
    return min(max(v, lo), hi)


def tile(lo: int, hi: int, size: int) -> List[Tuple[int, int]]:
    """Windows ``(wlo, whi)`` of at most ``size`` bytes covering
    ``[lo, hi)`` in order; every window but the last is full.

    >>> tile(0, 10, 4)
    [(0, 4), (4, 8), (8, 10)]
    """
    if size <= 0:
        raise ValueError(f"window size must be positive, got {size}")
    return [(p, min(p + size, hi)) for p in range(lo, hi, size)]


def split_even(lo: int, hi: int, n: int) -> List[Tuple[int, int]]:
    """Split ``[lo, hi)`` into ``n`` contiguous ranges balanced to the
    byte: the first ``(hi - lo) % n`` are one byte longer (ROMIO's even
    file-domain division)."""
    base, rem = divmod(hi - lo, n)
    out: List[Tuple[int, int]] = []
    pos = lo
    for i in range(n):
        end = pos + base + (1 if i < rem else 0)
        out.append((pos, end))
        pos = end
    return out


def floor_to(v: int, unit: int, base: int = 0) -> int:
    """Largest ``base + k * unit`` at or below ``v`` (integer ``k``, which
    is negative when ``v < base``)."""
    return base + ((v - base) // unit) * unit


def runs(pairs: Iterable[Tuple[int, int]],
         gap: int = 0) -> List[Tuple[int, int, int]]:
    """Group offset-sorted ``(offset, length)`` pairs into runs.

    A pair joins the current run when it starts at most ``gap`` bytes
    past the run's end so far (``gap=0``: touching or overlapping).
    Returns one ``(offset, length, count)`` per run, where the run
    covers ``[offset, offset + length)`` and absorbed the next
    ``count`` input pairs.
    """
    out: List[Tuple[int, int, int]] = []
    end = 0
    for off, ln in pairs:
        if out and off - end <= gap:
            start, _, n = out[-1]
            if off + ln > end:
                end = off + ln
            out[-1] = (start, end - start, n + 1)
        else:
            end = off + ln
            out.append((off, ln, 1))
    return out


def union(pairs: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Byte union of offset-sorted ``(offset, length)`` pairs as maximal
    runs; empty pairs are dropped."""
    return [(off, ln) for off, ln, _ in runs(p for p in pairs if p[1] > 0)]


def subtract(pairs: Iterable[Tuple[int, int]], lo: int,
             hi: int) -> List[Tuple[int, int]]:
    """``(offset, length)`` pairs with the bytes of ``[lo, hi)``
    removed; a pair the cut falls inside splits in two."""
    out: List[Tuple[int, int]] = []
    for off, ln in pairs:
        end = off + ln
        if hi <= off or end <= lo:
            out.append((off, ln))
            continue
        if off < lo:
            out.append((off, lo - off))
        if hi < end:
            out.append((hi, end - hi))
    return out


def overlaps(alo: int, ahi: int, blo: int, bhi: int) -> bool:
    """Whether ``[alo, ahi)`` and ``[blo, bhi)`` share a byte (both
    non-empty)."""
    return alo < bhi and blo < ahi


def merge_adjacent(
    offsets: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Merge each block into its predecessor when it starts exactly
    where the predecessor ends (adjacent in sequence order).

    Returns ``(offsets, lengths, merged_bytes)`` where ``merged_bytes``
    counts the bytes of blocks that were absorbed into a predecessor —
    the planner's ``coalesced_bytes`` statistic.  The inputs come back
    unchanged when nothing merges.  Runs once per planned sieving
    window and per collective piece, so it does no validation pass.
    """
    if offsets.size <= 1:
        return offsets, lengths, 0
    adjacent = offsets[1:] == offsets[:-1] + lengths[:-1]
    if not adjacent.any():
        return offsets, lengths, 0
    starts = np.concatenate(([True], ~adjacent))
    idx = np.flatnonzero(starts)
    groups = np.cumsum(starts) - 1
    new_lens = np.zeros(idx.size, dtype=np.int64)
    np.add.at(new_lens, groups, lengths)
    merged = int(lengths[1:][adjacent].sum())
    return offsets[idx], new_lens, merged
