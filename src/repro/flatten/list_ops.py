"""Operations on ol-lists used by the list-based I/O engine.

These reproduce the per-access list manipulations of the conventional
(ROMIO) implementation, with their authentic costs:

* :func:`expand_range` — the access-process (AP) side of two-phase I/O:
  expand a fileview's ol-list over an absolute file range so it can be
  shipped to an I/O process (IOP).  Cost O(Saccess/Sextent · Nblock) per
  AP×IOP pair (paper §2.3/§2.4).
* :func:`merge_lists` — ROMIO's collective-write optimization: merge the
  per-process lists for a file range to detect whether the combined access
  is contiguous.  Cost O(Σ_p Nblock(p)) (paper §2.3, last paragraph).
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

from repro.flatten.ol_list import OLList
from repro.intervals import union

__all__ = ["expand_range", "merge_lists"]


def expand_range(
    flat: OLList,
    ft_extent: int,
    disp: int,
    lo: int,
    hi: int,
) -> OLList:
    """Absolute-offset blocks of a tiled fileview within ``[lo, hi)``.

    ``flat`` is the ol-list of one filetype instance (offsets relative to
    the instance), which tiles the file from byte ``disp`` with stride
    ``ft_extent``.  The result contains one tuple per contiguous block of
    the view inside the range — the list an AP must build and send for
    every collective access in the conventional implementation.  The
    number of produced tuples is independent of Nblock per instance but
    proportional to the number of instances covered (paper: Ncoll).
    """
    out: List[Tuple[int, int]] = []
    if hi <= lo or len(flat) == 0 or ft_extent <= 0:
        return OLList(())
    if (
        len(flat) == 1
        and flat.offsets[0] == 0
        and flat.lengths[0] == ft_extent
    ):
        # Contiguous tiling: the view exposes every byte, so the
        # expansion is just the clipped range (ROMIO never builds a
        # per-instance list for contiguous filetypes either).
        a = max(lo, disp)
        if hi <= a:
            return OLList(())
        return OLList([(a, hi - a)])
    first = max(0, (lo - disp - flat.end_offset()) // ft_extent)
    n = first
    while True:
        base = disp + n * ft_extent
        if base + (flat.offsets[0] if flat.offsets else 0) >= hi:
            break
        emitted_any = False
        for off, ln in zip(flat.offsets, flat.lengths):
            a = base + off
            b = a + ln
            if b <= lo:
                continue
            if a >= hi:
                break
            a2 = max(a, lo)
            b2 = min(b, hi)
            if b2 > a2:
                if out and out[-1][0] + out[-1][1] == a2:
                    out[-1] = (out[-1][0], out[-1][1] + (b2 - a2))
                else:
                    out.append((a2, b2 - a2))
                emitted_any = True
        n += 1
        if not emitted_any and base > hi:
            break
    return OLList(out)


def merge_lists(lists: Sequence[OLList]) -> List[Tuple[int, int]]:
    """Merge per-process absolute ol-lists into a coalesced union.

    This is the O(Σ_p Nblock(p) · log P) heap merge ROMIO performs to
    decide whether a collective write covers its file range contiguously.
    """
    streams = (iter(lst) for lst in lists)
    merged = heapq.merge(*streams, key=lambda p: p[0])
    return union(merged)
