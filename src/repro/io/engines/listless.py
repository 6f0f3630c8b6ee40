"""The listless I/O engine (paper §3).

No ol-list is ever built, stored, traversed or exchanged:

* navigation uses ``ff_size``/``ff_extent``-style dataloop walks,
  O(depth·log k) per query regardless of Nblock and of the position;
* all copying between user buffers, pack buffers and file buffers goes
  through the flattening-on-the-fly gather/scatter kernels;
* collective access relies on *fileview caching*: compact views are
  allgathered once in ``setup_view``; afterwards IOPs navigate any AP's
  view locally and only file data crosses the wire;
* the collective-write "can we skip the pre-read?" decision evaluates
  coverage directly from the cached views (the mergeview evaluation of
  §3.2.3, generalized to accesses that cover the file range only
  partially), never by merging lists.

All access paths are *planned*: the engine exposes its compact view as
plan geometry, so the shared :class:`~repro.plan.planner.Planner` builds
plans with materialized block lists — and, because those plans are pure
functions of the cached views, it caches them across repeated accesses
(plans for a collective access are built once per distinct access
signature and replayed).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.fileview_cache import CompactFileview, FileviewCache
from repro.core.ff_pack import ff_pack, ff_unpack
from repro.core.mergeview import build_mergeview
from repro.intervals import clip, merge_adjacent
from repro.io.engines.base import IOEngine
from repro.io.fileview import MemDescriptor
from repro.obs import trace
from repro.plan.ops import Blocks, Piece, in_slot, out_slot

__all__ = ["ListlessEngine"]


class _ListlessMetadata:
    """Collective metadata from cached compact fileviews.

    Stateless per query: any (window, rank) pair is answered by O(depth)
    navigation of the allgathered views, so the AP and IOP sides of the
    round loop are computed with the *same* arithmetic on the same views
    — which is what upholds the aggregation layer's symmetry invariant
    (a send exists iff the IOP plans a piece for it).
    """

    __slots__ = ("cview", "cache", "rng", "ranges", "entries",
                 "coalesced")

    def __init__(self, engine: "ListlessEngine", rng, ranges) -> None:
        assert engine.cview is not None and engine.cache is not None
        self.cview = engine.cview
        self.cache = engine.cache
        self.rng = rng
        self.ranges = ranges
        self.entries = 0
        self.coalesced = 0

    def ap_span(self, iop, wlo, whi):
        rng = self.rng
        if rng.empty:
            return None
        pl = clip(self.cview.data_of_abs(wlo), rng.data_lo, rng.data_hi)
        ph = clip(self.cview.data_of_abs(whi), rng.data_lo, rng.data_hi)
        if ph <= pl:
            return None
        return pl, ph

    def iop_pieces(self, wlo, whi, write):
        pieces = []
        covered = 0
        for src, r in enumerate(self.ranges):
            if r.empty:
                continue
            cv = self.cache.view_of(src)
            pl = clip(cv.data_of_abs(wlo), r.data_lo, r.data_hi)
            ph = clip(cv.data_of_abs(whi), r.data_lo, r.data_hi)
            if ph <= pl:
                continue
            offs, lens = cv.blocks_for_data(pl, ph)
            offs, lens, merged = merge_adjacent(offs, lens)
            self.coalesced += merged
            self.entries += int(offs.size)
            slot = in_slot(src) if write else out_slot(src)
            pieces.append(Piece(slot, pl, ph, Blocks(offs, lens)))
            # Mergeview coverage (§3.2.3): ranks' data bytes in the
            # window sum to the window size iff every byte is covered.
            covered += ph - pl
        return pieces, covered


class ListlessEngine(IOEngine):
    """Flattening-on-the-fly I/O engine."""

    name = "listless"
    cacheable_plans = True
    #: MEM-piece copies are memory-side kernel calls too (see
    #: :class:`~repro.plan.executor.MemCodec`).
    counts_mem_copies = True

    def __init__(self, fh) -> None:
        super().__init__(fh)
        self.cview: Optional[CompactFileview] = None
        self.cache: Optional[FileviewCache] = None
        self.mergeview = None
        #: Collective ``set_view`` calls so far (the same on every rank).
        self._set_views = 0

    # ------------------------------------------------------------------
    def setup_view(self) -> None:
        """Collective: exchange compact views once (fileview caching)."""
        with trace.span("listless.setup_view"):
            self._setup_view()

    def _setup_view(self) -> None:
        view = self.fh.view
        if self.fh.shared.requires_ol_lists:
            # Paper footnote 4: NFS/PVFS-style file systems perform
            # independent accesses through their own list-based entry
            # points, so the ol-list must still be created (and cached) —
            # it is just never used by the generic access functions here.
            from repro.flatten import flatten_cached

            flatten_cached(view.filetype)
        self.cview = CompactFileview.from_view(
            view.disp, view.etype, view.filetype
        )
        gathered = self.fh.comm.allgather(self.cview)
        cache = self.fh.shared.fileview_cache
        self._set_views += 1
        cache.install({rank: cv for rank, cv in enumerate(gathered)},
                      self._set_views)
        self.cache = cache
        self.mergeview = build_mergeview(gathered)
        self.stats.ff_view_bytes_exchanged += cache.exchange_bytes
        self.planner.invalidate()

    # ------------------------------------------------------------------
    # Navigation — O(depth · log k), position-independent
    # ------------------------------------------------------------------
    def abs_of_data(self, data_off: int, end: bool = False) -> int:
        assert self.cview is not None
        self.stats.ff_navigations += 1
        return self.cview.abs_of_data(data_off, end)

    def data_of_abs(self, abs_off: int) -> int:
        assert self.cview is not None
        self.stats.ff_navigations += 1
        return self.cview.data_of_abs(abs_off)

    def plan_geometry(self) -> Optional[CompactFileview]:
        """The compact view *is* the plan geometry: the planner clips
        windows and materializes block lists by navigating it (the
        list-based engine has no O(depth) way to offer this)."""
        return self.cview

    # ------------------------------------------------------------------
    # Memory-side pack/unpack — one gather/scatter kernel call
    # ------------------------------------------------------------------
    def pack_mem(self, mem: MemDescriptor, d_lo: int, d_hi: int,
                 out: np.ndarray) -> None:
        if mem.is_contiguous:
            out[: d_hi - d_lo] = mem.contiguous_slice(d_lo, d_hi - d_lo)
            return
        self.stats._ff_kernel_calls += 1
        ff_pack(mem.buf, mem.count, mem.memtype, d_lo, out, d_hi - d_lo,
                origin=mem.origin)

    def unpack_mem(self, mem: MemDescriptor, d_lo: int, d_hi: int,
                   data: np.ndarray) -> None:
        if mem.is_contiguous:
            mem.contiguous_slice(d_lo, d_hi - d_lo)[...] = data[: d_hi - d_lo]
            return
        self.stats._ff_kernel_calls += 1
        ff_unpack(data, d_hi - d_lo, mem.buf, mem.count, mem.memtype, d_lo,
                  origin=mem.origin)

    # ------------------------------------------------------------------
    # Collective access: one cached round-based plan for both roles
    # ------------------------------------------------------------------
    def collective_plan(self, write, rng, ranges, domains, schedule):
        assert self.cview is not None and self.cache is not None
        return self.planner.plan_collective(write, rng, ranges, domains,
                                            schedule)

    def collective_metadata(self, write, rng, ranges):
        return _ListlessMetadata(self, rng, ranges)
