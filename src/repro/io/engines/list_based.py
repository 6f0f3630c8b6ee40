"""The list-based I/O engine — a faithful re-implementation of the
conventional (ROMIO) approach the paper's §2 analyzes.

Every cost the paper attributes to ol-lists is really paid here:

* the filetype is explicitly flattened at ``set_view`` (O(Nblock) time and
  16 bytes/tuple of memory, cached per datatype as ROMIO caches it);
* a fresh ol-list is built for the memtype on *every* access and dropped
  afterwards (paper §2.1, last paragraph);
* positioning the file pointer walks the list linearly — O(Nblock/2) list
  elements per navigation on average (§2.2);
* data sieving moves the listed bytes through the shared data plane:
  the per-access lists are lowered to index arrays and batch-copied
  (§2.1's "Copy time" stays proportional to the list, but is paid in
  one fused copy);
* collective access expands each AP's view over every IOP's file domain
  into per-pair ol-lists that are *sent along with the data* (16 bytes per
  tuple of wire volume, §2.3), and the collective-write contiguity
  optimization merges all received lists per window (§2.3, last
  paragraph).

Accesses are planned like the listless engine's, but the plans preserve
the conventional cost profile: the engine offers no plan geometry, so
independent plans carry *deferred* pieces that the executor streams
through :meth:`_view_blocks` (the linear tuple walk) at execution time;
collective plans carry :class:`~repro.plan.ops.TupleBlocks` the data
plane batch-copies; and no plan is ever cached — the conventional
scheme re-derives its lists on every access, which is precisely the
overhead the paper measures.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.gather import gather_blocks, scatter_blocks
from repro.flatten.flattener import flatten_cached, flatten_datatype
from repro.flatten.list_ops import expand_range, merge_lists
from repro.flatten.ol_list import OLList
from repro.io.aggregation import build_round_plan
from repro.io.engines.base import IOEngine
from repro.io.fileview import MemDescriptor
from repro.io.two_phase import AccessRange
from repro.obs import trace
from repro.plan.ops import (
    ExchangeOp,
    Piece,
    Send,
    TupleBlocks,
    in_slot,
    out_slot,
)
from repro.plan.plan import IOPlan

__all__ = ["ListBasedEngine"]


class _ListBasedMetadata:
    """Collective metadata from exchanged ol-lists.

    Stateful: linear cursors (the paper's §2.2 positioning cost) advance
    through each list in window order.  The AP-side cursor walks the
    list this rank shipped to an IOP; the IOP-side cursor walks the
    *identical* list it received — the same tuples picked over the same
    window sequence, which upholds the aggregation layer's symmetry
    invariant without any navigation.
    """

    __slots__ = ("engine", "my_lists", "inbound", "ap_cursors",
                 "iop_cursors", "entries", "coalesced")

    def __init__(self, engine: "ListBasedEngine", my_lists,
                 inbound) -> None:
        #: {iop: (ol, d_lo)} — the lists I shipped as an AP
        self.my_lists = my_lists
        #: {src: (ol, d_lo)} — the lists I received as an IOP
        self.inbound = inbound
        self.engine = engine
        self.ap_cursors = {iop: [0, 0] for iop in my_lists}
        self.iop_cursors = {src: [0, 0] for src in inbound}
        self.entries = 0
        self.coalesced = 0

    def ap_span(self, iop, wlo, whi):
        item = self.my_lists.get(iop)
        if item is None:
            return None
        ol, dl = item
        picked, dstart = self.engine._pick_window(
            ol, self.ap_cursors[iop], wlo, whi
        )
        if not picked:
            return None
        total = sum(ln for _, ln in picked)
        return dl + dstart, dl + dstart + total

    def iop_pieces(self, wlo, whi, write):
        engine = self.engine
        pieces = []
        parts = []
        for src in sorted(self.inbound):
            ol, dl = self.inbound[src]
            picked, dstart = engine._pick_window(
                ol, self.iop_cursors[src], wlo, whi
            )
            if not picked:
                continue
            total = sum(ln for _, ln in picked)
            slot = in_slot(src) if write else out_slot(src)
            pieces.append(Piece(slot, dl + dstart, dl + dstart + total,
                                TupleBlocks(tuple(picked))))
            parts.append(picked)
            self.entries += len(picked)
        covered = 0
        if write and pieces:
            # ROMIO's contiguity optimization: merge all lists; skip
            # the pre-read iff they form one block covering the window.
            engine.stats.list_tuples_merged += sum(
                len(p) for p in parts
            )
            merged = merge_lists([OLList(p) for p in parts])
            if (
                len(merged) == 1
                and merged[0][0] <= wlo
                and merged[0][0] + merged[0][1] >= whi
            ):
                covered = whi - wlo
        return pieces, covered


class ListBasedEngine(IOEngine):
    """Conventional ol-list I/O engine."""

    name = "list_based"
    cacheable_plans = False  # lists are re-expanded on every access

    def __init__(self, fh) -> None:
        super().__init__(fh)
        self.flat: Optional[OLList] = None

    # ------------------------------------------------------------------
    def setup_view(self) -> None:
        """Explicitly flatten the filetype (no exchange happens here —
        the conventional implementation ships lists per access)."""
        with trace.span("list_based.setup_view"):
            cold = (
                getattr(self.fh.view.filetype, "_ollist_cache", None)
                is None
            )
            self.flat = flatten_cached(self.fh.view.filetype)
            if cold:
                self.stats.list_tuples_built += len(self.flat)
            self.planner.invalidate()
            # Collective call contract: everyone still synchronizes.
            self.fh.comm.barrier()

    # ------------------------------------------------------------------
    # Navigation by linear list traversal (the paper's §2.2 overhead)
    # ------------------------------------------------------------------
    def abs_of_data(self, data_off: int, end: bool = False) -> int:
        assert self.flat is not None
        view = self.fh.view
        self.stats.list_scans += 1
        if end and data_off > 0:
            q, r = divmod(data_off - 1, view.ft_size)
            i, within = self.flat.find_position(r)  # linear scan
            return (
                view.disp
                + q * view.ft_extent
                + self.flat.offsets[i]
                + within
                + 1
            )
        q, r = divmod(data_off, view.ft_size)
        i, within = self.flat.find_position(r)  # linear scan
        if i == len(self.flat):
            return view.disp + (q + 1) * view.ft_extent + self.flat.offsets[0]
        return view.disp + q * view.ft_extent + self.flat.offsets[i] + within

    def data_of_abs(self, abs_off: int) -> int:
        assert self.flat is not None
        view = self.fh.view
        rel = abs_off - view.disp
        if rel <= 0:
            return 0
        self.stats.list_scans += 1
        q, r = divmod(rel, view.ft_extent)
        return q * view.ft_size + self.flat.data_before(r)  # linear scan

    # ------------------------------------------------------------------
    # Memory side: per-access flattening; the listed bytes move in one
    # fused batched copy
    # ------------------------------------------------------------------
    def _mem_block_arrays(
        self, mem: MemDescriptor, d_lo: int, d_hi: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(buffer_offsets, lengths)`` index arrays of the contiguous
        memory blocks overlapping data range ``[d_lo, d_hi)``, in data
        order.

        The memtype ol-list is still built fresh for the access — the
        §2.1 list-building cost is untouched — but clipping and tiling
        happen vectorized, and because data bytes enumerate contiguously
        the destination of a fused copy is simply sequential.
        """
        flat = flatten_datatype(mem.memtype)  # fresh list, per access
        self.stats.list_tuples_built += len(flat)
        offs = np.asarray(flat.offsets, dtype=np.int64)
        lens = np.asarray(flat.lengths, dtype=np.int64)
        fsize = int(lens.sum())
        if fsize == 0 or d_hi <= d_lo:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        cum = np.concatenate((np.zeros(1, dtype=np.int64),
                              np.cumsum(lens)))
        i_lo = d_lo // fsize
        i_hi = min(-(-d_hi // fsize), mem.count)
        insts = np.arange(i_lo, i_hi, dtype=np.int64)
        ext = mem.memtype.extent
        dstart = (insts[:, None] * fsize + cum[None, :-1]).ravel()
        blens = np.tile(lens, len(insts))
        boffs = (
            mem.origin + insts[:, None] * ext + offs[None, :]
        ).ravel()
        a = np.maximum(d_lo - dstart, 0)
        b = np.minimum(d_hi - dstart, blens)
        keep = b > a
        return boffs[keep] + a[keep], (b - a)[keep]

    def pack_mem(self, mem: MemDescriptor, d_lo: int, d_hi: int,
                 out: np.ndarray) -> None:
        if mem.is_contiguous:
            out[: d_hi - d_lo] = mem.contiguous_slice(d_lo, d_hi - d_lo)
            return
        boffs, lens = self._mem_block_arrays(mem, d_lo, d_hi)
        gather_blocks(mem.as_bytes, boffs, lens, out, 0)

    def unpack_mem(self, mem: MemDescriptor, d_lo: int, d_hi: int,
                   data: np.ndarray) -> None:
        if mem.is_contiguous:
            mem.contiguous_slice(d_lo, d_hi - d_lo)[...] = data[: d_hi - d_lo]
            return
        boffs, lens = self._mem_block_arrays(mem, d_lo, d_hi)
        scatter_blocks(mem.as_bytes, boffs, lens, data, 0)

    # ------------------------------------------------------------------
    # View-side block walk (linear, with running state as in ROMIO)
    # ------------------------------------------------------------------
    def _view_blocks(
        self, lo: int, hi: int
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(abs_offset, length, data_offset)`` per view block
        clipped to absolute range ``[lo, hi)``, walking the flattened list
        one tuple at a time."""
        assert self.flat is not None
        view = self.fh.view
        flat = self.flat
        if len(flat) == 0:
            return
        ext = view.ft_extent
        fsize = view.ft_size
        rel = lo - view.disp
        inst = max(rel - flat.end_offset(), 0) // ext if ext else 0
        while True:
            base = view.disp + inst * ext
            if base + flat.offsets[0] >= hi:
                return
            dbase = inst * fsize
            dpos = 0
            for off, ln in zip(flat.offsets, flat.lengths):
                a = base + off
                b = a + ln
                if b > lo and a < hi:
                    s = max(lo - a, 0)
                    e = min(hi - a, ln)
                    yield (a + s, e - s, dbase + dpos + s)
                dpos += ln
                if a >= hi:
                    break
            inst += 1

    # ------------------------------------------------------------------
    # Deferred-piece codec: the executor streams blocks through the
    # engine's linear walk at execution time (independent access never
    # materializes a per-access list — it re-walks instead).
    # ------------------------------------------------------------------
    def stream_gather_window(self, fb: np.ndarray, wlo: int, whi: int,
                             arr: np.ndarray, base_d: int,
                             d_hi: int) -> int:
        copied = 0
        for a, ln, doff in self._view_blocks(wlo, whi):
            if doff >= d_hi:
                break
            ln = min(ln, d_hi - doff)
            arr[doff - base_d : doff - base_d + ln] = (
                fb[a - wlo : a - wlo + ln]
            )
            copied += ln
        return copied

    def stream_scatter_window(self, fb: np.ndarray, wlo: int, whi: int,
                              arr: np.ndarray, base_d: int,
                              d_hi: int) -> int:
        copied = 0
        for a, ln, doff in self._view_blocks(wlo, whi):
            if doff >= d_hi:
                break
            ln = min(ln, d_hi - doff)
            fb[a - wlo : a - wlo + ln] = (
                arr[doff - base_d : doff - base_d + ln]
            )
            copied += ln
        return copied

    # One file call per ol-list tuple, on purpose: this engine is the
    # paper's conventional list-based baseline, whose per-tuple access
    # cost is what the listless engine is measured against.  Handing
    # the tuples to the vectored ``preadv_blocks``/``pwritev_blocks``
    # (as the executor does for listless direct pieces) would erase
    # that cost from the comparison.
    def stream_read_blocks(self, file, lo: int, hi: int, arr: np.ndarray,
                           base_d: int, d_hi: int) -> None:
        for a, ln, doff in self._view_blocks(lo, hi):
            if doff >= d_hi:
                break
            ln = min(ln, d_hi - doff)
            pos = doff - base_d
            got = file.pread_into(a, arr[pos : pos + ln])
            if got < ln:
                arr[pos + got : pos + ln] = 0
        return None

    def stream_write_blocks(self, file, lo: int, hi: int, arr: np.ndarray,
                            base_d: int, d_hi: int) -> None:
        for a, ln, doff in self._view_blocks(lo, hi):
            if doff >= d_hi:
                break
            ln = min(ln, d_hi - doff)
            pos = doff - base_d
            file.pwrite(a, arr[pos : pos + ln])
        return None

    # ------------------------------------------------------------------
    # Collective access: per-access ol-list exchange + list merging.
    # Each collective runs as two plans: plan A ships the expanded
    # ol-lists — the window schedule depends on the *received* lists,
    # which the conventional scheme cannot know in advance — then the
    # shared round loop derives plan B from what arrived, with linear
    # cursors picking each window's tuples.  Data moves only inside
    # plan B's rounds.
    # ------------------------------------------------------------------
    def _expand_sends(self, rng: AccessRange, domains):
        """AP side: one expanded ol-list per IOP whose domain I touch."""
        assert self.flat is not None
        view = self.fh.view
        sends: List[Send] = []
        for iop, (dlo, dhi) in enumerate(domains):
            a_lo = max(dlo, rng.abs_lo)
            a_hi = min(dhi, rng.abs_hi)
            if a_hi <= a_lo:
                continue
            ol = expand_range(
                self.flat, view.ft_extent, view.disp, a_lo, a_hi
            )
            if len(ol) == 0:
                continue
            self.stats.list_tuples_built += len(ol)
            self.stats.list_tuples_sent += len(ol)
            dl = self.data_of_abs(ol.offsets[0])
            sends.append(Send(iop, ol=ol, d_lo=dl))
        return sends

    def _pick_window(self, ol: OLList, cursor: List[int], wlo: int,
                     whi: int) -> Tuple[List[Tuple[int, int]], int]:
        """Advance one contribution's linear cursor through a window;
        returns the clipped tuples and their starting data position."""
        idx, dpos = cursor
        picked: List[Tuple[int, int]] = []
        dstart = dpos
        while idx < len(ol):
            o, ln = ol.offsets[idx], ol.lengths[idx]
            if o >= whi:
                break
            if o + ln <= wlo:
                idx += 1
                dpos += ln
                continue
            s = max(wlo - o, 0)
            e = min(whi - o, ln)
            if not picked:
                dstart = dpos + s
            picked.append((o + s, e - s))
            if o + ln <= whi:
                idx += 1
                dpos += ln
            else:
                break  # block continues into the next window
        cursor[0], cursor[1] = idx, dpos
        return picked, dstart

    def collective_plan(self, write, rng: AccessRange, ranges, domains,
                        schedule) -> IOPlan:
        assert self.flat is not None
        comm = self.fh.comm
        d0 = rng.data_lo
        kind = "write" if write else "read"
        # --- Plan A: ship the per-IOP expanded ol-lists.  Expanding
        # them is the conventional scheme's per-access list building
        # (§2.1) — billed to the plan phase.
        t0 = time.perf_counter()
        sends = [] if rng.empty else self._expand_sends(rng, domains)
        plan_a = IOPlan(f"{kind}-collective(lists)", d0, 0,
                        (ExchangeOp(tuple(sends)),))
        self.stats.phases.add("plan", time.perf_counter() - t0)
        if trace.TRACE_ON:
            trace.TRACER.add("list_based.expand_lists", t0)
        bufs = self.run_plan(plan_a)
        # --- Plan B: the shared round loop, fed by linear cursors over
        # the lists I shipped (AP side) and the lists that arrived (IOP
        # side).  Deriving the window schedule is plan time again.
        t0 = time.perf_counter()
        inbound = {}
        for src in range(comm.size):
            item = bufs.get(in_slot(src))
            if item is None:
                continue
            ol, dl = item
            if len(ol) == 0:
                continue
            inbound[src] = (ol, dl)
        my_lists = {s.rank: (s.ol, s.d_lo) for s in sends}
        md = _ListBasedMetadata(self, my_lists, inbound)
        ops, nwin = build_round_plan(md, schedule, write, rng,
                                     comm.rank)
        nbytes = rng.data_hi - d0 if not rng.empty else 0
        plan_b = IOPlan(f"{kind}-collective", d0, nbytes, tuple(ops),
                        planned_windows=nwin)
        self.stats.phases.add("plan", time.perf_counter() - t0)
        if trace.TRACE_ON:
            trace.TRACER.add("list_based.derive_iop_schedule", t0)
        return plan_b
