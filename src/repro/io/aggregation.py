"""Engine-neutral round-based aggregation for two-phase collectives.

Both engines used to run their own private copy of the two-phase loop
(paper §2.3): partition the aggregate range into per-IOP file domains,
ship every AP's whole contribution to the owning IOPs in one bulk
exchange, then let each IOP walk its domain window by window.  That
one-shot exchange forces every IOP to buffer O(domain) bytes at once.

This module replaces both copies with one *round-based* driver: the
collective proceeds in rounds, one ``cb_buffer_size`` window per IOP per
round.  In each round every AP packs only the bytes falling into that
round's windows and ships them in a single alltoall, and each IOP
accesses exactly one window — bounding IOP staging memory to
O(cb_buffer_size × participating APs) and interleaving exchange with
file I/O.  What stays engine-specific is only the *metadata* — how a
rank learns which data bytes land in a window — behind the narrow
:class:`CollectiveMetadata` protocol (listless: ff navigation of cached
compact views; list-based: cursors over exchanged ol-lists).

File-domain partitioning is pluggable (the ``cb_domain_align`` hint):

``even``
    ROMIO's balanced byte split (the previous behavior);
``stripe``
    domain boundaries snapped down to ``fs/striping.py`` stripe
    boundaries, so each IOP accesses whole stripes and no two IOPs
    contend for one stripe;
``block``
    boundaries snapped to fileview block-period edges
    (``Type_ff_extent``-style: the largest ``disp + k·extent`` at or
    below the even boundary, over all accessing ranks' views), so a
    filetype instance is never split between IOPs.

Unset, the planner's cost model (:func:`repro.mpi.cost_model.
choose_domain_align`) picks a strategy per access.  Every strategy
covers ``[agg_lo, agg_hi)`` exactly with no overlap (snapped boundaries
that would cross fall back to the even split), so file contents are
byte-identical across strategies, engines and runtimes.

Only backends that are not a :class:`~repro.fs.simfile.FileBuffer` run
this driver: on ``SimFile``/``OsFile`` a collective is one barrier and
each rank's own mapped access (:meth:`repro.io.engines.base.IOEngine.
collective`).  See ``docs/collective.md`` for the full pipeline.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Protocol, Tuple

from repro.intervals import floor_to, split_even
from repro.io.two_phase import (
    COLLECTIVE_TAG_BASE,
    AccessRange,
    aggregate_ranges,
    domain_windows,
)
from repro.mpi.cost_model import (
    PIPELINE_DEPTH,
    choose_domain_align,
    choose_pipeline,
)
from repro.obs import flight, trace
from repro.plan.ops import (
    DrainOp,
    ExchangeOp,
    FileReadOp,
    FileWriteOp,
    GatherOp,
    Piece,
    RoundOp,
    ScatterOp,
    Send,
    in_slot,
    out_slot,
)

__all__ = [
    "CollectiveMetadata",
    "RoundSchedule",
    "build_round_plan",
    "domain_skew",
    "partition_domains_aligned",
    "run_collective",
    "snap_to_blocks",
]


# ----------------------------------------------------------------------
# File-domain partitioning strategies
# ----------------------------------------------------------------------
def snap_to_blocks(
    boundary: int, geoms: List[Tuple[int, int]]
) -> Optional[int]:
    """Largest fileview block-period edge at or below ``boundary``.

    ``geoms`` holds ``(disp, ft_extent)`` per accessing rank; an edge is
    any ``disp + k·extent``.  Returns ``None`` when no view has an edge
    at or below the boundary (degenerate extents, boundary before every
    displacement) — the caller falls back to the even split.
    """
    edges = [floor_to(boundary, ext, disp) for disp, ext in geoms
             if ext > 0 and boundary >= disp]
    return max(edges, default=None)


def partition_domains_aligned(
    agg_lo: int,
    agg_hi: int,
    niops: int,
    align: str = "even",
    *,
    stripe_size: Optional[int] = None,
    geoms: Optional[List[Tuple[int, int]]] = None,
) -> List[Tuple[int, int]]:
    """Split ``[agg_lo, agg_hi)`` into ``niops`` domains under a
    partitioning strategy.

    Starts from ROMIO's even byte split and snaps each interior boundary
    down to the nearest aligned position; a snap that would land at or
    before the previous boundary reverts to the even boundary, so the
    result always covers the aggregate range exactly, with no overlap
    (some domains may be empty — the round schedule skips those IOPs).
    """
    even = split_even(agg_lo, agg_hi, niops)
    if align == "even" or niops <= 1:
        return even
    bounds = [agg_lo]
    for i in range(niops - 1):
        b = even[i][1]
        if align == "stripe" and stripe_size:
            snapped: Optional[int] = floor_to(b, stripe_size)
        elif align == "block" and geoms:
            snapped = snap_to_blocks(b, geoms)
        else:
            snapped = None
        if snapped is None or snapped <= bounds[-1]:
            snapped = max(b, bounds[-1])
        bounds.append(min(snapped, agg_hi))
    bounds.append(agg_hi)
    return list(zip(bounds[:-1], bounds[1:]))


def domain_skew(domains: List[Tuple[int, int]]) -> int:
    """Byte imbalance an alignment strategy introduced: largest minus
    smallest domain size."""
    if not domains:
        return 0
    sizes = [dhi - dlo for dlo, dhi in domains]
    return max(sizes) - min(sizes)


# ----------------------------------------------------------------------
# Round schedule
# ----------------------------------------------------------------------
class RoundSchedule:
    """The window timetable of one collective access.

    Round *r* pairs IOP *i* with the *r*-th ``cb_buffer_size`` window of
    its domain; IOPs whose domain is exhausted (or empty) sit the round
    out as IOPs but keep participating as APs.  The schedule is a pure
    function of (domains, cb_buffer_size), so every rank derives the
    identical timetable without communicating.

    ``pipeline`` selects the plan shape :func:`build_round_plan` emits:
    serial (strict exchange → file-I/O per round, synchronizing
    alltoall) or pipelined (double-buffered windows, background file
    I/O, relaxed p2p round synchronization).  The driver resolves it
    from the ``cb_pipeline`` hint and the round count — both rank-
    identical, so all ranks agree without a coordinating collective.
    """

    def __init__(self, domains: List[Tuple[int, int]],
                 cb_buffer_size: int, pipeline: bool = False) -> None:
        self.domains = domains
        self.cb_buffer_size = cb_buffer_size
        self.pipeline = pipeline
        self.windows = [
            domain_windows(domains, iop, cb_buffer_size)
            for iop in range(len(domains))
        ]
        self.nrounds = max((len(w) for w in self.windows), default=0)

    def window(self, iop: int, rnd: int) -> Optional[Tuple[int, int]]:
        """IOP ``iop``'s window in round ``rnd`` (``None`` when it has
        none — past its domain end, empty domain, or not an IOP)."""
        if iop >= len(self.windows):
            return None
        w = self.windows[iop]
        return w[rnd] if rnd < len(w) else None

    def active(
        self, rnd: int
    ) -> Iterator[Tuple[int, Tuple[int, int]]]:
        """Yield ``(iop, (wlo, whi))`` for every IOP serving a window in
        round ``rnd``, in IOP order (the order AP-side cursors advance)."""
        for iop, w in enumerate(self.windows):
            if rnd < len(w):
                yield iop, w[rnd]


# ----------------------------------------------------------------------
# Engine metadata protocol
# ----------------------------------------------------------------------
class CollectiveMetadata(Protocol):
    """What an engine must answer to drive one collective access.

    Implementations may keep per-access state (the list-based engine
    advances linear cursors), so the builder guarantees an ordered query
    discipline *per query family*: ``ap_span`` is asked per active IOP
    in IOP order with rounds ascending, and ``iop_pieces`` is asked for
    this rank's own windows in ascending window order — each IOP's
    window sequence is visited exactly once, in file order, within each
    family.  The two families may interleave out of round-lockstep (the
    pipelined builder asks for the *next* round's own-window pieces
    before the current round's spans, to prefetch), so implementations
    must not share cursor state between them.

    The *symmetry invariant* both sides must uphold: for any (AP, IOP,
    window), the AP's ``ap_span`` is non-empty **iff** the IOP's
    ``iop_pieces`` emits a piece for that AP — a send in some round must
    be matched by a consumer in the same round, or the IOP would read a
    stale staging buffer.
    """

    #: materialized block entries accumulated while answering queries
    #: (plan-cache size guard)
    entries: int
    #: bytes whose file accesses were merged by block coalescing
    coalesced: int

    def ap_span(self, iop: int, wlo: int,
                whi: int) -> Optional[Tuple[int, int]]:
        """My data bytes ``(d_lo, d_hi)`` falling in window
        ``[wlo, whi)`` of IOP ``iop``'s domain, or ``None``."""
        ...

    def iop_pieces(
        self, wlo: int, whi: int, write: bool
    ) -> Tuple[List[Piece], int]:
        """Per-AP pieces of my own window ``[wlo, whi)`` plus the
        covered byte count (``>= whi - wlo`` → a write may assemble the
        window without pre-reading).  Write pieces name inbound exchange
        slots, read pieces name outbound reply slots."""
        ...


# ----------------------------------------------------------------------
# The shared round loop
# ----------------------------------------------------------------------
def build_round_plan(
    md: CollectiveMetadata,
    schedule: RoundSchedule,
    write: bool,
    rng: AccessRange,
    rank: int,
) -> Tuple[List[object], int]:
    """Build the op list of one rank's round-based collective.

    Returns ``(ops, windows_planned)``.  Two plan shapes, selected by
    ``schedule.pipeline``:

    *Serial* (``pipeline=False``): the strict ``exchange → file I/O``
    sequence per round.  Every rank emits exactly ``schedule.nrounds``
    :class:`~repro.plan.ops.ExchangeOp`\\ s — the alltoall is
    synchronizing, so ranks with nothing to move still take part in
    every round.

    *Pipelined* (``pipeline=True``): a software pipeline.  Exchanges
    carry ``mode="p2p"`` with the exact send/recv peer sets the
    metadata proved (the symmetry invariant makes both sides derivable
    without coordination), so idle ranks skip the round barrier
    entirely; file ops are marked ``overlap`` so the executor runs
    round *N*'s file I/O on its pipeline worker while round *N+1*'s
    pack/exchange proceeds.  Writes stay ordered per IOP: windows are
    submitted in round order to a FIFO worker, read-modify-write
    windows stay synchronous (drain-first), and a final
    :class:`~repro.plan.ops.DrainOp` closes the pipeline.  Reads
    prefetch: round *N*'s plan issues the read of window *N+1*, then
    drains window *N* (``keep=1`` — the double buffer) before
    exchanging its replies.
    """
    if schedule.pipeline:
        return _build_pipelined(md, schedule, write, rank)
    ops: List[object] = []
    nwin = 0
    nrounds = schedule.nrounds
    for rnd in range(nrounds):
        ops.append(RoundOp(rnd, nrounds))
        if write:
            # AP phase: pack this round's bytes per destination IOP.
            sends = []
            for iop, (wlo, whi) in schedule.active(rnd):
                span = md.ap_span(iop, wlo, whi)
                if span is not None:
                    pl, ph = span
                    slot = out_slot(iop)
                    ops.append(GatherOp(pl, ph, slot))
                    sends.append(Send(iop, slot=slot))
            ops.append(ExchangeOp(tuple(sends)))
            # IOP phase: overlay the received pieces on my window.
            win = schedule.window(rank, rnd)
            if win is not None:
                wlo, whi = win
                pieces, covered = md.iop_pieces(wlo, whi, write=True)
                if pieces:
                    mode = ("assemble" if covered >= whi - wlo
                            else "rmw")
                    ops.append(
                        FileWriteOp(wlo, whi, mode, tuple(pieces))
                    )
                    nwin += 1
        else:
            # IOP phase: read my window, reply per requesting AP.
            sends = []
            win = schedule.window(rank, rnd)
            if win is not None:
                wlo, whi = win
                pieces, _covered = md.iop_pieces(wlo, whi, write=False)
                if pieces:
                    ops.append(
                        FileReadOp(wlo, whi, "window", tuple(pieces))
                    )
                    nwin += 1
                    sends = [Send(p.slot[1], slot=p.slot)
                             for p in pieces]
            ops.append(ExchangeOp(tuple(sends)))
            # AP phase: scatter this round's replies into user memory.
            for iop, (wlo, whi) in schedule.active(rnd):
                span = md.ap_span(iop, wlo, whi)
                if span is not None:
                    pl, ph = span
                    ops.append(ScatterOp(pl, ph, in_slot(iop)))
    return ops, nwin


def _build_pipelined(
    md: CollectiveMetadata,
    schedule: RoundSchedule,
    write: bool,
    rank: int,
) -> Tuple[List[object], int]:
    """Pipelined plan shape (see :func:`build_round_plan`)."""
    ops: List[object] = []
    nwin = 0
    nrounds = schedule.nrounds
    if write:
        for rnd in range(nrounds):
            ops.append(RoundOp(rnd, nrounds))
            # AP phase: pack this round's bytes per destination IOP.
            sends = []
            for iop, (wlo, whi) in schedule.active(rnd):
                span = md.ap_span(iop, wlo, whi)
                if span is not None:
                    pl, ph = span
                    slot = out_slot(iop)
                    ops.append(GatherOp(pl, ph, slot))
                    sends.append(Send(iop, slot=slot))
            # IOP phase, derived before the exchange so the exchange
            # knows its receive set: who sends into my window is exactly
            # who has a piece there (the symmetry invariant).
            wop = None
            recvs: Tuple[int, ...] = ()
            win = schedule.window(rank, rnd)
            if win is not None:
                wlo, whi = win
                pieces, covered = md.iop_pieces(wlo, whi, write=True)
                if pieces:
                    # Only fully-covered windows may run behind the next
                    # round (rmw pre-reads must stay ordered).
                    mode = ("assemble" if covered >= whi - wlo
                            else "rmw")
                    wop = FileWriteOp(wlo, whi, mode, tuple(pieces),
                                      overlap=mode == "assemble")
                    recvs = tuple(p.slot[1] for p in pieces)
                    nwin += 1
            ops.append(ExchangeOp(tuple(sends), mode="p2p", recvs=recvs,
                                  tag=COLLECTIVE_TAG_BASE + rnd))
            if wop is not None:
                ops.append(wop)
        if nrounds:
            ops.append(DrainOp(0))
        return ops, nwin
    # Reads: prefetch up to ``PIPELINE_DEPTH`` windows ahead on the
    # worker while replies are exchanged and scattered.  Each round's
    # drain waits for exactly its own window (the worker is FIFO, so
    # ``keep`` = the number of deeper prefetches still in flight) and
    # publishes it; deeper windows carry their target round on the op,
    # so an early completion is held back — the per-peer staging slots
    # are reused from round to round and must not be overwritten before
    # the round's exchange has shipped them.  Round 0's window executes
    # synchronously at the top of its round.
    # ``iop_pieces`` windows are still queried in ascending order — the
    # memoized ``spec`` never re-queries — as the metadata query-family
    # protocol requires.
    specs = {}

    def spec(q):
        if q not in specs:
            win = schedule.window(rank, q)
            if win is None:
                specs[q] = None
            else:
                wlo, whi = win
                pieces, _covered = md.iop_pieces(wlo, whi, write=False)
                specs[q] = ((wlo, whi, tuple(pieces))
                            if pieces else None)
        return specs[q]

    pending: List[int] = []  # prefetched window rounds, FIFO order
    for rnd in range(nrounds):
        ops.append(RoundOp(rnd, nrounds))
        cur = spec(rnd)
        if pending and pending[0] == rnd:
            pending.pop(0)
            # Publish this round's window; deeper prefetches stay in
            # flight (FIFO ⇒ at most ``len(pending)`` jobs remain).
            ops.append(DrainOp(len(pending)))
            nwin += 1
        elif cur is not None:
            # Round 0 (no round before it to prefetch behind).
            wlo, whi, pieces = cur
            ops.append(FileReadOp(wlo, whi, "window", pieces))
            nwin += 1
        # Top up the prefetch pipe behind this round's exchange.
        q = (pending[-1] if pending else rnd) + 1
        while len(pending) < PIPELINE_DEPTH and q < nrounds:
            nxt = spec(q)
            if nxt is None:
                q += 1
                continue
            wlo, whi, pieces = nxt
            ops.append(FileReadOp(wlo, whi, "window", pieces,
                                  overlap=True, round=q))
            pending.append(q)
            q += 1
        sends = (tuple(Send(p.slot[1], slot=p.slot) for p in cur[2])
                 if cur else ())
        recvs = []
        scatters = []
        for iop, (wlo, whi) in schedule.active(rnd):
            span = md.ap_span(iop, wlo, whi)
            if span is not None:
                pl, ph = span
                recvs.append(iop)
                scatters.append(ScatterOp(pl, ph, in_slot(iop)))
        ops.append(ExchangeOp(sends, mode="p2p", recvs=tuple(recvs),
                              tag=COLLECTIVE_TAG_BASE + rnd))
        ops.extend(scatters)
    return ops, nwin


# ----------------------------------------------------------------------
# The collective driver
# ----------------------------------------------------------------------
def run_collective(engine, mem, d0: int, write: bool) -> None:
    """Orchestrate one collective access end to end.

    Aggregates ranges (piggybacking each rank's view geometry on the
    same allgather), partitions the file domains under the chosen
    alignment strategy, derives the round schedule, asks the engine for
    its plan and runs it.  Empty-domain IOPs and ranks beyond the IOP
    count fall out of the schedule uniformly — neither engine re-checks.
    """
    fh = engine.fh
    comm = fh.comm
    stats = engine.stats
    hints = fh.hints

    # The range allgather (and waiting for slower ranks inside it) is
    # the collective's synchronization cost.
    t0 = time.perf_counter()
    rng = engine.access_range(mem, d0)
    ranges, agg_lo, agg_hi, geoms = aggregate_ranges(
        comm, rng, extra=engine.domain_geometry()
    )
    stats.phases.add("sync", time.perf_counter() - t0)
    if trace.TRACE_ON:
        trace.TRACER.add("two_phase.aggregate_ranges", t0)
    if agg_lo is None:
        return  # nobody accesses anything

    niops = hints.effective_cb_nodes(comm.size)
    striping = getattr(fh.simfile, "striping", None)
    live_geoms = [g for g, r in zip(geoms, ranges) if not r.empty]
    align = hints.cb_domain_align
    if align is None:
        align = choose_domain_align(
            total_bytes=agg_hi - agg_lo,
            niops=niops,
            ndisks=striping.ndisks if striping else 1,
            stripe_size=striping.stripe_size if striping else 1,
            max_ft_extent=max((ext for _d, ext in live_geoms),
                              default=0),
        )
    domains = partition_domains_aligned(
        agg_lo, agg_hi, niops, align,
        stripe_size=striping.stripe_size if striping else None,
        geoms=live_geoms,
    )
    schedule = RoundSchedule(domains, hints.cb_buffer_size)
    # Pipeline decision: a pure function of rank-identical inputs (the
    # hint, and a round count derived from the allgathered ranges), so
    # every rank agrees without another collective.
    schedule.pipeline = choose_pipeline(
        mode=hints.cb_pipeline, nrounds=schedule.nrounds
    )
    stats.coll_rounds += schedule.nrounds
    stats.coll_domain_skew = max(stats.coll_domain_skew,
                                 domain_skew(domains))
    if trace.TRACE_ON:
        trace.TRACER.add("aggregation.partition", t0, align=align,
                         niops=niops, nrounds=schedule.nrounds,
                         pipeline=schedule.pipeline)
    # Flight-recorder breadcrumb: if this collective dies mid-flight,
    # the record names what was being attempted and how far it got
    # (per-round progress lands via the executor's ``note_round``).
    flight.note("collective", comm.world_rank, path="two_phase",
                write=write, rounds=schedule.nrounds,
                pipeline=schedule.pipeline, align=align)
    plan = engine.collective_plan(write, rng, ranges, domains, schedule)
    engine.run_plan(plan, mem)
