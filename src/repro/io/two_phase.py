"""Shared scaffolding for two-phase collective I/O.

Both engines perform collective access the same way (paper §2.3): the
aggregate file range of all processes is partitioned into contiguous *file
domains*, each owned by an I/O process (IOP); access processes (APs) ship
their data for a domain to its IOP, which performs the actual file access
window by window.  What differs between the engines is only the
*metadata*: list-based I/O must build and send expanded ol-lists per
AP×IOP pair for every access, listless I/O navigates cached fileviews.

This module holds the engine-independent pieces: range aggregation over
the communicator, the access-range record, each IOP's window list, and
the AP↔IOP payload exchange itself; the domain split is
:func:`repro.intervals.split_even`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.intervals import tile
from repro.obs import trace

__all__ = [
    "AccessRange",
    "COLLECTIVE_TAG_BASE",
    "aggregate_ranges",
    "exchange",
    "exchange_p2p",
    "domain_windows",
]

#: Tag namespace reserved for relaxed-synchronization collective rounds
#: (round ``r`` of a collective exchanges under ``BASE + r``).  High
#: enough that user-level and runtime-internal tags never collide with
#: it, and below the proc backend's group-collective namespace
#: (``1 << 40``).  Tag reuse across back-to-back collectives is safe:
#: matching is FIFO per (source, tag) pair, and within one pair round
#: ``r`` of the next collective cannot overtake round ``r`` of the
#: previous one on the ordered transports both runtimes use.
COLLECTIVE_TAG_BASE = 1 << 30


@dataclass(frozen=True)
class AccessRange:
    """One process' access in absolute file bytes and view-data bytes.

    ``None`` bounds denote a zero-size access (the process still takes
    part in the collective calls).
    """

    abs_lo: Optional[int]
    abs_hi: Optional[int]
    data_lo: int
    data_hi: int

    @property
    def empty(self) -> bool:
        return self.abs_lo is None or self.abs_hi is None or (
            self.abs_hi <= self.abs_lo
        )


def aggregate_ranges(comm, mine: AccessRange, extra=None):
    """Allgather everyone's access range; returns (ranges, agg_lo, agg_hi).

    ``agg_lo``/``agg_hi`` are None when nobody accesses anything.  An
    optional per-rank ``extra`` payload piggybacks on the same allgather
    (no additional collective); when given, a fourth element — the list
    of every rank's extras — is appended to the return tuple.
    """
    if extra is not None:
        pairs = comm.allgather((mine, extra))
        ranges = [p[0] for p in pairs]
        extras = [p[1] for p in pairs]
    else:
        ranges = comm.allgather(mine)
        extras = None
    agg_lo: Optional[int] = None
    agg_hi: Optional[int] = None
    for r in ranges:
        if r.empty:
            continue
        agg_lo = r.abs_lo if agg_lo is None else min(agg_lo, r.abs_lo)
        agg_hi = r.abs_hi if agg_hi is None else max(agg_hi, r.abs_hi)
    if extra is not None:
        return ranges, agg_lo, agg_hi, extras
    return ranges, agg_lo, agg_hi


def exchange(comm, outbound: List) -> List:
    """The two-phase AP↔IOP payload exchange: one all-to-all.

    ``outbound[r]`` is this rank's contribution for rank ``r`` (``None``
    when it has nothing for that peer); returns the inbound list indexed
    by source rank.  Every byte the engines ship between access and I/O
    processes goes through here — on the simulated backend that is a
    reference hand-off between rank threads, on the proc backend a
    shared-memory copy between rank processes — so the exchange is the
    single seam both runtimes share.
    """
    with trace.span("two_phase.exchange"):
        return comm.alltoall(outbound)


def exchange_p2p(comm, outbound, sources, tag: int):
    """Relaxed-synchronization payload exchange: point-to-point only.

    Where the round metadata proves exactly which (AP, IOP) pairs move
    bytes, the synchronizing all-to-all is unnecessary: this rank sends
    each ``dest → payload`` of the ``outbound`` mapping eagerly, then
    completes
    receives from exactly ``sources`` in *arrival order* — no barrier,
    so ranks with empty windows in a round neither send nor wait.
    Returns ``{source: payload}``.

    Deadlock-free without ordering: sends buffer eagerly on both
    runtimes, so posting every send before any receive cannot stall.
    Self-transfers short-circuit without touching the transport.
    """
    with trace.span("two_phase.exchange_p2p"):
        inbound = {}
        me = comm.rank
        for dest, payload in outbound.items():
            if dest == me:
                inbound[me] = payload
            else:
                comm.send(dest, payload, tag=tag)
        pending = set(s for s in sources if s != me)
        while pending:
            src, payload = comm.recv_any(sorted(pending), tag)
            inbound[src] = payload
            pending.discard(src)
        return inbound


def domain_windows(
    domains: List[Tuple[int, int]], rank: int, cb_buffer_size: int
) -> List[Tuple[int, int]]:
    """File-buffer windows this rank serves as an IOP (possibly none).

    The planner's collective schedule: rank *i* owns domain *i* and
    covers it in ``cb_buffer_size`` windows; ranks beyond the IOP count
    and empty domains get no windows.
    """
    if rank >= len(domains):
        return []
    dlo, dhi = domains[rank]
    return tile(dlo, dhi, cb_buffer_size)
