"""Engine interface and the logic both engines share.

An engine translates *view-relative data offsets* into file accesses.  The
file handle drives it through five operations: ``setup_view`` (collective,
once per ``set_view``) and the four access kinds (independent/collective ×
read/write), each given a :class:`~repro.io.fileview.MemDescriptor` and
the starting data offset through the view.

Every access is performed in two explicit steps (see ``docs/planning.md``):
the engine's :class:`~repro.plan.planner.Planner` *plans* it — producing a
declarative :class:`~repro.plan.plan.IOPlan` of typed ops — and its
:class:`~repro.plan.executor.PlanExecutor` *runs* the plan against the
open file, whatever backend holds its bytes (``SimFile``, ``OsFile`` or
``ShardedFile``); pipelined collective rounds offload file ops to the
executor's one deferred worker.  The base class owns that plumbing plus
the collective orchestration — mapped on a ``SimFile``/``OsFile``,
two-phase rounds elsewhere — and the common geometry.  Subclasses
supply navigation, the pack/unpack codec the executor copies memory
with, the plan geometry (a navigable compact view, or nothing), and the
collective phases — precisely the representational pieces the paper
contrasts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro import tally
from repro.datatypes.basic import BYTE
from repro.fs.simfile import FileBuffer
from repro.io.fileview import MemDescriptor
from repro.io.two_phase import AccessRange
from repro.obs import flight, trace
from repro.obs.phases import PhaseAccumulator, RoundLog
from repro.plan.stats import PlanStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.io.file_handle import File
    from repro.plan.plan import IOPlan

__all__ = ["IOEngine", "EngineStats"]

@tally.tallied
@dataclass
class EngineStats(tally.Tallied):
    """Counters quantifying the paper's §2.4 overheads per rank.

    The list-based engine increments the ``list_*`` family; the listless
    engine increments ``ff_*``.  Tests and benchmarks read these to
    verify, for example, that the listless engine builds zero tuples, or
    how many tuples a collective access shipped.  The nested ``plan``
    counters describe the plan layer (windows planned, bytes coalesced,
    cache hits, ops executed) and are flattened into :meth:`snapshot`.
    ``ff_kernel_calls`` reads its base plus the copies of the live bound
    calls that count there (:mod:`repro.tally`).
    """

    TERMS = {"ff_kernel_calls": tally.runs}

    #: ol-list tuples materialized (flattening + per-access expansions)
    list_tuples_built: int = 0
    #: ol-list tuples serialized to other ranks (16 B each on the wire)
    list_tuples_sent: int = 0
    #: tuples fed through the O(Σ Nblock) collective-write merge
    list_tuples_merged: int = 0
    #: linear list scans performed for navigation
    list_scans: int = 0
    #: O(depth) dataloop navigations performed
    ff_navigations: int = 0
    #: ff_pack/ff_unpack invocations on the memory side of accesses
    _ff_kernel_calls: int = 0
    #: compact fileview bytes exchanged (one-time, at set_view)
    ff_view_bytes_exchanged: int = 0
    #: aggregation rounds scheduled across this rank's collectives
    coll_rounds: int = 0
    #: worst byte imbalance a domain-alignment strategy introduced
    #: (largest minus smallest domain of any collective so far)
    coll_domain_skew: int = 0
    #: plan-layer counters (shared by this engine's planner and executor)
    plan: PlanStats = field(default_factory=PlanStats)
    #: per-phase wall-time buckets (plan/pack/unpack/file_io/exchange/
    #: lock/sync), shared with this engine's planner and executor — the
    #: Table-3-style decomposition (``repro.obs.phases``)
    phases: PhaseAccumulator = field(default_factory=PhaseAccumulator)
    #: per-round exchange/file_io decomposition of collective accesses,
    #: appended by the executor at every RoundOp span
    rounds: RoundLog = field(default_factory=RoundLog)
    #: live tallies (see :class:`~repro.tally.Tallied`)
    _tallies: tuple = field(default=(), repr=False, compare=False)

    def snapshot(self) -> dict:
        """This engine's counters, sorted for diffable output.

        Strictly per-engine: the session-wide block-program and
        kernel-path counters are *not* merged in here (they used to be,
        which double-reported them across open files and made per-engine
        reset a lie) — the :mod:`repro.obs.metrics` registry reports
        them exactly once under its ``global`` section.
        """
        out = {
            "list_tuples_built": self.list_tuples_built,
            "list_tuples_sent": self.list_tuples_sent,
            "list_tuples_merged": self.list_tuples_merged,
            "list_scans": self.list_scans,
            "ff_navigations": self.ff_navigations,
            "ff_kernel_calls": self.ff_kernel_calls,
            "ff_view_bytes_exchanged": self.ff_view_bytes_exchanged,
            "coll_rounds": self.coll_rounds,
            "coll_domain_skew": self.coll_domain_skew,
        }
        out.update(self.plan.snapshot())
        return dict(sorted(out.items()))


class IOEngine:
    """Abstract engine; one instance per (rank, open file)."""

    name = "abstract"
    #: Whether this engine's plans may be served from the planner's LRU
    #: cache.  Listless plans derive from the cached compact fileview and
    #: are cacheable; the conventional engine re-expands ol-lists per
    #: access, so caching its plans would erase the very cost it models.
    cacheable_plans = True

    def __init__(self, fh: "File") -> None:
        self.fh = fh
        self.stats = EngineStats()
        # Imported lazily: repro.plan pulls in repro.io helpers, and the
        # engines themselves are imported lazily from the file handle.
        from repro.plan.executor import PlanExecutor
        from repro.plan.planner import Planner

        self.planner = Planner(
            self, cacheable=self.cacheable_plans, stats=self.stats.plan,
            phases=self.stats.phases,
        )
        self.executor = PlanExecutor(
            fh.simfile, codec=self, comm=fh.comm, stats=self.stats.plan,
            phases=self.stats.phases, rounds=self.stats.rounds,
        )
        #: Whether this file's bytes are one shared buffer
        #: (:class:`~repro.fs.simfile.FileBuffer`): then every access
        #: is mapped — the planner's mapped independent plan, and
        #: :meth:`collective`'s barrier-plus-mapped-access, not two-phase.
        self.mapped = isinstance(fh.simfile, FileBuffer)
        fh.session.metrics.register_engine(self)

    def close(self) -> None:
        """Release engine resources (the executor's pipeline worker)
        and fold the bound calls' tallies into the counters.

        The handle, the planner and the executor (whose codec is this
        engine) each point back at the engine; dropping them here lets
        refcounting alone free a closed file.  ``stats`` stays readable.
        """
        self.planner.drop_replays()
        self.executor.close()
        self.fh = self.planner = self.executor = None

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    def setup_view(self) -> None:
        """Collective per-``set_view`` preparation.  Subclasses must call
        ``self.planner.invalidate()`` — a new view voids cached plans."""
        raise NotImplementedError

    def abs_of_data(self, data_off: int, end: bool = False) -> int:
        """Absolute file offset of view data byte ``data_off``."""
        raise NotImplementedError

    def data_of_abs(self, abs_off: int) -> int:
        """View data bytes strictly before absolute offset ``abs_off``."""
        raise NotImplementedError

    def plan_geometry(self):
        """Navigable view geometry for the planner, or ``None``.

        Engines returning a :class:`~repro.core.fileview_cache.
        CompactFileview` get materialized block lists and per-window
        clipping in their plans; engines returning ``None`` get deferred
        pieces streamed through their own view walk at execution time.
        """
        return None

    def pack_mem(self, mem: MemDescriptor, d_lo: int, d_hi: int,
                 out: np.ndarray) -> None:
        """Pack memory data bytes ``[d_lo, d_hi)`` into ``out``."""
        raise NotImplementedError

    def unpack_mem(self, mem: MemDescriptor, d_lo: int, d_hi: int,
                   data: np.ndarray) -> None:
        """Unpack contiguous ``data`` into memory data bytes
        ``[d_lo, d_hi)``."""
        raise NotImplementedError

    def collective_plan(self, write: bool, rng: AccessRange,
                        ranges: List[AccessRange],
                        domains: List[Tuple[int, int]],
                        schedule) -> "IOPlan":
        """Build the round-based plan for one collective access.

        Called by :func:`repro.io.aggregation.run_collective` after the
        range aggregation, domain partitioning and round scheduling —
        all engine-neutral.  The listless engine delegates to its
        (caching) planner; the list-based engine first ships ol-lists
        (its per-access metadata exchange), then derives the plan from
        what arrived.
        """
        raise NotImplementedError

    def collective_metadata(self, write: bool, rng: AccessRange,
                            ranges: List[AccessRange]):
        """The engine's :class:`repro.io.aggregation.CollectiveMetadata`
        for one access (how a rank learns which data bytes land in a
        window).  Required only by engines whose ``collective_plan``
        goes through the shared planner."""
        raise NotImplementedError

    def domain_geometry(self) -> Tuple[int, int]:
        """``(disp, ft_extent)`` of this rank's fileview — piggybacked
        on the collective range allgather so the ``block`` domain
        alignment can snap boundaries to any rank's block-period edges
        without an extra collective."""
        view = self.fh.view
        return (view.disp, view.ft_extent)

    # ------------------------------------------------------------------
    # Shared geometry
    # ------------------------------------------------------------------
    def access_range(self, mem: MemDescriptor, d0: int) -> AccessRange:
        """Absolute file range of an access of ``mem.nbytes`` data bytes
        starting at view data offset ``d0``."""
        n = mem.nbytes
        if n == 0:
            return AccessRange(None, None, d0, d0)
        return AccessRange(
            self.abs_of_data(d0),
            self.abs_of_data(d0 + n, end=True),
            d0,
            d0 + n,
        )

    # ------------------------------------------------------------------
    # Independent access: plan, then run
    # ------------------------------------------------------------------
    def plan_write_independent(self, mem: MemDescriptor,
                               d0: int) -> "IOPlan":
        return self.planner.plan_independent(d0, mem.nbytes, write=True)

    def plan_read_independent(self, mem: MemDescriptor,
                              d0: int) -> "IOPlan":
        return self.planner.plan_independent(d0, mem.nbytes, write=False)

    def run_plan(self, plan: "IOPlan",
                 mem: Optional[MemDescriptor] = None,
                 file_delta: int = 0, bound=None) -> dict:
        if bound is None and self.fh.hints.ship_protocol is not None:
            # Sharded-backend request shipping: rewrite eligible file
            # ops into ShipOps (no-op on non-sharded backends).
            from repro.io import shipping

            plan = shipping.maybe_rewrite(self, plan)
        return self.executor.run(plan, mem, file_delta, bound)

    def run_independent(self, buf, count, memtype, d0: int, write: bool,
                        traced: bool = False) -> int:
        """Access ``count`` x ``memtype`` in ``buf`` (or a validated
        :class:`MemDescriptor`) at view data offset ``d0``; returns the
        bytes moved.  A replay on a file buffer is its plan's
        :class:`~repro.plan.executor.BoundCall`, kept in the replay
        entry: one call, given any C-contiguous ``ndarray`` as it is;
        any other buffer is validated by a :class:`MemDescriptor` first
        (in atomic mode under the range lock of
        :meth:`File._atomic_range`).  Anything else plans from the one
        replay entry looked up, binds the plan if the table keeps it,
        and runs it — with tracing on, inside an
        ``<engine>.<kind>_independent`` span (``traced``)."""
        t0 = perf_counter()
        mem = buf if type(buf) is MemDescriptor else None
        if mem is not None:
            buf, count, memtype = mem.as_bytes, mem.count, mem.memtype
        elif memtype is None:
            memtype, count = BYTE, buf.nbytes if count is None else count
        elif count is None:
            count = 1
        fh, planner = self.fh, self.planner
        if fh.hints is not planner.fp_hints:
            planner._fingerprint()  # new hints: drops a stale table
        view = fh.view
        q, r = divmod(d0, view.ft_size)
        key = (write, r, count * memtype.size)
        entry = planner.replay.get(key)
        bound = entry and entry[2]
        if (bound is not None and bound.memtype is memtype
                and bound.count == count):
            delta = (q - entry[1]) * view.ft_extent
            if (not fh.shared.atomicity
                    and (traced or not trace.TRACE_ON)):
                n = bound.run(buf, delta, t0)
                if n is not None:
                    planner.replay.move_to_end(key)
                    return n
        else:
            bound = None
        mem = mem or MemDescriptor(buf, count, memtype, dest=not write)
        n = mem.nbytes
        if not n:
            return 0
        if trace.TRACE_ON and not traced:
            kind = "write" if write else "read"
            with trace.span(f"{self.name}.{kind}_independent", bytes=n):
                return self.run_independent(mem, None, None, d0, write, True)
        guard = fh._atomic_range(mem, d0)
        if guard:
            fh.simfile.lock_range(*guard)
        try:
            if bound is not None:
                planner.replay.move_to_end(key)
                return bound.run(mem.as_bytes, delta, t0)
            plan, delta = planner.plan_independent_bound(d0, n, write,
                                                         entry)
            # A plan the table keeps runs as the call its entry keeps;
            # any other runs as a call bound and folded by the executor.
            bound = (self.mapped and plan.signature is not None
                     and self.executor.bind(plan, mem)) or None
            try:
                self.run_plan(plan, mem, delta, bound)
            except BaseException:
                if bound is not None:
                    bound.fold()
                raise
            if bound is not None:
                planner.remember(key, (plan, q if entry is None
                                       else entry[1], bound))
            return n
        finally:
            if guard:
                fh.simfile.unlock_range(*guard)

    # ------------------------------------------------------------------
    # Collective access: mapped on a file buffer, else two-phase rounds
    # ------------------------------------------------------------------
    def collective(self, buf, count, memtype, d0: int, write: bool,
                   traced: bool = False) -> int:
        """One collective access of ``count`` x ``memtype`` in ``buf``
        (or a validated :class:`MemDescriptor`) at view data offset
        ``d0``; returns the bytes moved.  With tracing on it runs inside
        an ``<engine>.write_collective``/``read_collective`` span whose
        ``path`` attribute names the path taken (``"mapped"`` or
        ``"two_phase"``).

        On a :class:`~repro.fs.simfile.FileBuffer` (``SimFile``,
        ``OsFile``) every rank already shares the file's bytes, so the
        access is *mapped*: one barrier, then the rank's own access
        through :meth:`run_independent` — its bound call on a replay,
        the whole-access range lock in atomic mode — which validates
        the buffer, once, after the barrier.  The barrier orders every
        rank's previous collective before any rank touches the file —
        the ordering the two-phase range allgather gives — so a
        collective read followed by a peer's collective write of the
        same bytes still returns the old bytes.  Every other backend
        validates the buffer and runs the round-based two-phase driver
        (:func:`repro.io.aggregation.run_collective`).
        """
        if trace.TRACE_ON and not traced:
            kind = "write" if write else "read"
            with trace.span(f"{self.name}.{kind}_collective",
                            bytes=_nbytes(buf, count, memtype),
                            path="mapped" if self.mapped else "two_phase"):
                return self.collective(buf, count, memtype, d0, write,
                                       True)
        if not self.mapped:
            # Imported lazily like the rest of the plan machinery.
            from repro.io.aggregation import run_collective

            mem = (buf if type(buf) is MemDescriptor else
                   MemDescriptor(buf, count, memtype, dest=not write))
            run_collective(self, mem, d0, write)
            return mem.nbytes
        comm = self.fh.comm
        t0 = perf_counter()
        comm.barrier()
        self.stats.phases.sync += perf_counter() - t0
        flight.note("collective", comm.world_rank, path="mapped",
                    write=write)
        return self.run_independent(buf, count, memtype, d0, write)


def _nbytes(buf, count, memtype) -> int:
    """The data bytes an access of ``count`` x ``memtype`` in ``buf``
    names, unvalidated (a span attribute)."""
    if type(buf) is MemDescriptor:
        return buf.nbytes
    if memtype is None:
        return buf.nbytes if count is None else count
    return (1 if count is None else count) * memtype.size
