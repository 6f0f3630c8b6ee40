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

import contextlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

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


@dataclass
class EngineStats:
    """Counters quantifying the paper's §2.4 overheads per rank.

    The list-based engine increments the ``list_*`` family; the listless
    engine increments ``ff_*``.  Tests and benchmarks read these to
    verify, for example, that the listless engine builds zero tuples, or
    how many tuples a collective access shipped.  The nested ``plan``
    counters describe the plan layer (windows planned, bytes coalesced,
    cache hits, ops executed) and are flattened into :meth:`snapshot`.
    """

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
    ff_kernel_calls: int = 0
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
        """Release engine resources (the executor's pipeline worker).

        The handle, the planner and the executor (whose codec is this
        engine) each point back at the engine; dropping them here lets
        refcounting alone free a closed file.  ``stats`` stays readable.
        """
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
                 buffers: Optional[dict] = None,
                 file_delta: int = 0) -> dict:
        if self.fh.hints.ship_protocol is not None:
            # Sharded-backend request shipping: rewrite eligible file
            # ops into ShipOps (no-op on non-sharded backends).
            from repro.io import shipping

            plan = shipping.maybe_rewrite(self, plan)
        return self.executor.run(plan, mem, buffers, file_delta)

    def run_independent(self, mem: MemDescriptor, d0: int,
                        write: bool) -> None:
        """Plan (a replay hit, normally) and run one independent access:
        on a file buffer straight on the executor (nothing ships).
        Under atomic mode the whole access range stays locked across it
        (:meth:`File._atomic_guard`); the ``<engine>.write_independent``
        /``read_independent`` span is built only when tracing is on."""
        n = mem.nbytes
        if not n:
            return
        fh = self.fh
        if not (fh.shared.atomicity or trace.TRACE_ON):
            plan, delta = self.planner.plan_independent_bound(d0, n, write)
            if self.mapped:
                self.executor.run(plan, mem, None, delta)
            else:
                self.run_plan(plan, mem, None, delta)
            return
        guard = fh._atomic_guard(mem, d0)
        kind = "write" if write else "read"
        try:
            with (trace.span(f"{self.name}.{kind}_independent", bytes=n)
                  if trace.TRACE_ON else contextlib.nullcontext()):
                plan, delta = self.planner.plan_independent_bound(
                    d0, n, write)
                self.run_plan(plan, mem, None, delta)
        finally:
            if guard:
                fh.simfile.unlock_range(*guard)

    # ------------------------------------------------------------------
    # Collective access: mapped on a file buffer, else two-phase rounds
    # ------------------------------------------------------------------
    def collective(self, mem: MemDescriptor, d0: int, write: bool) -> None:
        """One collective access.  With tracing on it runs inside an
        ``<engine>.write_collective``/``read_collective`` span whose
        ``path`` attribute names the path taken (``"mapped"`` or
        ``"two_phase"``)."""
        if trace.TRACE_ON:
            kind = "write" if write else "read"
            with trace.span(f"{self.name}.{kind}_collective",
                            bytes=mem.nbytes,
                            path="mapped" if self.mapped else "two_phase"):
                self._collective(mem, d0, write)
            return
        self._collective(mem, d0, write)

    def _collective(self, mem: MemDescriptor, d0: int, write: bool) -> None:
        """On a :class:`~repro.fs.simfile.FileBuffer` (``SimFile``,
        ``OsFile``) every rank already shares the file's bytes, so the
        access is *mapped*: one barrier, then the rank's own access
        through :meth:`run_independent` (one mapped file op; the
        whole-access range lock in atomic mode).  The barrier orders
        every rank's previous collective before any rank touches the
        file — the ordering the two-phase range allgather gives — so a
        collective read followed by a peer's collective write of the
        same bytes still returns the old bytes.  Every other backend
        runs the round-based two-phase driver
        (:func:`repro.io.aggregation.run_collective`).
        """
        if not self.mapped:
            # Imported lazily like the rest of the plan machinery.
            from repro.io.aggregation import run_collective

            run_collective(self, mem, d0, write)
            return
        t0 = time.perf_counter()
        self.fh.comm.barrier()
        self.stats.phases.sync += time.perf_counter() - t0
        flight.note("collective", path="mapped", write=write)
        self.run_independent(mem, d0, write)
