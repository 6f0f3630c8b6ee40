"""The planner: build and optimize :class:`~repro.plan.plan.IOPlan`\\ s.

One :class:`Planner` serves one engine instance.  It turns an access —
``(view-data offset, size, direction)`` for independent I/O, the
aggregated ranges and file domains for collective I/O — into an ordered
op list, applying the optimizations the paper and its related work
describe *as plan rewrites* rather than inline control flow:

mapped access
    on a backend whose bytes are one buffer (a :class:`~repro.fs.
    simfile.FileBuffer`: ``SimFile``, ``OsFile``) every independent
    access is one ``"mapped"`` file op: a copy straight between user
    memory and the file buffer, with no window, no pre-read, no
    write-back and no lock — the access writes only its own bytes, and
    the holes are what data sieving locks for;
dense fast-path detection
    an access whose file range contains no holes becomes one direct
    file access, no staging window (paper §4.3's contiguous case);
window coalescing
    adjacent file blocks inside a sieving window are merged before the
    copy kernels see them (:func:`repro.intervals.merge_adjacent`);
sieve-vs-direct decision
    on the other backends, the :class:`~repro.mpi.cost_model.
    StorageModel` compares one access per block against windowed
    read-modify-write (Thakur et al.'s data sieving trade-off) —
    sieving hints still veto sieving outright;
plan caching
    every fileview tiles the file with period ``ft_size`` data bytes
    per ``ft_extent`` file bytes, so the whole independent-planning
    pipeline is *translation-covariant*: two accesses whose offsets
    differ by whole periods produce identical plans up to one scalar
    file translation.  So the one cache of independent plans is the
    replay table of :meth:`Planner.plan_independent_bound`, keyed on
    the offset residue: a hit skips planner entry and re-binds the
    whole-access plan with a ``file_delta``.  Collective plans sit in
    an LRU keyed on (planner epoch, hint fingerprint, access
    signature).  ``set_view`` bumps the epoch and empties both, and the
    fingerprint covers the hints and cost-model inputs of planning, so
    a ``set_info`` (no epoch bump) never replays a stale plan.  Only
    the listless engine caches: its plans derive from the *cached*
    compact fileview, the paper's point — the conventional engine
    re-expands ol-lists, and re-plans, per access.

Geometry comes from the engine: engines that can navigate a compact
fileview expose it via ``plan_geometry()`` and get materialized
:class:`~repro.plan.ops.Blocks`; engines that cannot (list-based
independent access) get a :class:`~repro.plan.ops.ViewWalk` pinning
their flattened filetype and view, which the data plane walks one tuple
at a time.  Either way every piece carries its blocks: a plan is a
value, and a later ``set_view`` cannot retarget it.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from repro.intervals import clip, merge_adjacent, tile
from repro.io.two_phase import AccessRange
from repro.mpi.cost_model import StorageModel, choose_access_strategy
from repro.obs import trace
from repro.obs.phases import PhaseAccumulator
from repro.plan.ops import (
    MEM,
    STAGE,
    Blocks,
    FileReadOp,
    FileWriteOp,
    GatherOp,
    LockOp,
    Piece,
    ScatterOp,
    UnlockOp,
    ViewWalk,
)
from repro.plan.plan import IOPlan
from repro.plan.stats import PlanStats

__all__ = ["Planner"]

#: Plans holding more materialized block entries than this are built
#: and run but never cached (memory guard for huge accesses).
MAX_CACHED_BLOCKS = 1 << 18

#: ``plan_independent_bound``'s default: look the replay entry up.
_LOOKUP = object()


def _run(lo: int, n: int) -> Blocks:
    """One block of ``n`` bytes at file offset ``lo``."""
    return Blocks(np.array([lo], dtype=np.int64),
                  np.array([n], dtype=np.int64))


def _view_blocks(geom, d0: int, d1: int, coalesce: bool) -> tuple:
    """``(Blocks, coalesced bytes)`` of data bytes ``[d0, d1)`` of a
    navigable view, adjacent blocks merged if ``coalesce``."""
    offs, lens = geom.blocks_for_data(d0, d1)
    coalesced = 0
    if coalesce:
        offs, lens, coalesced = merge_adjacent(offs, lens)
    return Blocks(offs, lens), coalesced


def _direct_write(lo: int, hi: int, piece: Piece) -> tuple:
    """A direct write of ``piece`` over ``[lo, hi)``, under the lock of
    its span: landing inside another rank's sieving window between its
    pre-read and write-back, it would be written over with stale bytes."""
    return (LockOp(lo, hi), FileWriteOp(lo, hi, "direct", (piece,)),
            UnlockOp(lo, hi))


class Planner:
    """Builds, optimizes and caches I/O plans for one engine."""

    def __init__(self, engine, cacheable: bool = True,
                 stats: Optional[PlanStats] = None,
                 storage: Optional[StorageModel] = None,
                 maxsize: int = 32,
                 phases: Optional[PhaseAccumulator] = None) -> None:
        self.engine = engine
        self.cacheable = cacheable
        self.stats = stats if stats is not None else PlanStats()
        self.storage = storage if storage is not None else StorageModel()
        self.maxsize = maxsize
        #: Per-phase buckets plan-build time accumulates into (``plan``).
        self.phases = phases if phases is not None else PhaseAccumulator()
        self.epoch = 0
        #: Collective plans, by signature (an LRU).
        self._cache: "OrderedDict[tuple, IOPlan]" = OrderedDict()
        #: Replay table, the one cache of independent plans: ``(write,
        #: offset residue, nbytes)`` -> (whole-access plan, q0, bound),
        #: valid for the current epoch and fingerprint (``invalidate``
        #: and a fingerprint change clear it).  A hit returns the cached
        #: plan plus the scalar file delta ``(q - q0) * ft_extent`` — no
        #: planner entry, no rewrite pass.
        #: ``bound`` is the plan's bound call for the last memory layout
        #: the engine bound it to (``PlanExecutor.bind``), else ``None``;
        #: entries change through :meth:`remember` and
        #: :meth:`drop_replays`, which fold a leaving call's tally.
        self.replay: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: The cached fingerprint and the (hints, storage) it was built
        #: from (see :meth:`_fingerprint`).
        self._fp: Optional[tuple] = None
        self.fp_hints = self.fp_storage = None

    # ------------------------------------------------------------------
    def _fingerprint(self) -> tuple:
        """Hints + cost-model inputs that shape plans, for cache keys (a
        planner serves one engine of one file, so no file identity).

        Built once per (hints, storage model) state: both are frozen, and
        ``set_info`` installs a new hints object, so an identity check
        tells when to rebuild.  A rebuild that changes the fingerprint
        also drops the replay table, whose keys omit it.
        """
        hints, storage = self.engine.fh.hints, self.storage
        if hints is not self.fp_hints or storage is not self.fp_storage:
            fp = hints.fingerprint() + storage.fingerprint()
            if fp != self._fp:
                self.drop_replays()
                self._fp = fp
            self.fp_hints, self.fp_storage = hints, storage
        return self._fp

    def invalidate(self) -> None:
        """Drop every cached plan (the fileview changed).  Compiled block
        programs stay: they are keyed by layout, not by view."""
        self.epoch += 1
        self._cache.clear()
        self.drop_replays()

    def _finish(self, plan: IOPlan) -> IOPlan:
        st = self.stats
        st.plans_built += 1
        st.planned_ops += len(plan.ops)
        st.planned_windows += plan.planned_windows
        st.coalesced_bytes += plan.coalesced_bytes
        return plan

    # ------------------------------------------------------------------
    # Independent access
    # ------------------------------------------------------------------
    def plan_independent(self, d0: int, nbytes: int,
                         write: bool) -> IOPlan:
        """Build one independent access's plan, uncached (``repro.cli
        plan-dump``); the build bills to the ``plan`` phase bucket."""
        t0 = perf_counter()
        try:
            return self._plan_independent(d0, nbytes, write)
        finally:
            self.phases.add("plan", perf_counter() - t0)
            if trace.TRACE_ON:
                trace.TRACER.add("plan.independent", t0, write=write,
                                 nbytes=nbytes)

    def plan_independent_bound(self, d0: int, nbytes: int, write: bool,
                               entry=_LOOKUP) -> Tuple[IOPlan, int]:
        """Plan one independent access; returns ``(plan, file_delta)``.

        The replay fast path: because every fileview tiles the file —
        ``d0 = q * ft_size + r`` puts every absolute file offset of the
        plan exactly ``q * ft_extent`` bytes after the residue access's,
        while all data-relative coordinates are translation-invariant —
        one *whole-access* plan per offset residue serves every period.
        A replay hit skips planner entry entirely (no window clipping,
        no navigation, no rewrite pass) and hands the executor the
        cached pre-bound plan plus the scalar translation to apply at
        the file boundary.  A miss builds the plan and keeps it if it
        is cacheable.  ``entry``: the replay entry (``None``, a miss)
        the caller looked up already, after the fingerprint check.
        """
        t0 = perf_counter()
        try:
            key = None
            q = 0
            view = self.engine.fh.view
            if self.cacheable and nbytes > 0 and view.ft_size > 0:
                q, r = divmod(d0, view.ft_size)
                key = (write, r, nbytes)
                if entry is _LOOKUP:
                    self._fingerprint()  # drops the table if hints changed
                    entry = self.replay.get(key)
                st = self.stats
                if entry is not None:
                    plan, q0, _ = entry
                    if len(self.replay) > 1:
                        self.replay.move_to_end(key)
                    st._plan_cache_hits += 1
                    st._plan_replays += 1
                    return plan, (q - q0) * view.ft_extent
                st.plan_cache_misses += 1
            plan = self._plan_independent(d0, nbytes, write)
            if key is not None and plan.signature is not None:
                self.remember(key, (plan, q, None))
            return plan, 0
        finally:
            self.phases.plan += perf_counter() - t0
            if trace.TRACE_ON:
                trace.TRACER.add("plan.independent", t0, write=write,
                                 nbytes=nbytes)

    def remember(self, key: tuple, entry: tuple) -> None:
        """Set replay entry ``key``; a new one evicts the least recently
        used past ``maxsize``.  A bound call leaving the table — its
        entry replaced or evicted — folds its tally into the counters
        (:meth:`~repro.plan.executor.BoundCall.fold`)."""
        replay = self.replay
        old = replay.get(key)
        replay[key] = entry
        if old is not None and old[2] is not None:
            old[2].fold()
        while len(replay) > self.maxsize:
            bound = replay.popitem(last=False)[1][2]
            if bound is not None:
                bound.fold()

    def drop_replays(self) -> None:
        """Empty the replay table, folding every bound call's tally."""
        for _plan, _q0, bound in self.replay.values():
            if bound is not None:
                bound.fold()
        self.replay.clear()

    def _plan_independent(self, d0: int, nbytes: int,
                          write: bool) -> IOPlan:
        engine = self.engine
        fh = engine.fh
        view = fh.view
        hints = fh.hints
        kind = ("write" if write else "read") + "-independent"
        d1 = d0 + nbytes
        ds = hints.ds_write if write else hints.ds_read
        bufsize = (hints.ind_wr_buffer_size if write
                   else hints.ind_rd_buffer_size)

        # The signature marks a plan the replay table may keep.
        sig = None
        if self.cacheable:
            sig = (self.epoch, "ind", write, d0, nbytes,
                   self._fingerprint())

        if nbytes <= 0:
            return self._finish(IOPlan(kind, d0, 0, (), signature=sig))

        if engine.mapped:
            return self._plan_mapped(kind, d0, d1, write, sig)

        # Contiguous view: plain offset arithmetic, no navigation, one
        # strict file access (the c-c / nc-c fast path).
        if view.is_contiguous:
            lo = view.disp + d0
            return self._plan_direct(kind, d0, d1, lo, lo + nbytes,
                                     _run(lo, nbytes), write, sig,
                                     strict=True)

        lo = engine.abs_of_data(d0)
        hi = engine.abs_of_data(d1, end=True)
        geom = engine.plan_geometry()

        # Dense fast path: the file span equals the data volume, so there
        # are no holes and the access is one contiguous file run
        # regardless of the view's type tree.
        if ds and geom is not None and hi - lo == nbytes:
            return self._plan_direct(kind, d0, d1, lo, hi, _run(lo, nbytes),
                                     write, sig)

        strategy = "direct"
        if ds:
            strategy = choose_access_strategy(
                self.storage, write=write, nbytes=nbytes, span=hi - lo,
                est_blocks=self._est_blocks(view, nbytes),
                bufsize=bufsize,
            )

        if strategy == "sieve":
            return self._plan_sieved(kind, d0, d1, lo, hi, geom, write,
                                     bufsize, sig)
        # One file access per block (sieving off or not worth it); with
        # no geometry, one per tuple of the engine's view walk.
        if geom is None:
            blocks, coalesced = ViewWalk(engine.flat, view, lo, hi, d0, d1), 0
        else:
            blocks, coalesced = _view_blocks(geom, d0, d1, ds)
            if blocks.count > MAX_CACHED_BLOCKS:
                sig = None
        return self._plan_direct(kind, d0, d1, lo, hi, blocks, write, sig,
                                 coalesced=coalesced)

    # ------------------------------------------------------------------
    def _plan_mapped(self, kind, d0, d1, write, sig) -> IOPlan:
        """One mapped file op for the whole access (see
        :meth:`~repro.fs.simfile.FileBuffer.map_access`).

        With plan geometry (or a contiguous view) the op carries one
        :data:`MEM` piece: one pair-kernel call between user memory and
        the file.  Without it (list-based independent access) the piece
        is staged — a gather/scatter op through the engine's codec —
        and copied along the engine's view walk, so both engines make
        the same file access.  A contiguous view's read is ``strict``,
        as on its direct path.
        """
        engine = self.engine
        view = engine.fh.view
        geom = engine.plan_geometry()
        nbytes = d1 - d0
        coalesced = 0
        if view.is_contiguous:
            lo = view.disp + d0
            hi = lo + nbytes
            blocks = _run(lo, nbytes)
        else:
            lo = engine.abs_of_data(d0)
            hi = engine.abs_of_data(d1, end=True)
            if geom is None:
                blocks = ViewWalk(engine.flat, view, lo, hi, d0, d1)
            else:
                blocks, coalesced = _view_blocks(geom, d0, d1, True)
                if blocks.count > MAX_CACHED_BLOCKS:
                    sig = None
        staged = geom is None
        piece = Piece(STAGE if staged else MEM, d0, d1, blocks)
        fop = (FileWriteOp(lo, hi, "mapped", (piece,)) if write else
               FileReadOp(lo, hi, "mapped", (piece,),
                          strict=view.is_contiguous))
        if not staged:
            ops, slots = (fop,), {}
        else:
            ops = ((GatherOp(d0, d1), fop) if write
                   else (fop, ScatterOp(d0, d1)))
            slots = {STAGE: (d0, d1)}
        return self._finish(IOPlan(kind, d0, nbytes, ops, slots=slots,
                                   signature=sig,
                                   coalesced_bytes=coalesced))

    def _est_blocks(self, view, nbytes: int) -> int:
        """Block-count estimate for the cost model: filetype instances
        needed for ``nbytes`` times blocks per instance."""
        per = view.ft_size
        if per <= 0:
            return 1
        nb = view.filetype.num_blocks or 1
        insts = -(-nbytes // per)
        return max(1, insts * nb)

    def _plan_direct(self, kind, d0, d1, lo, hi, blocks, write, sig,
                     strict: bool = False, coalesced: int = 0) -> IOPlan:
        """One direct file access per block of ``blocks`` (one run for a
        contiguous view or a dense access), staged; a ``strict`` read
        fails short of end-of-file."""
        piece = Piece(STAGE, d0, d1, blocks)
        if write:
            ops = (GatherOp(d0, d1), *_direct_write(lo, hi, piece))
        else:
            ops = (FileReadOp(lo, hi, "direct", (piece,), strict=strict),
                   ScatterOp(d0, d1))
        return self._finish(IOPlan(kind, d0, d1 - d0, ops,
                                   slots={STAGE: (d0, d1)}, signature=sig,
                                   coalesced_bytes=coalesced))

    def _plan_sieved(self, kind, d0, d1, lo, hi, geom, write, bufsize,
                     sig) -> IOPlan:
        """Windowed data sieving; writes lock their read-modify-write
        windows, reads just copy out of the file buffer."""
        ops: List[object] = []
        nwin = 0
        coalesced = 0
        entries = 0
        if geom is not None:
            # Per-window pieces keyed off the compact view: each window
            # copies exactly the data bytes it covers, straight between
            # the file buffer and user memory (a MEM piece — no staging
            # buffer, no gather/scatter op).
            for wlo, whi in tile(lo, hi, bufsize):
                dl = clip(geom.data_of_abs(wlo), d0, d1)
                dh = clip(geom.data_of_abs(whi), d0, d1)
                if dh <= dl:
                    continue
                offs, lens = geom.blocks_for_data(dl, dh)
                offs, lens, merged = merge_adjacent(offs, lens)
                coalesced += merged
                entries += int(offs.size)
                piece = Piece(MEM, dl, dh, Blocks(offs, lens))
                if write:
                    ops += [LockOp(wlo, whi),
                            FileWriteOp(wlo, whi, "rmw", (piece,)),
                            UnlockOp(wlo, whi)]
                else:
                    ops.append(FileReadOp(wlo, whi, "window", (piece,)))
                nwin += 1
            slots = {}
        else:
            # No navigable geometry (conventional independent access):
            # stage the whole access once; each window copies the
            # tuples of the engine's view walk that fall inside it.
            walk = ViewWalk(self.engine.flat, self.engine.fh.view, lo, hi,
                            d0, d1)
            piece = Piece(STAGE, d0, d1, walk)
            if write:
                ops.append(GatherOp(d0, d1))
                for wlo, whi in tile(lo, hi, bufsize):
                    ops += [LockOp(wlo, whi),
                            FileWriteOp(wlo, whi, "rmw", (piece,)),
                            UnlockOp(wlo, whi)]
                    nwin += 1
            else:
                for wlo, whi in tile(lo, hi, bufsize):
                    ops.append(FileReadOp(wlo, whi, "window", (piece,)))
                    nwin += 1
                ops.append(ScatterOp(d0, d1))
            slots = {STAGE: (d0, d1)}
        if entries > MAX_CACHED_BLOCKS:
            sig = None
        return self._finish(IOPlan(kind, d0, d1 - d0, tuple(ops),
                                   slots=slots, signature=sig,
                                   planned_windows=nwin,
                                   coalesced_bytes=coalesced))

    # ------------------------------------------------------------------
    # Collective access (listless: navigable cached views for all ranks)
    # ------------------------------------------------------------------
    def plan_collective(self, write: bool, rng: AccessRange,
                        ranges: List[AccessRange],
                        domains: List[Tuple[int, int]],
                        schedule) -> IOPlan:
        """Plan one collective access; billed to the ``plan`` bucket
        like :meth:`plan_independent`."""
        t0 = perf_counter()
        try:
            return self._plan_collective(write, rng, ranges, domains,
                                         schedule)
        finally:
            self.phases.add("plan", perf_counter() - t0)
            if trace.TRACE_ON:
                trace.TRACER.add("plan.collective", t0, write=write)

    def _plan_collective(self, write: bool, rng: AccessRange,
                         ranges: List[AccessRange],
                         domains: List[Tuple[int, int]],
                         schedule) -> IOPlan:
        """One round-based plan covering both roles of a two-phase
        collective (see :mod:`repro.io.aggregation`).

        Built entirely from the fileview cache — every rank can compute
        every other rank's block placement, so the whole round schedule
        is known before a byte moves.  That makes the plan a pure
        function of (views, ranges, domains, cb) and therefore cacheable
        across repeated accesses — the payoff of caching compact
        fileviews instead of re-exchanging ol-lists.  The schedule is
        derived deterministically from (domains, cb), so the cache key
        needs no extra field for it.
        """
        from repro.io.aggregation import build_round_plan

        engine = self.engine
        fh = engine.fh
        cb = fh.hints.cb_buffer_size
        rank = fh.comm.rank
        kind = ("write" if write else "read") + "-collective"
        d0 = rng.data_lo

        sig = None
        if self.cacheable:
            sig = (self.epoch, "coll", write, engine.cache.epoch,
                   tuple((r.abs_lo, r.abs_hi, r.data_lo, r.data_hi)
                         for r in ranges),
                   tuple(domains), cb, self._fingerprint())
            hit = self._cache.get(sig)
            if hit is not None:
                self._cache.move_to_end(sig)
                self.stats._plan_cache_hits += 1
                return hit
            self.stats.plan_cache_misses += 1

        md = engine.collective_metadata(write, rng, ranges)
        ops, nwin = build_round_plan(md, schedule, write, rng, rank)

        if md.entries > MAX_CACHED_BLOCKS:
            sig = None
        nbytes = rng.data_hi - rng.data_lo if not rng.empty else 0
        # No slot table on purpose: per-round staging buffers must stay
        # window-sized, never inflated to whole-access ranges — that is
        # the round pipeline's memory bound.
        plan = self._finish(IOPlan(kind, d0, nbytes, tuple(ops),
                                   signature=sig,
                                   planned_windows=nwin,
                                   coalesced_bytes=md.coalesced))
        if sig is not None:
            self._cache[sig] = plan
            while len(self._cache) > self.maxsize:
                self._cache.popitem(last=False)
        return plan
