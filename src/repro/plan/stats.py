"""Counters for the plan layer.

One :class:`PlanStats` instance is shared by a planner/executor pair and
surfaced through the owning engine's stats snapshot, so every access
reports how it was planned (windows, coalescing, cache behavior) next to
the engine's own §2.4 overhead counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import tally

__all__ = ["PlanStats"]


@tally.tallied
@dataclass(slots=True)
class PlanStats(tally.Tallied):
    """Plan-layer counters for one (rank, open file).

    The counters a replayed access bills (:data:`TERMS`) read as their
    base, ``_<name>``, which the planner and executor bill eagerly, plus
    the live bound calls' tallies (:mod:`repro.tally`).
    """

    TERMS = {
        "plan_cache_hits": tally.replays,
        "plan_replays": tally.replays,
        "executed_ops": tally.runs,
        "executed_file_reads": tally.reads,
        "executed_file_writes": tally.writes,
        "device_sync_seconds": tally.seconds,
    }

    #: plans built from scratch (planner cache misses + uncacheable)
    plans_built: int = 0
    #: plans served from the LRU cache
    _plan_cache_hits: int = 0
    #: cacheable plan lookups that missed
    plan_cache_misses: int = 0
    #: accesses served by the replay fast path (a relocatable whole-
    #: access plan re-bound by a scalar file translation — planner entry
    #: skipped entirely; also counted in ``plan_cache_hits``)
    _plan_replays: int = 0
    #: coalesced file windows planned (window-mode file ops)
    planned_windows: int = 0
    #: total ops across built plans
    planned_ops: int = 0
    #: bytes whose file accesses were merged by block coalescing
    coalesced_bytes: int = 0
    #: ops executed (every run, cached plans included)
    _executed_ops: int = 0
    #: file read accesses issued by the executor
    _executed_file_reads: int = 0
    #: file write accesses issued by the executor
    _executed_file_writes: int = 0
    #: byte-range locks taken by the executor
    executed_locks: int = 0
    #: alltoall exchanges performed by the executor
    executed_exchanges: int = 0
    #: aggregation rounds executed (RoundOp markers seen)
    executed_rounds: int = 0
    #: high-water mark of live staging/exchange buffer bytes during any
    #: plan run (the O(cb_buffer_size × APs) memory bound of the
    #: round-based collective shows up here)
    peak_staging_bytes: int = 0
    #: rounds whose synchronizing alltoall this rank joined while moving
    #: no bytes at all (empty window, nothing sent, nothing received) —
    #: the barrier cost the relaxed p2p path eliminates
    rounds_idle_synced: int = 0
    #: file ops offloaded to the pipeline worker
    pipelined_file_ops: int = 0
    #: seconds the pipeline worker spent inside offloaded file ops
    #: (applied at drains, issued ahead of exchange/pack time)
    pipeline_file_seconds: float = 0.0
    #: seconds spent in worker drains (``DrainOp``s + double-buffer
    #: capacity drains), which apply the queued jobs
    pipeline_wait_seconds: float = 0.0
    #: high-water mark of worker-side in-flight buffer bytes (the extra
    #: window the double buffer holds beyond ``peak_staging_bytes``)
    pipeline_inflight_peak_bytes: int = 0
    #: simulated device seconds charged on the critical path (file ops
    #: issued synchronously: the caller waits out the full device time)
    _device_sync_seconds: float = 0.0
    #: simulated device seconds of offloaded (pipelined) file ops —
    #: the device works these off concurrently with exchange/pack CPU
    device_async_seconds: float = 0.0
    #: the unhidden remainder of ``device_async_seconds``: simulated
    #: device time still outstanding when a drain required completion
    #: (effective wall = measured CPU + device_sync + device_stall)
    device_stall_seconds: float = 0.0
    #: ShipOps executed (file ops rewritten to request shipping)
    ship_ops: int = 0
    #: shard-server requests sent by ShipOps
    ship_requests: int = 0
    #: modeled request-description wire bytes (headers + ol-lists or
    #: datatype access params) — the descriptor side of the list-I/O vs
    #: datatype-I/O comparison
    ship_wire_request_bytes: int = 0
    #: payload wire bytes moved by ShipOps (both directions)
    ship_wire_payload_bytes: int = 0
    #: compact-fileview bytes installed on shard servers (charged once
    #: per (shard, view); the datatype-I/O protocol's up-front cost)
    ship_view_bytes: int = 0
    #: dtype-protocol pieces that fell back to list shipping (no
    #: compact view available, or the data-coordinate check failed)
    ship_dtype_fallbacks: int = 0
    #: live tallies (see :class:`~repro.tally.Tallied`)
    _tallies: tuple = field(default=(), repr=False, compare=False)

    def reset(self) -> None:
        """Zero every counter; live tallies count on from now."""
        with self._mu:
            tallies = self._tallies
            self.__init__()
            self._tallies = tallies
            self._rebase()

    def snapshot(self) -> dict:
        return {
            "plans_built": self.plans_built,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "plan_replays": self.plan_replays,
            "planned_windows": self.planned_windows,
            "planned_ops": self.planned_ops,
            "coalesced_bytes": self.coalesced_bytes,
            "executed_ops": self.executed_ops,
            "executed_file_reads": self.executed_file_reads,
            "executed_file_writes": self.executed_file_writes,
            "executed_locks": self.executed_locks,
            "executed_exchanges": self.executed_exchanges,
            "executed_rounds": self.executed_rounds,
            "peak_staging_bytes": self.peak_staging_bytes,
            "rounds_idle_synced": self.rounds_idle_synced,
            "pipelined_file_ops": self.pipelined_file_ops,
            "pipeline_file_seconds": self.pipeline_file_seconds,
            "pipeline_wait_seconds": self.pipeline_wait_seconds,
            "pipeline_inflight_peak_bytes":
                self.pipeline_inflight_peak_bytes,
            "device_sync_seconds": self.device_sync_seconds,
            "device_async_seconds": self.device_async_seconds,
            "device_stall_seconds": self.device_stall_seconds,
            "ship_ops": self.ship_ops,
            "ship_requests": self.ship_requests,
            "ship_wire_request_bytes": self.ship_wire_request_bytes,
            "ship_wire_payload_bytes": self.ship_wire_payload_bytes,
            "ship_view_bytes": self.ship_view_bytes,
            "ship_dtype_fallbacks": self.ship_dtype_fallbacks,
        }
