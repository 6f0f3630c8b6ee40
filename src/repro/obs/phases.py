"""Per-phase time accounting — the paper's overhead decomposition.

§2.4 of the paper itemizes where a non-contiguous access spends its
time (flattening, list building, navigation, copying) and Table 3
reports BT-IO time split by phase.  This module provides the always-on
accounting that makes the same decomposition available here: every
access accumulates wall seconds into a small fixed set of buckets, one
:class:`PhaseAccumulator` per (rank, open file), surfaced through engine
stats, ``repro btio --report phases`` and the benchmark JSON records.

Buckets (see ``docs/observability.md`` for the mapping to paper terms):

``plan``
    building the access' :class:`~repro.plan.plan.IOPlan` — navigation,
    window clipping, block materialization, plus the list-based engine's
    per-access schedule derivation (its §2.1 list building shows here);
``pack`` / ``unpack``
    memory-side gather/scatter ops (user buffer ↔ staging);
``file_io``
    executed file read/write ops, including the staging ↔ file-buffer
    copies performed inside windowed ops (the paper's copy + I/O cost);
``exchange``
    two-phase alltoall exchanges (data and, for the list-based engine,
    the shipped ol-lists);
``lock``
    acquiring byte-range locks for read-modify-write windows;
``sync``
    collective coordination: the access-range allgather that starts
    every collective access (includes waiting for slower ranks);
``ship``
    shipped noncontiguous requests against a sharded multi-server
    backend (``repro.plan.ops.ShipOp``): building per-shard wire
    descriptions, the round trips to the shard servers, and the
    payload scatter/gather on the client side (``docs/shipping.md``);
``pipeline_io``
    file work executed by the pipeline worker on behalf of this rank
    (jobs offloaded by pipelined collective rounds).  The deferred
    worker applies the jobs on the rank's own thread during drains, so
    their seconds are *moved* here out of ``file_io`` and the buckets
    still sum to at most the wall time (see ``docs/observability.md``).

Unlike tracing (:mod:`repro.obs.trace`), phase accounting is never
switched off — it costs one ``perf_counter`` read per executed op
(the executor chains its stamps), which is noise next to the op itself, and the decomposition must always
be available to benchmarks.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "BUCKETS",
    "PhaseAccumulator",
    "RoundLog",
    "format_phase_table",
]

#: Bucket names in report order (the order Table-3-style output uses;
#: snapshots are keyed ``phase_<bucket>`` and sorted alphabetically).
BUCKETS: Tuple[str, ...] = (
    "plan", "pack", "unpack", "file_io", "pipeline_io", "exchange",
    "lock", "sync", "ship",
)

#: Rows a :class:`RoundLog` keeps: the most recent rounds, so a
#: long-lived handle's log stays bounded.
ROUND_LOG_CAP = 1024

_now = time.perf_counter


class PhaseAccumulator:
    """Seconds per phase bucket for one (rank, open file).

    Written only by the owning rank's thread, so unsynchronized float
    adds are safe.  ``add`` takes the bucket name; mistyped buckets
    raise (silent new buckets would corrupt the fixed schema).
    """

    __slots__ = BUCKETS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for b in BUCKETS:
            setattr(self, b, 0.0)

    def add(self, bucket: str, seconds: float) -> None:
        setattr(self, bucket, getattr(self, bucket) + seconds)

    def timed(self, bucket: str):
        """Context manager accumulating its body's wall time."""
        return _PhaseTimer(self, bucket)

    @property
    def total(self) -> float:
        return sum(getattr(self, b) for b in BUCKETS)

    def snapshot(self) -> Dict[str, float]:
        """``{"phase_<bucket>": seconds}`` with deterministic key order."""
        return {f"phase_{b}": getattr(self, b) for b in sorted(BUCKETS)}

    def merge(self, other: "PhaseAccumulator") -> None:
        for b in BUCKETS:
            setattr(self, b, getattr(self, b) + getattr(other, b))

    @classmethod
    def sum(cls, accs: Iterable["PhaseAccumulator"]) -> "PhaseAccumulator":
        out = cls()
        for acc in accs:
            out.merge(acc)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{b}={getattr(self, b) * 1e3:.2f}ms" for b in BUCKETS
        )
        return f"<PhaseAccumulator {parts}>"


class RoundLog:
    """Per-round ``exchange``/``file_io`` decomposition of collectives.

    Each executed aggregation round (:class:`~repro.plan.ops.RoundOp`
    span) appends one record ``{"index", "total", "wall", "exchange",
    "file_io", "file_io_async"}``; one log per (rank, open file),
    surfaced next to the phase buckets so Table-3-style reports can show
    how the pipeline interleaves exchange with file access round by
    round.  ``file_io_async`` is the round's file time spent in jobs
    offloaded to the executor's pipeline worker, issued ahead of later
    rounds' pack/exchange — it is back-filled when the offloaded op
    completes, so the row returned by :meth:`add` stays live until the
    plan run drains.
    Only the newest :data:`ROUND_LOG_CAP` rows are kept; each keeps its
    ``index``, so :meth:`merge_by_index` is unaffected below the cap.
    """

    __slots__ = ("rounds",)

    def __init__(self) -> None:
        self.rounds: Deque[Dict[str, float]] = deque(maxlen=ROUND_LOG_CAP)

    def add(self, index: int, total: int, wall: float,
            exchange: float, file_io: float,
            file_io_async: float = 0.0) -> Dict[str, float]:
        row = {
            "index": index, "total": total, "wall": wall,
            "exchange": exchange, "file_io": file_io,
            "file_io_async": file_io_async,
        }
        self.rounds.append(row)
        return row

    def snapshot(self) -> List[Dict[str, float]]:
        return [dict(r) for r in self.rounds]

    def reset(self) -> None:
        self.rounds.clear()

    def __len__(self) -> int:
        return len(self.rounds)

    @staticmethod
    def merge_by_index(
        logs: Iterable[List[Dict[str, float]]]
    ) -> List[Dict[str, float]]:
        """Combine per-rank round records into one row per round index:
        seconds are summed across ranks (per-phase work), ``total``
        takes the max (ranks agree inside one collective; across a run
        the longest schedule wins)."""
        by_index: Dict[int, Dict[str, float]] = {}
        for log in logs:
            for r in log:
                row = by_index.setdefault(
                    int(r["index"]),
                    {"index": int(r["index"]), "total": 0,
                     "wall": 0.0, "exchange": 0.0, "file_io": 0.0,
                     "file_io_async": 0.0},
                )
                row["total"] = max(row["total"], int(r["total"]))
                for k in ("wall", "exchange", "file_io", "file_io_async"):
                    row[k] += float(r.get(k, 0.0))
        return [by_index[i] for i in sorted(by_index)]


class _PhaseTimer:
    __slots__ = ("acc", "bucket", "t0")

    def __init__(self, acc: PhaseAccumulator, bucket: str) -> None:
        self.acc = acc
        self.bucket = bucket

    def __enter__(self) -> "_PhaseTimer":
        self.t0 = _now()
        return self

    def __exit__(self, *exc) -> bool:
        self.acc.add(self.bucket, _now() - self.t0)
        return False


def format_phase_table(
    columns: List[Tuple[str, Dict[str, float]]],
    unit: float = 1e3,
    unit_name: str = "ms",
    totals: Optional[Dict[str, float]] = None,
) -> str:
    """Render per-phase breakdowns side by side (Table-3 style).

    ``columns`` maps column titles to ``phase_<bucket>``-keyed (or bare
    bucket-keyed) snapshots; a ``total`` row and per-bucket percentage
    follow automatically.  ``totals`` overrides the denominators (e.g.
    measured wall time) — by default each column's bucket sum is used.
    """
    from repro.bench.reporting import format_table

    def get(snap: Dict[str, float], bucket: str) -> float:
        return snap.get(f"phase_{bucket}", snap.get(bucket, 0.0))

    headers = ["phase"]
    for title, _snap in columns:
        headers += [f"{title} [{unit_name}]", "%"]
    denom = {}
    for title, snap in columns:
        d = (totals or {}).get(title)
        if d is None:
            d = sum(get(snap, b) for b in BUCKETS)
        denom[title] = d if d > 0 else 1.0
    rows = []
    for b in BUCKETS:
        row = [b]
        for title, snap in columns:
            v = get(snap, b)
            row += [f"{v * unit:.3f}", f"{100 * v / denom[title]:5.1f}"]
        rows.append(tuple(row))
    total_row = ["total"]
    for title, snap in columns:
        v = sum(get(snap, b) for b in BUCKETS)
        total_row += [f"{v * unit:.3f}", f"{100 * v / denom[title]:5.1f}"]
    rows.append(tuple(total_row))
    return format_table(headers, rows)
