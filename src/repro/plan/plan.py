"""The declarative I/O plan.

An :class:`IOPlan` records everything one access will do — as data, not
as control flow.  Plans are immutable once built, cheap to introspect
(``describe()`` renders the full op list for ``repro.cli plan-dump``)
and replayable: executing a plan twice against the same file and
equivalent memory descriptors moves the same bytes twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.plan.ops import PlanOp

__all__ = ["IOPlan"]


@dataclass(frozen=True)
class IOPlan:
    """An ordered, typed program for one I/O access.

    ``kind``
        ``"read"`` / ``"write"`` plus ``"independent"`` / ``"collective"``
        — informational, used by pretty-printing and stats.
    ``d0`` / ``nbytes``
        the access' starting view-data offset and size; gather/scatter
        ops translate their absolute data ranges to memory offsets
        relative to ``d0``.
    ``slots``
        data ranges ``slot -> (d_lo, d_hi)`` of staging/exchange buffers
        the executor may need to allocate before any op fills them
        (collective-read reply buffers, for example).
    ``signature``
        the planner cache key of a cacheable plan (an independent one
        is kept in the replay table when planned through it), or
        ``None`` for uncacheable plans.
    """

    kind: str
    d0: int
    nbytes: int
    ops: Tuple[PlanOp, ...]
    slots: Dict[object, Tuple[int, int]] = field(default_factory=dict)
    signature: Optional[tuple] = None
    planned_windows: int = 0
    coalesced_bytes: int = 0
    #: The executor's lowered form, its step tuple — built on first
    #: run and memoized here (see ``PlanExecutor.lower``); a cache, not
    #: part of the plan.
    lowered: object = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.ops)

    def describe(self) -> str:
        """Multi-line rendering of the plan (``repro.cli plan-dump``)."""
        head = (
            f"IOPlan kind={self.kind} d0={self.d0} nbytes={self.nbytes} "
            f"ops={len(self.ops)} windows={self.planned_windows} "
            f"coalesced={self.coalesced_bytes}B "
            f"cached={'yes' if self.signature is not None else 'no'}"
        )
        lines = [head]
        for slot, (d_lo, d_hi) in self.slots.items():
            lines.append(f"  slot {slot!r}: data [{d_lo}, {d_hi})")
        for i, op in enumerate(self.ops):
            lines.append(f"  [{i:3d}] {op.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<IOPlan {self.kind} d0={self.d0} nbytes={self.nbytes} "
            f"ops={len(self.ops)}>"
        )
