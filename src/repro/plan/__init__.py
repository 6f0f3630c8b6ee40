"""The explicit I/O plan layer: plan → optimize → execute.

Every access in the simulation is first *planned* — turned into a
declarative :class:`~repro.plan.plan.IOPlan` of typed ops — then handed
to the :class:`~repro.plan.executor.PlanExecutor`, which runs it against
any file backend.  See ``docs/planning.md``.
"""

from repro.plan.executor import KernelCodec, MemCodec, PlanExecutor
from repro.plan.ops import (
    MEM,
    STAGE,
    Blocks,
    ExchangeOp,
    FileReadOp,
    FileWriteOp,
    GatherOp,
    LockOp,
    Piece,
    PlanOp,
    ScatterOp,
    Send,
    TupleBlocks,
    UnlockOp,
    in_slot,
    out_slot,
)
from repro.plan.plan import IOPlan
from repro.plan.planner import Planner
from repro.plan.stats import PlanStats

__all__ = [
    "IOPlan",
    "Planner",
    "PlanStats",
    "PlanExecutor",
    "MemCodec",
    "KernelCodec",
    "PlanOp",
    "GatherOp",
    "ScatterOp",
    "LockOp",
    "UnlockOp",
    "FileReadOp",
    "FileWriteOp",
    "ExchangeOp",
    "Send",
    "Piece",
    "Blocks",
    "TupleBlocks",
    "MEM",
    "STAGE",
    "in_slot",
    "out_slot",
]
