"""Typed I/O plan operations.

An :class:`~repro.plan.plan.IOPlan` is an ordered list of these ops — a
*declarative* record of everything an access will do, produced by the
:class:`~repro.plan.planner.Planner` before any byte moves and consumed
by the :class:`~repro.plan.executor.PlanExecutor`.  The split mirrors the
paper's core idea: the *description* of a non-contiguous access (which
windows, which blocks, which exchanges) is separated from the *act* of
performing it, so the description can be optimized, cached and replayed.

Data coordinates are *absolute view-data bytes* (bytes through the
fileview, counted from the view origin); file coordinates are absolute
file bytes.  The memory side of an access is never baked into a plan —
gather/scatter ops and :data:`MEM` pieces carry only data ranges and the
executor applies them to whatever :class:`~repro.io.fileview.
MemDescriptor` the access supplies, so one cached plan serves any memory
layout of the same size.

Every piece carries its blocks, in one of three flavors preserving each
engine's characteristic copy machinery:

:class:`Blocks`
    materialized ``(offsets, lengths)`` NumPy arrays, executed through
    the vectorized gather/scatter kernels (the listless engine);
:class:`TupleBlocks`
    explicit Python tuple lists (the conventional engine's collective
    pieces) — lowered once to index arrays and batch-copied by the data
    plane;
:class:`ViewWalk`
    the conventional engine's independent access: the flattened
    filetype and view geometry pinned at plan time, walked one tuple at
    a time — one slice copy, or one file call, per tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple, Union

import numpy as np

__all__ = [
    "PlanOp",
    "GatherOp",
    "ScatterOp",
    "LockOp",
    "UnlockOp",
    "FileReadOp",
    "FileWriteOp",
    "ExchangeOp",
    "RoundOp",
    "DrainOp",
    "ShipOp",
    "Piece",
    "Blocks",
    "TupleBlocks",
    "ViewWalk",
    "Send",
    "STAGE",
    "MEM",
]

#: Default staging slot used by independent-access plans.
STAGE = "stage"

#: Pseudo-slot of a piece that copies straight between the file buffer
#: and the access's user buffer, through its memory layout (mapped
#: accesses and sieved windows: no staging buffer, no gather/scatter
#: op).
MEM = "mem"

#: Slot key of the outbound exchange payload for a peer rank.
def out_slot(rank: int) -> Tuple[str, int]:
    return ("out", rank)


#: Slot key under which the exchange stores the payload from a peer.
def in_slot(rank: int) -> Tuple[str, int]:
    return ("in", rank)


@dataclass(frozen=True)
class Blocks:
    """Materialized contiguous file blocks (absolute offsets).

    ``prog`` memoizes the compiled :class:`~repro.core.blockprog.
    BlockProgram` of these blocks (set lazily by the executor via
    ``program_for_blocks``), so replaying a cached plan reuses the
    one-time kernel dispatch instead of re-deriving it per run.
    ``pairs`` memoizes the pair programs of a :data:`MEM` piece, one
    per memory layout (a small LRU, see :func:`repro.plan.dataplane.
    pair_program`).  Both are caches, not part of the block description
    — excluded from comparison.
    """

    offsets: np.ndarray
    lengths: np.ndarray
    prog: object = field(default=None, compare=False)
    pairs: object = field(default=None, compare=False)

    @property
    def nbytes(self) -> int:
        return int(self.lengths.sum()) if self.lengths.size else 0

    @property
    def count(self) -> int:
        return int(self.offsets.size)

    def __repr__(self) -> str:
        return f"Blocks(k={self.count}, nbytes={self.nbytes})"


@dataclass(frozen=True)
class TupleBlocks:
    """Explicit ``(offset, length)`` tuples.

    The data plane lowers the tuples once to ``(offsets, lengths)``
    index arrays — memoized in ``arrs`` — and moves the bytes in one
    batched copy.  ``arrs`` is a cache like ``Blocks.prog`` — excluded
    from comparison.
    """

    pairs: Tuple[Tuple[int, int], ...]
    arrs: object = field(default=None, compare=False)

    @property
    def nbytes(self) -> int:
        return sum(ln for _, ln in self.pairs)

    @property
    def count(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        return f"TupleBlocks(k={self.count}, nbytes={self.nbytes})"


@dataclass(frozen=True)
class ViewWalk:
    """A view's blocks over one access, walked one tuple at a time.

    Pins what the conventional (ROMIO) engine walks: the flattened
    filetype ``flat`` (an :class:`~repro.flatten.ol_list.OLList`), the
    (frozen) :class:`~repro.io.fileview.FileView` ``view`` whose
    ``disp``, ``ft_extent`` and ``ft_size`` tile it, the access's file
    span ``[lo, hi)`` and its data bytes ``[d0, d1)`` — so the plan
    lands where it was planned whatever view is current when it runs.
    Iterating yields ``(abs_offset, length, data_offset)`` per block of
    the access; :meth:`tuples` clips the walk to a window.
    """

    flat: object
    view: object
    lo: int
    hi: int
    d0: int
    d1: int

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        return self.tuples(self.lo, self.hi)

    def tuples(self, lo: int, hi: int) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(abs_offset, length, data_offset)`` per view block
        clipped to absolute range ``[lo, hi)`` and to the access's data
        bytes, walking the flattened list one tuple at a time."""
        flat, view, d1 = self.flat, self.view, self.d1
        if len(flat) == 0:
            return
        disp = view.disp
        ext = view.ft_extent
        fsize = view.ft_size
        inst = max(lo - disp - flat.end_offset(), 0) // ext if ext else 0
        while True:
            base = disp + inst * ext
            if base + flat.offsets[0] >= hi:
                return
            dbase = inst * fsize
            dpos = 0
            for off, ln in zip(flat.offsets, flat.lengths):
                a = base + off
                b = a + ln
                if b > lo and a < hi:
                    s = max(lo - a, 0)
                    doff = dbase + dpos + s
                    if doff >= d1:
                        return
                    e = min(hi - a, ln)
                    yield (a + s, min(e - s, d1 - doff), doff)
                dpos += ln
                if a >= hi:
                    break
            inst += 1

    def __repr__(self) -> str:
        return (f"ViewWalk(data=[{self.d0}, {self.d1}), "
                f"tuples/instance={len(self.flat)})")


BlockSpec = Union[Blocks, TupleBlocks, ViewWalk]


@dataclass(frozen=True)
class Piece:
    """One buffer's contribution to a file op.

    ``slot`` names the staging/exchange buffer holding (or receiving)
    the data bytes ``[d_lo, d_hi)`` — or is :data:`MEM`: the bytes are
    copied straight to or from the user buffer; ``blocks`` are the file
    blocks they occupy.
    """

    slot: object
    d_lo: int
    d_hi: int
    blocks: BlockSpec

    def __repr__(self) -> str:
        return (
            f"Piece(slot={self.slot!r}, data=[{self.d_lo}, {self.d_hi}), "
            f"blocks={self.blocks!r})"
        )


class PlanOp:
    """Base class for plan operations (pretty-printing only)."""

    __slots__ = ()

    def describe(self) -> str:
        return repr(self)


@dataclass(frozen=True, repr=False)
class GatherOp(PlanOp):
    """Pack user-memory data bytes ``[d_lo, d_hi)`` into ``slot``."""

    d_lo: int
    d_hi: int
    slot: object = STAGE

    def __repr__(self) -> str:
        return (
            f"GatherOp(mem[{self.d_lo}:{self.d_hi}] -> {self.slot!r})"
        )


@dataclass(frozen=True, repr=False)
class ScatterOp(PlanOp):
    """Unpack ``slot`` into user-memory data bytes ``[d_lo, d_hi)``."""

    d_lo: int
    d_hi: int
    slot: object = STAGE

    def __repr__(self) -> str:
        return (
            f"ScatterOp({self.slot!r} -> mem[{self.d_lo}:{self.d_hi}])"
        )


@dataclass(frozen=True, repr=False)
class LockOp(PlanOp):
    """Acquire the byte-range lock ``[lo, hi)`` (read-modify-write)."""

    lo: int
    hi: int

    def __repr__(self) -> str:
        return f"LockOp([{self.lo}, {self.hi}))"


@dataclass(frozen=True, repr=False)
class UnlockOp(PlanOp):
    """Release the byte-range lock ``[lo, hi)``."""

    lo: int
    hi: int

    def __repr__(self) -> str:
        return f"UnlockOp([{self.lo}, {self.hi}))"


@dataclass(frozen=True, repr=False)
class FileReadOp(PlanOp):
    """Read file data for one coalesced window ``[lo, hi)``.

    ``mode``:

    ``"mapped"``
        copy the one piece straight out of the file buffer itself
        (:meth:`~repro.fs.simfile.FileBuffer.map_access`: one device
        op, no window buffer);
    ``"window"``
        read the whole window into a file buffer once, then gather each
        piece's blocks out of it — into its slot, or for a :data:`MEM`
        piece straight into user memory (data sieving);
    ``"direct"``
        read each block of each piece with its own file access (sieving
        disabled, or the cost model found few/large blocks).

    ``strict`` makes a short direct read an error (the contiguous-view
    fast path); otherwise the unread tail is zero-filled, matching the
    zeroed staging buffers of sieved reads.

    ``overlap`` marks the op as pipeline-eligible: the executor may
    offload the file access to its pipeline worker and publish the
    filled buffers at the next :class:`DrainOp` instead of completing
    in place (the prefetch stage of a pipelined collective round).
    ``round`` is the round the prefetched window serves (its buffers
    must not be published before that round — an earlier publication
    would clobber reply slots the current round's exchange still
    reads); ``-1`` means "the round it was submitted in".
    """

    lo: int
    hi: int
    mode: str = "window"
    pieces: Tuple[Piece, ...] = ()
    strict: bool = False
    overlap: bool = False
    round: int = -1

    def __repr__(self) -> str:
        return (
            f"FileReadOp([{self.lo}, {self.hi}), mode={self.mode!r}, "
            f"pieces={len(self.pieces)}"
            f"{', strict' if self.strict else ''}"
            f"{', overlap' if self.overlap else ''})"
        )


@dataclass(frozen=True, repr=False)
class FileWriteOp(PlanOp):
    """Write file data for one coalesced window ``[lo, hi)``.

    ``mode``:

    ``"mapped"``
        copy the one piece straight into the file buffer itself (no
        pre-read, no write-back, no lock: it writes only its own
        bytes);
    ``"rmw"``
        read-modify-write: pre-read the window, scatter every piece's
        blocks into it — from its slot, or for a :data:`MEM` piece
        straight from user memory — and write it back (the general
        sieved write — pair with :class:`LockOp`/:class:`UnlockOp` when
        racing writers are possible);
    ``"assemble"``
        the pieces together cover every byte of the window, so skip the
        pre-read, assemble the window in memory and write once (the
        mergeview coverage decision of paper §3.2.3);
    ``"direct"``
        write each block of each piece with its own file access.

    ``overlap`` marks the op as pipeline-eligible: the executor may
    assemble the window on the spot but offload the actual write to its
    pipeline worker, so the next round's exchange proceeds while the
    device works the bytes off (only ``"assemble"`` windows — ``"rmw"`` stays on the
    ordered synchronous path).
    """

    lo: int
    hi: int
    mode: str = "rmw"
    pieces: Tuple[Piece, ...] = ()
    overlap: bool = False

    def __repr__(self) -> str:
        return (
            f"FileWriteOp([{self.lo}, {self.hi}), mode={self.mode!r}, "
            f"pieces={len(self.pieces)}"
            f"{', overlap' if self.overlap else ''})"
        )


@dataclass(frozen=True, repr=False)
class Send(PlanOp):
    """One outbound payload of an :class:`ExchangeOp`.

    ``slot`` names a buffer prepared earlier in the plan (listless:
    per-IOP :class:`GatherOp` output; replies of a collective read).
    ``ol``/``d_lo`` describe the conventional engine's per-access
    ol-list shipment instead: the expanded list plus the data offset
    its first tuple maps to.
    """

    rank: int
    slot: object = None
    ol: object = None
    d_lo: int = 0

    def __repr__(self) -> str:
        if self.slot is not None:
            return f"Send(rank={self.rank}, slot={self.slot!r})"
        return f"Send(rank={self.rank}, list, d_lo={self.d_lo})"


@dataclass(frozen=True, repr=False)
class RoundOp(PlanOp):
    """Marker opening aggregation round ``index`` of ``total``.

    The ops following it (up to the next :class:`RoundOp` or the plan
    end) form one bounded exchange+file-I/O round of the two-phase
    collective: every rank packs only that round's window bytes, ships
    them, and the IOP accesses one ``cb_buffer_size`` window.  The
    executor uses the marker for per-round phase accounting and trace
    spans.
    """

    index: int
    total: int

    def __repr__(self) -> str:
        return f"RoundOp({self.index + 1}/{self.total})"


@dataclass(frozen=True, repr=False)
class ExchangeOp(PlanOp):
    """Redistribution of the prepared payloads.

    ``mode="alltoall"`` (the default, and the fallback when metadata
    cannot prove who talks to whom) executes one synchronizing
    ``alltoall`` over the plan's communicator: every :class:`Send`
    becomes the outbound payload for its rank, and each inbound payload
    from rank *r* is stored under slot ``("in", r)``.

    ``mode="p2p"`` is the relaxed-synchronization path of the pipelined
    collective: the plan's metadata proved exactly which (AP, IOP)
    pairs move bytes this round, so the executor sends each payload
    point-to-point under ``tag`` and completes receives from exactly
    ``recvs`` in arrival order — ranks with empty windows neither send
    nor wait, paying no round barrier.
    """

    sends: Tuple[Send, ...] = ()
    mode: str = "alltoall"
    recvs: Tuple[int, ...] = ()
    tag: int = 0

    def __repr__(self) -> str:
        if self.mode == "p2p":
            return (
                f"ExchangeOp(p2p, sends={len(self.sends)}, "
                f"recvs={len(self.recvs)}, tag={self.tag})"
            )
        return f"ExchangeOp(sends={len(self.sends)})"


@dataclass(frozen=True, repr=False)
class ShipOp(PlanOp):
    """Ship a file op's noncontiguous accesses to the shard servers.

    A plan rewrite (``repro.io.shipping``) replaces an eligible
    :class:`FileReadOp`/:class:`FileWriteOp` against a
    :class:`~repro.fs.sharded.ShardedFile` with this op: instead of the
    executor accessing bytes through the file surface (one wire round
    trip per primitive), the whole noncontiguous access is described to
    each involved shard server in one request per shard.

    ``protocol`` selects the wire description (the list-I/O vs
    datatype-I/O comparison of "Noncontiguous I/O through PVFS"):
    ``"list"`` ships exploded per-shard offset/length lists, ``"dtype"``
    ships the compact fileview once per (shard, view) and then only
    ``(view id, data range, file delta)`` — ``views`` carries the
    per-piece ``(vid, cview, data_base)`` triple for the dtype path,
    ``None`` entries falling back to lists.  Coordinates in ``pieces``
    stay plan-relative; the executor's file delta is applied at ship
    time, so cached/replayed plans rewrite once and re-ship anywhere.
    """

    lo: int
    hi: int
    write: bool
    protocol: str
    pieces: Tuple[Piece, ...] = ()
    views: Tuple[object, ...] = field(default=(), compare=False)
    strict: bool = False

    def __repr__(self) -> str:
        kind = "write" if self.write else "read"
        return (
            f"ShipOp({kind} [{self.lo}, {self.hi}), "
            f"protocol={self.protocol!r}, pieces={len(self.pieces)}"
            f"{', strict' if self.strict else ''})"
        )


@dataclass(frozen=True, repr=False)
class DrainOp(PlanOp):
    """Barrier against the executor's background file-I/O worker.

    Waits until at most ``keep`` offloaded file ops remain in flight,
    then publishes the buffers of every completed prefetch into the
    plan's staging dict.  ``keep=1`` is the steady-state drain of a
    double-buffered pipeline (round N's window is ready, round N+1's
    prefetch keeps flying); ``keep=0`` is the final drain.
    """

    keep: int = 0

    def __repr__(self) -> str:
        return f"DrainOp(keep={self.keep})"
