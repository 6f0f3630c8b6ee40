"""The data plane: batched block copies shared by every executor path.

Every place a plan moves bytes between a file/staging buffer and a
block-described region — sieved gathers, round-staging pack of the
two-phase exchange, read-modify-write overlays — copies through this
facade, which fuses each copy into a single NumPy batched kernel:

:class:`~repro.plan.ops.Blocks`
    executed through the compiled :class:`~repro.core.blockprog.
    BlockProgram` of the block list (compiled once, memoized on the
    ``Blocks`` object, translated per call by a scalar base);
:class:`~repro.plan.ops.TupleBlocks`
    the tuple list is lowered once to ``(offsets, lengths)`` index
    arrays (memoized on the ``TupleBlocks`` object) and executed through
    the same batched kernels.  Building and shipping the tuples — the
    §2 costs the conventional engine models — still happens per access
    in the engine; only the byte movement is batched.

There is no switch selecting an interpreted fallback: the A/B baseline
is the list-based engine plus the benchmarks' cold calls of
``loop.blocks_range`` with one-shot kernels.

A :data:`~repro.plan.ops.MEM` piece (a mapped independent access, a
sieved window) has no staging buffer at all: its bytes move straight
between the file buffer and the user buffer in one two-sided kernel
call, through a *pair program* (:func:`pair_program`) that pairs the
piece's file blocks with the memory blocks of the same data bytes.

Per-block *file* accesses (direct mode) are real I/O, not copy
overhead: the executor hands the whole block list (:func:`block_arrays`)
to the backend's vectored ``preadv_blocks``/``pwritev_blocks`` call.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

import numpy as np

from repro._ctx import SESSION
from repro.core import blockprog
from repro.core.ff_pack import top_dataloop
from repro.core.gather import gather_blocks, pair_blocks, scatter_blocks
from repro.io.fileview import MemDescriptor
from repro.plan.ops import Blocks, TupleBlocks

__all__ = ["DataPlane", "StageBuf", "block_arrays", "dense_window",
           "pair_program", "tuple_arrays"]

#: Memory layouts whose pair programs one ``Blocks`` object keeps (an
#: LRU): a cached plan normally serves one layout, a few at most.
_MAX_PAIRS = 4


class StageBuf:
    """A plan run's staging buffer: ``arr`` holds data bytes ``[d_lo,
    d_hi)``; ``zero_copy`` marks it a view of the user buffer itself,
    where scatter ops are no-ops (the data is already in place)."""

    __slots__ = ("d_lo", "d_hi", "arr", "zero_copy")

    def __init__(self, d_lo: int, d_hi: int, arr: np.ndarray,
                 zero_copy: bool = False) -> None:
        self.d_lo = d_lo
        self.d_hi = d_hi
        self.arr = arr
        self.zero_copy = zero_copy


def dense_window(op) -> bool:
    """One piece whose blocks are one run spanning the whole window."""
    if len(op.pieces) != 1:
        return False
    blocks = op.pieces[0].blocks
    return (isinstance(blocks, Blocks) and blocks.count == 1
            and blocks.nbytes == op.hi - op.lo)


def tuple_arrays(blocks: TupleBlocks) -> Tuple[np.ndarray, np.ndarray]:
    """``(offsets, lengths)`` index arrays of a tuple list, built once
    and memoized on the ``TupleBlocks`` object (a cache, like
    ``Blocks.prog`` — replays of a cached plan skip the rebuild)."""
    arrs = blocks.arrs
    if arrs is None:
        offs = np.fromiter((o for o, _ in blocks.pairs), dtype=np.int64,
                           count=len(blocks.pairs))
        lens = np.fromiter((ln for _, ln in blocks.pairs), dtype=np.int64,
                           count=len(blocks.pairs))
        arrs = (offs, lens)
        object.__setattr__(blocks, "arrs", arrs)
    return arrs


def block_arrays(blocks) -> Tuple[np.ndarray, np.ndarray]:
    """int64 ``(offsets, lengths)`` arrays of a block spec, the form
    the vectored file calls take (memoized for tuple lists)."""
    if isinstance(blocks, Blocks):
        return blocks.offsets, blocks.lengths
    return tuple_arrays(blocks)


def pair_program(blocks: Blocks, mem: MemDescriptor,
                 rel: int) -> blockprog.BlockProgram:
    """The two-sided program of a :data:`~repro.plan.ops.MEM` piece.

    Pairs ``blocks`` (absolute file offsets) with the memory blocks of
    data bytes ``[rel, rel + blocks.nbytes)`` of ``mem`` (``rel``
    counted from the start of the access): the memory side is
    ``top_dataloop(memtype, count).blocks_range`` — one run for a
    contiguous memtype — with offsets relative to the datatype origin,
    so callers translate it by ``mem.origin``.

    Compiled once per memory layout ``(memtype, count, rel)`` and kept
    in a small LRU on the ``Blocks`` object (``Blocks.pairs``), so a
    replayed plan pays neither the memory traversal nor the kernel
    choice again; hits and misses count in the block-program stats
    (runs do not count as translations: the memory side is not
    relocated by periodicity).  A byte index stays within the programs'
    ``_IDX_CAP``.
    """
    key = (mem.memtype, mem.count, rel)
    memo = blocks.pairs
    if memo is not None:
        prog = memo.get(key)
        if prog is not None:
            if len(memo) > 1:
                memo.move_to_end(key)
            stats = SESSION.get().prog_stats
            with stats._mu:
                stats._hits += 1
            return prog
    n = blocks.nbytes
    if mem.is_contiguous:
        moffs = np.array([mem.memtype.lb + rel], dtype=np.int64)
        mlens = np.array([n], dtype=np.int64)
    else:
        loop = top_dataloop(mem.memtype, mem.count)
        moffs, mlens = loop.blocks_range(rel, rel + n)
    foffs, moffs, lens = pair_blocks(blocks.offsets, blocks.lengths,
                                     moffs, mlens)
    prog = blockprog.BlockProgram(foffs, lens, other=moffs)
    stats = SESSION.get().prog_stats
    with stats._mu:
        stats.misses += 1
    if memo is None:
        memo = OrderedDict()
        object.__setattr__(blocks, "pairs", memo)
    memo[key] = prog
    while len(memo) > _MAX_PAIRS:
        memo.popitem(last=False)
    return prog


class DataPlane:
    """Batched gather/scatter between window buffers and block specs.

    Stateless; offsets inside the block specs are absolute file offsets
    and ``wlo`` is the window origin they are rebased against.
    """

    @staticmethod
    def gather(fb: np.ndarray, wlo: int, blocks, out, pos: int) -> int:
        """Copy ``blocks`` of window buffer ``fb`` into ``out`` at
        ``pos``; returns bytes copied.  ``out`` is a staging array, or
        the access's :class:`~repro.io.fileview.MemDescriptor` — then
        ``pos`` is the blocks' first data byte relative to the access,
        and one pair-program call copies into user memory."""
        if type(out) is MemDescriptor:
            return pair_program(blocks, out, pos).kernel.copy(
                fb, -wlo, out.as_bytes, out.origin, True)
        if isinstance(blocks, Blocks):
            prog = blockprog.program_for_blocks(blocks)
            return prog.gather(fb, -wlo, out, pos)
        offs, lens = tuple_arrays(blocks)
        return gather_blocks(fb, offs - wlo, lens, out, pos)

    @staticmethod
    def scatter(fb: np.ndarray, wlo: int, blocks, src, pos: int) -> int:
        """Copy contiguous ``src`` bytes from ``pos`` into ``blocks`` of
        window buffer ``fb``; returns bytes copied.  ``src`` may be a
        :class:`~repro.io.fileview.MemDescriptor`, as for
        :meth:`gather`."""
        if type(src) is MemDescriptor:
            return pair_program(blocks, src, pos).kernel.copy(
                fb, -wlo, src.as_bytes, src.origin, False)
        if isinstance(blocks, Blocks):
            prog = blockprog.program_for_blocks(blocks)
            return prog.scatter(fb, -wlo, src, pos)
        offs, lens = tuple_arrays(blocks)
        return scatter_blocks(fb, offs - wlo, lens, src, pos)
