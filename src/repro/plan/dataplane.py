"""The data plane: batched block copies shared by every executor path.

Every place a plan moves bytes between a file/staging buffer and a
block-described region — sieved gathers, round-staging pack of the
two-phase exchange, read-modify-write overlays, direct per-block file
I/O — used to dispatch its own copy code inline in the executor, with
the conventional engine's :class:`~repro.plan.ops.TupleBlocks` copied
one Python tuple at a time.  This facade centralizes those copies and
fuses them into single NumPy batched kernels:

:class:`~repro.plan.ops.Blocks`
    executed through the compiled :class:`~repro.core.blockprog.
    BlockProgram` of the block list (compiled once, memoized on the
    ``Blocks`` object, translated per call by a scalar base) — or, with
    the program layer disabled, through the one-shot vectorized
    gather/scatter kernels;
:class:`~repro.plan.ops.TupleBlocks`
    the tuple list is lowered once to ``(offsets, lengths)`` index
    arrays (memoized on the ``TupleBlocks`` object) and executed through
    the same batched kernels.  Building and shipping the tuples — the
    §2 costs the conventional engine models — still happens per access
    in the engine; only the byte movement is batched.  With the program
    layer disabled the per-tuple interpreted loop is preserved, so A/B
    runs compare fused against interpreted copies end to end.

Per-block *file* accesses (direct mode) are real I/O, not copy
overhead: the executor hands the whole block list (:func:`block_arrays`)
to the backend's vectored ``preadv_blocks``/``pwritev_blocks`` call.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core import blockprog
from repro.core.gather import gather_blocks, scatter_blocks
from repro.plan.ops import Blocks, TupleBlocks

__all__ = ["DataPlane", "block_arrays", "tuple_arrays"]


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


class DataPlane:
    """Batched gather/scatter between window buffers and block specs.

    Stateless; offsets inside the block specs are absolute file offsets
    and ``wlo`` is the window origin they are rebased against.  The
    ``enabled`` flag (normally :func:`repro.core.blockprog.enabled`)
    selects the fused paths; disabled, the historical per-call paths
    run (fresh kernel dispatch for ``Blocks``, interpreted per-tuple
    loop for ``TupleBlocks``) for A/B comparison.
    """

    @staticmethod
    def gather(fb: np.ndarray, wlo: int, blocks, out: np.ndarray,
               pos: int, enabled: bool) -> int:
        """Copy ``blocks`` of window buffer ``fb`` into ``out`` at
        ``pos``; returns bytes copied."""
        if isinstance(blocks, Blocks):
            if enabled:
                prog = blockprog.program_for_blocks(blocks)
                return prog.gather(fb, -wlo, out, pos)
            return gather_blocks(fb, blocks.offsets - wlo,
                                 blocks.lengths, out, pos)
        if enabled:
            offs, lens = tuple_arrays(blocks)
            return gather_blocks(fb, offs - wlo, lens, out, pos)
        copied = 0
        for o, ln in blocks.pairs:
            out[pos : pos + ln] = fb[o - wlo : o - wlo + ln]
            pos += ln
            copied += ln
        return copied

    @staticmethod
    def scatter(fb: np.ndarray, wlo: int, blocks, src: np.ndarray,
                pos: int, enabled: bool) -> int:
        """Copy contiguous ``src`` bytes from ``pos`` into ``blocks`` of
        window buffer ``fb``; returns bytes copied."""
        if isinstance(blocks, Blocks):
            if enabled:
                prog = blockprog.program_for_blocks(blocks)
                return prog.scatter(fb, -wlo, src, pos)
            return scatter_blocks(fb, blocks.offsets - wlo,
                                  blocks.lengths, src, pos)
        if enabled:
            offs, lens = tuple_arrays(blocks)
            return scatter_blocks(fb, offs - wlo, lens, src, pos)
        copied = 0
        for o, ln in blocks.pairs:
            fb[o - wlo : o - wlo + ln] = src[pos : pos + ln]
            pos += ln
            copied += ln
        return copied
