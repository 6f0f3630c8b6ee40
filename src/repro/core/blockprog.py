"""Compiled block programs: cached, relocatable traversal results.

Flattening-on-the-fly never stores an O(Nblock) representation — but the
original ``ff_pack``/``ff_unpack`` re-ran the full :meth:`Dataloop.
blocks_range` traversal and rebuilt fresh ``(offsets, lengths)`` arrays
on *every* call, even when the same range shape recurs on every window
of a sieving or two-phase loop.  This module exploits the same datatype
*periodicity* that makes listless navigation O(depth): a range query on
a periodic loop depends on its absolute position only through a scalar
translation.

A :class:`BlockProgram` is the compiled form of one range query:

* the **canonical descriptor** — ``(offsets, lengths)`` for the range
  reduced to its canonical position: whole periods of every enclosing
  :class:`~repro.core.dataloop.DLVector` are dropped and struct fields
  (:class:`~repro.core.dataloop.DLSeq`) are descended recursively, so
  nested and struct dataloops canonicalize, not just top-level vectors;
* a **classified kernel** — :func:`repro.core.gather.classify` run
  once at compile time: which gather/scatter path fires, with its
  per-call derivations (slice pairs of the loop paths, the element or
  byte index of the index paths) computed once and reused.

Steady-state pack/unpack of a recurring window shape is then O(1)
Python-level setup — translate the cached program by a scalar base —
plus one bulk gather/scatter.  Programs live in one store per session,
keyed by layout (:class:`ProgramStore`).

There is no switch: programs are the only data plane, and only
contiguous and empty ranges bypass compilation.  The A/B baseline is
the list-based engine plus the benchmarks' cold calls of
``loop.blocks_range`` with one-shot kernels.  Counters (compiles, hits,
misses, translations) and the store itself are scoped to the active
:class:`~repro.session.IOSession` — shared by all simulated ranks of a
world, isolated between sessions — and surfaced through the metrics
registry and ``repro.cli plan-dump``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro import tally
from repro._ctx import SESSION
from repro.core.dataloop import DLContig, DLSeq, DLVector, Dataloop
from repro.core.gather import classify

__all__ = [
    "BlockProgram",
    "ProgramStore",
    "blockprog_stats",
    "blocks_range_cached",
    "clear",
    "program_for",
    "program_for_blocks",
]

#: Payload cap of a cached byte index: it costs 8 B per payload byte
#: and lives as long as the program, so above 1 MiB the per-block loop
#: runs instead (element indexes, 8 B per block, are not capped).
_IDX_CAP = 1 << 20

#: Bound of a session's program store (:class:`ProgramStore`).  The
#: most entries one store held, measured: 10 in a BT-IO class S run (4
#: sim ranks), at most 2 in each perfbench workload, 1 in
#: ``bench_service.py --quick`` and 9 in the Fig. 5-7 ``--quick`` runs.
MAX_PROGRAMS = 256


@tally.tallied
class _Stats(tally.Tallied):
    """Block-program counters (one instance per session).  ``hits``
    reads its base plus the live bound calls' replays, each a pair-
    program hit (:mod:`repro.tally`).  Hits and misses are bumped under
    ``_mu``, so concurrent ranks count exactly."""

    __slots__ = ("compiled", "_hits", "misses", "translations", "bypasses",
                 "_tallies")
    TERMS = {"hits": tally.replays}

    def __init__(self) -> None:
        self._tallies = ()
        self.reset()

    def reset(self) -> None:
        with self._mu:
            self.compiled = 0
            self._hits = 0
            self.misses = 0
            self.translations = 0
            self.bypasses = 0
            self._rebase()

    def snapshot(self) -> dict:
        return {
            "blockprog_compiled": self.compiled,
            "blockprog_hits": self.hits,
            "blockprog_misses": self.misses,
            "blockprog_translations": self.translations,
            "blockprog_bypasses": self.bypasses,
        }


def blockprog_stats() -> dict:
    """Snapshot of the active session's block-program counters."""
    return SESSION.get().prog_stats.snapshot()


class BlockProgram:
    """One compiled range query: canonical blocks + classified kernel.

    ``offsets``/``lengths`` are the canonical descriptor (read-only
    arrays).  :meth:`gather`/:meth:`scatter` run the
    :class:`~repro.core.gather.Kernel` classified once against a buffer
    with all offsets translated by a scalar ``base`` — the relocation
    that makes one program serve every period of a periodic access.
    With ``other`` (block ``i`` paired with ``other[i]`` in a second
    buffer, see :func:`~repro.core.gather.pair_blocks`) the kernel is a
    two-sided pair kernel, classified at compile time; its second
    buffer is translated by the ``pos`` argument.  A one-sided program
    classifies on its first run (:attr:`kernel`): a mapped access uses
    only its blocks, and copies through a pair kernel instead.
    """

    __slots__ = ("offsets", "lengths", "nbytes", "count", "_kernel")

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray,
                 other: Optional[np.ndarray] = None) -> None:
        # Own copies: programs outlive the call that compiled them, and
        # the read-only flag must never leak onto a caller's arrays.
        offsets = np.array(offsets, dtype=np.int64)
        lengths = np.array(lengths, dtype=np.int64)
        offsets.setflags(write=False)
        lengths.setflags(write=False)
        self.offsets = offsets
        self.lengths = lengths
        self.count = int(offsets.size)
        self.nbytes = int(lengths.sum())
        self._kernel = None
        if other is not None:
            self._kernel = classify(offsets, lengths, idx_cap=_IDX_CAP,
                                    other=np.asarray(other,
                                                     dtype=np.int64))
        SESSION.get().prog_stats.compiled += 1

    @property
    def kernel(self):
        """The classified :class:`~repro.core.gather.Kernel`."""
        k = self._kernel
        if k is None:
            k = self._kernel = classify(self.offsets, self.lengths,
                                        idx_cap=_IDX_CAP)
        return k

    @property
    def kind_name(self) -> str:
        """Name of the kernel path the program compiled to."""
        return self.kernel.name

    @property
    def index_nbytes(self) -> int:
        """Size of the precomputed index arrays (0 unless the program
        compiled to an element or byte index kernel)."""
        return self.kernel.index_nbytes

    def describe(self) -> str:
        """One-line shape summary, for ``plan-dump``."""
        s = f"{self.kind_name}(k={self.count}, nbytes={self.nbytes}"
        if self.index_nbytes:
            s += f", idx={self.index_nbytes // 8}"
        return s + ")"

    def materialize(self, base: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(offsets + base, lengths)`` — the relocated descriptor."""
        SESSION.get().prog_stats.translations += 1
        if base == 0:
            return self.offsets, self.lengths
        return self.offsets + base, self.lengths

    def gather(self, src: np.ndarray, base: int, out: np.ndarray,
               out_pos: int = 0) -> int:
        """Copy the program's blocks (translated by ``base``) of ``src``
        into ``out`` at ``out_pos``; returns bytes copied."""
        SESSION.get().prog_stats.translations += 1
        return (self._kernel or self.kernel).copy(src, base, out, out_pos,
                                                  True)

    def scatter(self, dst: np.ndarray, base: int, src: np.ndarray,
                src_pos: int = 0) -> int:
        """Copy contiguous ``src`` bytes from ``src_pos`` into the
        program's blocks of ``dst`` (translated by ``base``)."""
        SESSION.get().prog_stats.translations += 1
        return (self._kernel or self.kernel).copy(dst, base, src, src_pos,
                                                  False)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BlockProgram(k={self.count}, nbytes={self.nbytes}, "
            f"kind={self.kind_name})"
        )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ProgramStore:
    """A session's compiled programs: one LRU keyed by layout.

    The key of a program is ``(loop.key, residue, nbytes)``: the value
    key of the loop it was compiled from (:attr:`~repro.core.dataloop.
    Dataloop.key`, built from a node's fields and its children's keys,
    with a 128-bit digest standing in for a descriptor), and the
    canonical range it covers.  A program is a pure function of that
    key, so equal layouts share it whatever datatype object, file or
    view they came from, and ``set_view`` clears nothing: the bound,
    :data:`MAX_PROGRAMS` entries, least recently used first out, is
    what keeps memory in check.

    A miss compiles under the store's one lock: simulated ranks are
    threads sharing the store, and ranks that miss the same key together
    compile it once.  A compile that raises releases the lock with
    nothing stored.  One instance per session.
    """

    __slots__ = ("_progs", "_lock")

    def __init__(self) -> None:
        self._progs: "OrderedDict[tuple, BlockProgram]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._progs)

    def clear(self) -> None:
        """Drop every compiled program."""
        with self._lock:
            self._progs.clear()

    def get(self, loop: Dataloop, residue: int, n: int,
            stats) -> BlockProgram:
        """The program of ``n`` data bytes at ``residue`` of ``loop``,
        compiled on a miss; counts one hit or one miss in ``stats``."""
        key = (loop.key, residue, n)
        progs = self._progs
        with self._lock:
            prog = progs.get(key)
            if prog is not None:
                progs.move_to_end(key)
                with stats._mu:
                    stats._hits += 1
                return prog
            with stats._mu:
                stats.misses += 1
            prog = progs[key] = _compile(loop, residue, n)
            if len(progs) > MAX_PROGRAMS:
                progs.popitem(last=False)
            return prog


def clear() -> None:
    """Drop every compiled program of the active session's store."""
    SESSION.get().programs.clear()


def _periodicity(loop: Dataloop, s_lo: int, n: int) -> Tuple[int, int]:
    """Reduce a length-``n`` range at ``s_lo`` to its canonical position.

    Returns ``(rep, base)`` satisfying the relocation invariant::

        loop.blocks_range(s_lo, s_lo + n)
            == loop.blocks_range(rep, rep + n) + base

    A vector drops whole child periods (``child.size`` data bytes per
    ``stride`` extent bytes) and — when the remaining range fits inside
    one child instance — recurses into the child, so nested periodic
    structure (vectors of vectors, periodic struct fields) canonicalizes
    too.  A struct/indexed sequence recurses into the single child
    containing the range; ranges spanning children, and aperiodic
    leaves, key on the absolute position and translate by nothing.
    """
    if isinstance(loop, DLVector):
        csize = loop.child.size
        q, r = divmod(s_lo, csize)
        if r + n <= csize:
            rep, base = _periodicity(loop.child, r, n)
            return rep, q * loop.stride + base
        return r, q * loop.stride
    if isinstance(loop, DLSeq):
        cum = loop.cumsizes
        i = int(np.searchsorted(cum, s_lo, side="right")) - 1
        if 0 <= i < len(loop.children) and s_lo + n <= int(cum[i + 1]):
            rep, base = _periodicity(
                loop.children[i], s_lo - int(cum[i]), n
            )
            # rep + n never exceeds the child's size (rep <= the child-
            # relative position and the range fits the child), so the
            # re-keyed range resolves inside child i again and the
            # child's placement offset cancels out of the invariant.
            return int(cum[i]) + rep, base
        return s_lo, 0
    return s_lo, 0


def program_for(
    loop: Optional[Dataloop], s_lo: int, s_hi: int,
) -> Optional[Tuple[BlockProgram, int]]:
    """Compiled program and translation base for a range query.

    Returns ``(program, base)`` such that ``program.materialize(base)``
    equals ``loop.blocks_range(s_lo, s_hi)``, or ``None`` when the query
    is not worth compiling (empty range, contiguous loop — plain slice
    arithmetic beats any cache).
    """
    sess = SESSION.get()
    stats = sess.prog_stats
    if loop is None or s_hi <= s_lo or isinstance(loop, DLContig):
        # Empty range or contiguous data (blocks_range is a two-array
        # constant; compilation collapses every contiguous vector into
        # a DLContig): the store could only add overhead.
        stats.bypasses += 1
        return None
    n = s_hi - s_lo
    residue, base = _periodicity(loop, s_lo, n)
    return sess.programs.get(loop, residue, n, stats), base


def _compile(loop: Dataloop, residue: int, n: int) -> BlockProgram:
    """Compile the program of ``n`` data bytes at ``residue`` (under
    the store's lock)."""
    from repro.obs import trace

    t0 = trace.now() if trace.TRACE_ON else 0.0
    offs, lens = loop.blocks_range(residue, residue + n)
    prog = BlockProgram(offs, lens)
    if trace.TRACE_ON:
        trace.TRACER.add("blockprog.compile", t0, blocks=int(offs.size))
    return prog


def blocks_range_cached(
    loop: Dataloop, s_lo: int, s_hi: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop-in for ``loop.blocks_range`` that reuses compiled programs.

    The returned offsets are freshly translated (never aliased to the
    canonical arrays when a translation applies), so callers may mutate
    them — except for ``base == 0`` hits, which return the read-only
    canonical arrays themselves; callers that mutate must copy.
    """
    hit = program_for(loop, s_lo, s_hi)
    if hit is None:
        return loop.blocks_range(s_lo, s_hi)
    prog, base = hit
    return prog.materialize(base)


def program_for_blocks(blocks) -> BlockProgram:
    """Compile (once) a program from a plan's materialized ``Blocks``.

    The program is cached on the ``Blocks`` object itself, so replays
    of a cached plan skip per-run ``tolist``/index-array derivation and
    window-relative offset arithmetic.
    """
    prog = blocks.prog
    if prog is None:
        prog = BlockProgram(blocks.offsets, blocks.lengths)
        object.__setattr__(blocks, "prog", prog)
    return prog
