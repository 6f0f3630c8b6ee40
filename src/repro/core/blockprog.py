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
plus one bulk gather/scatter.  Programs are cached per loop object in a
bounded LRU (the loop itself is held weakly, so dropping a datatype
drops its programs); the cache is additionally cleared whenever a
fileview is replaced (:meth:`~repro.plan.planner.Planner.invalidate`),
mirroring the plan LRU's view-epoch rule.

There is no switch: programs are the only data plane, and only
contiguous and empty ranges bypass compilation.  The A/B baseline is
the list-based engine plus the benchmarks' cold calls of
``loop.blocks_range`` with one-shot kernels.  Counters (compiles, hits,
misses, translations) and the cache itself are scoped to the active
:class:`~repro.session.IOSession` — shared by all simulated ranks of a
world, isolated between sessions — and surfaced through the metrics
registry and ``repro.cli plan-dump``.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro import tally
from repro._ctx import SESSION
from repro.core.dataloop import DLContig, DLSeq, DLVector, Dataloop
from repro.core.gather import classify

__all__ = [
    "BlockProgram",
    "ProgramCache",
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

#: Per-loop LRU bound: distinct (residue, length) shapes kept per loop.
#: Sieving/two-phase loops cycle through a handful of window shapes;
#: 64 covers them with room for boundary windows.
_MAX_PROGRAMS_PER_LOOP = 64


@tally.tallied
class _Stats(tally.Tallied):
    """Block-program counters (one instance per session).  ``hits``
    reads its base plus the live bound calls' replays, each a pair-
    program hit (:mod:`repro.tally`)."""

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
# The cache
# ----------------------------------------------------------------------
class ProgramCache:
    """Store of compiled programs: loop → LRU of keyed programs.

    Entries are keyed ``(owner, residue, nbytes)`` — ``owner`` is the
    file identity (:attr:`repro.io.file_handle.SharedFileState.
    file_key`) the program was compiled for, or ``None`` for
    file-independent callers — so two open files can never alias each
    other's programs, and a fileview replacement on one file clears only
    that file's programs (:meth:`clear` with an owner).  The loop key is
    held weakly: dropping a datatype (and with it the cached dataloop)
    drops every program compiled from it.  Guarded by a lock because
    simulated ranks are threads sharing the cache; :meth:`get` is
    single-flight per key, so ranks that miss the same key together
    compile it once.  One instance per session.
    """

    def __init__(self) -> None:
        self._cache: "weakref.WeakKeyDictionary[Dataloop, OrderedDict]" = (
            weakref.WeakKeyDictionary()
        )
        self._lock = threading.Lock()
        #: ``(loop, key) -> Event`` of compiles in flight.
        self._inflight: Dict[tuple, threading.Event] = {}

    def clear(self, owner=None) -> None:
        """Drop compiled programs: all of them (``owner=None``), or only
        those compiled for one file identity."""
        with self._lock:
            if owner is None:
                self._cache.clear()
                return
            for progs in self._cache.values():
                for key in [k for k in progs if k[0] == owner]:
                    del progs[key]

    def _store(self, loop, key, prog) -> None:
        progs = self._cache.get(loop)
        if progs is None:
            progs = OrderedDict()
            self._cache[loop] = progs
        progs[key] = prog
        while len(progs) > _MAX_PROGRAMS_PER_LOOP:
            progs.popitem(last=False)

    def get(self, loop: Dataloop, key: tuple, stats, compile_fn, *args):
        """The program for ``key``, compiling it with ``compile_fn(loop,
        *args)`` on a miss; counts one hit or one miss in ``stats``.

        Single-flight: the first thread to miss a key compiles it
        outside the lock; threads missing the same key meanwhile wait
        for that compile and count a hit.  A failed compile wakes the
        waiters, and the next of them compiles in its place.
        """
        while True:
            with self._lock:
                progs = self._cache.get(loop)
                prog = progs.get(key) if progs is not None else None
                if prog is not None:
                    progs.move_to_end(key)
                    stats._hits += 1
                    return prog
                ident = (loop, key)
                ev = self._inflight.get(ident)
                if ev is None:
                    ev = self._inflight[ident] = threading.Event()
                    stats.misses += 1
                    break
            ev.wait()
        prog = None
        try:
            prog = compile_fn(loop, *args)
        finally:
            with self._lock:
                if prog is not None:
                    self._store(loop, key, prog)
                del self._inflight[ident]
            ev.set()
        return prog


def clear(owner=None) -> None:
    """Drop compiled programs from the active session's cache.

    Called on fileview replacement (the same epoch rule the plan LRU
    follows) with the replaced file's identity as ``owner``, so one
    file's ``set_view`` no longer evicts every other open file's
    programs; ``clear()`` with no owner drops everything.
    """
    SESSION.get().programs.clear(owner)


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
    loop: Optional[Dataloop], s_lo: int, s_hi: int, owner=None,
) -> Optional[Tuple[BlockProgram, int]]:
    """Compiled program and translation base for a range query.

    Returns ``(program, base)`` such that ``program.materialize(base)``
    equals ``loop.blocks_range(s_lo, s_hi)``, or ``None`` when the query
    is not worth compiling (empty range, contiguous loop — plain slice
    arithmetic beats any cache).
    ``owner`` is the file identity the program serves (part of the cache
    key; see :class:`ProgramCache`).
    """
    sess = SESSION.get()
    stats = sess.prog_stats
    if loop is None or s_hi <= s_lo or isinstance(loop, DLContig) or (
        isinstance(loop, DLVector) and isinstance(loop.child, DLContig)
        and loop.stride == loop.child.size
    ):
        # Empty range or contiguous data (blocks_range is a two-array
        # constant): the cache could only add overhead.
        stats.bypasses += 1
        return None
    n = s_hi - s_lo
    residue, base = _periodicity(loop, s_lo, n)
    prog = sess.programs.get(loop, (owner, residue, n), stats,
                             _compile, residue, n)
    return prog, base


def _compile(loop: Dataloop, residue: int, n: int) -> BlockProgram:
    """Compile the program of ``n`` data bytes at ``residue`` (runs
    outside the cache lock: ``blocks_range`` is the expensive part and
    touches only the immutable loop)."""
    from repro.obs import trace

    t0 = trace.now() if trace.TRACE_ON else 0.0
    offs, lens = loop.blocks_range(residue, residue + n)
    prog = BlockProgram(offs, lens)
    if trace.TRACE_ON:
        trace.TRACER.add("blockprog.compile", t0, blocks=int(offs.size))
    return prog


def blocks_range_cached(
    loop: Dataloop, s_lo: int, s_hi: int, owner=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop-in for ``loop.blocks_range`` that reuses compiled programs.

    The returned offsets are freshly translated (never aliased to the
    canonical arrays when a translation applies), so callers may mutate
    them — except for ``base == 0`` hits, which return the read-only
    canonical arrays themselves; callers that mutate must copy.
    """
    hit = program_for(loop, s_lo, s_hi, owner=owner)
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
