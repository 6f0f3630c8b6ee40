"""Vectorized gather/scatter kernels.

On the NEC SX, flattening-on-the-fly hands evenly spaced blocks to the
hardware gather/scatter units, which move one block per vector element.
The NumPy kernels here do the same: a block of ``S`` bytes is one
element (an integer for 2/4/8-byte blocks, ``void[S]`` otherwise — see
:data:`_INT`), so a copy costs one element move per block, not ``S``
byte moves.

A kernel is two-sided: it copies between the blocks of one buffer and
the same bytes, in the same order, in another.  A gather/scatter is the
case whose other side is one contiguous run; a *pair* kernel pairs two
block lists (:func:`pair_blocks`) — the sieved independent access copies
between the user buffer and the file buffer this way, with no staging
copy in between.  Each side gets its own view:

* uniform blocks at a uniform stride (either sign) → one strided
  element view of the buffer (no index array, no temporary); a stride
  equal to the block size is a contiguous run;
* uniform, non-overlapping blocks at ascending irregular offsets, of at
  least :data:`_ELEM_MIN` bytes → an element index (one int64 per
  block) over an overlapping ``strides=(1,)`` element view;
* tiny, overlapping or unsorted uniform blocks, and ragged blocks → a
  byte index (elements of one byte);
* a handful of blocks, or long blocks a side would need a byte index
  for → a loop of slice copies.

:func:`classify` makes that choice once per block list (or pair of
lists) and precomputes what the kernel needs into a :class:`Kernel`,
down to its copy core (:attr:`Kernel.core`, the copy with every
constant bound and no check); :meth:`Kernel.gather` /
:meth:`Kernel.scatter` check both spans and run it between two
buffers, each side translated by a scalar base.  The one-shot
:func:`gather_blocks`/:func:`scatter_blocks` classify and run; compiled
block programs (:mod:`repro.core.blockprog`) classify once and run per
call — one implementation for both, and for both kinds of kernel.

The contrast with the list-based engine — which copies one ``(offset,
length)`` tuple at a time in an interpreted loop, reading the tuple before
each copy — is exactly the contrast the paper draws between gather/scatter
copies and per-block list traversal (§2.1, "Copy time").
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from repro._ctx import SESSION
from repro.errors import FFError
from repro.tally import Tallied

__all__ = [
    "Kernel",
    "classify",
    "pair_blocks",
    "gather_blocks",
    "scatter_blocks",
    "block_index",
    "kernel_path_counts",
]

#: Below this many blocks a plain loop of slice copies beats building
#: index arrays — the scalar-architecture adaptation of
#: flattening-on-the-fly (the paper's companion work [17] makes the same
#: observation for PC platforms: small batches copy best without the
#: vector machinery).  Uniform-stride lists take the strided view even
#: below it: one view costs less than a handful of slice copies.
_SMALL_N = 16

#: Mean block size above which per-block memcpy beats a byte index:
#: the byte index costs 8 bytes of traffic per payload byte, which only
#: pays off when blocks are tiny.  Uniform lists never reach this test
#: unless they overlap or run backwards — the element index serves them.
_BIG_BLOCK = 256

#: Smallest block an element index moves as one element.  Measured on
#: ~32 KiB of irregular ascending blocks (2-vCPU VM, NumPy 2.4), compiled
#: element vs byte index, gather / scatter in µs: 4 B 40/45 vs 27/46,
#: 5 B 24/24 vs 19/34, 6 B 27/30 vs 31/45, 8 B 30/26 vs 32/54, 16 B 15/14
#: vs 33/53, 64 B 6/6 vs 28/48.  Below 6 B one fancy-index step per
#: element costs more than the bytes it moves; one-shot calls, which must
#: also build the byte index, favour the element index at every size.
_ELEM_MIN = 6

# Kernel kinds, indexing the counters of _KernelPaths.
SINGLE, SMALL, STRIDED, BIG, INDEX, RAGGED = range(6)
_PATH_NAMES = ("single", "small_loop", "strided_view", "big_block",
               "fancy_index", "ragged_index")


class _KernelPaths(Tallied):
    """Counters: which gather/scatter kernel path fired.

    One counter per kernel kind; every :meth:`Kernel.gather` /
    :meth:`Kernel.scatter` call bumps exactly one, whether it came from
    a one-shot :func:`gather_blocks` or a compiled block program.  One
    instance per :class:`~repro.session.IOSession`; read through
    :func:`kernel_path_counts` and surfaced in engine stats and
    ``repro.cli plan-dump``.  ``counts`` is the eagerly billed base,
    bumped under ``_mu`` so concurrent ranks count exactly; a bound
    call's copies are its tally's runs, added to the count of its
    kernel's kind by :meth:`snapshot` (:mod:`repro.tally`).
    """

    __slots__ = ("counts", "_tallies")

    def __init__(self) -> None:
        self._tallies = ()
        self.reset()

    def reset(self) -> None:
        with self._mu:
            self.counts = [0] * len(_PATH_NAMES)
            self._rebase()

    def _fold(self, t, sign: int) -> None:
        self.counts[t.kind] += sign * t.runs

    def snapshot(self) -> dict:
        with self._mu:
            counts = list(self.counts)
            for t in self._tallies:
                counts[t.kind] += t.runs
        return {f"kernel_path_{name}": c
                for name, c in zip(_PATH_NAMES, counts)}


def kernel_path_counts() -> dict:
    """Snapshot of the active session's kernel path counters."""
    return SESSION.get().kernel_paths.snapshot()


def _uniform_stride(offsets: np.ndarray) -> int | None:
    """Return the common difference of ``offsets``, or None if irregular.

    The step may be negative (type-map order need not be file order);
    callers must check its magnitude before taking a strided view.
    """
    if offsets.size <= 1:
        return 0
    step = int(offsets[1]) - int(offsets[0])
    if offsets.size > 2 and int(offsets[2]) - int(offsets[1]) != step:
        # Early exit: the first two differences already disagree — skip
        # the O(n) diff of the whole array.
        return None
    d = np.diff(offsets)
    if (d == step).all():
        return step
    return None


def block_index(offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Expand ``(offsets, lengths)`` into a flat byte-index array.

    The index of the byte-index kernels; exposed for tests.
    """
    if offsets.size == 0:
        return np.empty(0, dtype=np.int64)
    first = int(lengths[0]) if lengths.size else 0
    if (lengths == first).all():
        return (
            offsets[:, None] + np.arange(first, dtype=np.int64)[None, :]
        ).reshape(-1)
    total = int(lengths.sum())
    cum = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(cum, lengths)
    return np.repeat(offsets, lengths) + within


@functools.lru_cache(maxsize=None)
def _elem(size: int) -> np.dtype:
    """The dtype that moves one ``size``-byte block as one element."""
    return np.dtype(np.uint8) if size == 1 else np.dtype((np.void, size))


#: Integer element dtypes for 2-, 4- and 8-byte blocks.  NumPy copies
#: one strided ``void[S]`` array into another one item at a time; an
#: aligned integer view takes its vectorized strided loop instead.
#: Measured on 32768 x 8 B at stride 16 (2-vCPU VM, NumPy 2.4),
#: strided to strided, µs: void 127, uint64 18, and — through a
#: contiguous temporary, as two passes — void 33.  Misaligned, uint64
#: takes 138, so a misaligned call falls back to void through the
#: temporary.  Other sizes stay ``void`` in one pass (8192 x 64 B: 61
#: vs 116 µs for two passes; 65536 x 3 B: 258 vs 590 µs).  Lists of at
#: most :data:`_SMALL_N` blocks take the integer view unchecked: there
#: the alignment check costs more than the copy, and a misaligned
#: integer copy is as correct, and as fast, as a ``void`` one.
_INT = {2: np.dtype(np.uint16), 4: np.dtype(np.uint32),
        8: np.dtype(np.uint64)}

# A side of a kernel: where its blocks sit in one buffer, as the tuple
# ``(lo, hi, start, shape, strides, idx)``.  ``[lo, hi)`` is the byte
# span the blocks touch, checked against the buffer on every checked
# call.  The element view starts at byte ``start``: ``shape is None``
# marks one contiguous run, otherwise ``shape``/``strides`` give the
# view and ``idx`` indexes it — ``...`` for a strided view, an element
# or byte index over an overlapping ``strides=(1,)`` view.
_LO, _HI, _START, _SHAPE, _STRIDES, _IDX = range(6)


def _run_side(start: int, nbytes: int) -> tuple:
    """One contiguous run of ``nbytes`` at ``start``."""
    return (start, start + nbytes, start, None, None, ...)


def _strided_side(start: int, step: int, size: int, n: int) -> tuple:
    """``n`` blocks of ``size`` bytes, ``step`` apart (either sign)."""
    if step == size:
        return _run_side(start, n * size)
    last = start + (n - 1) * step
    return (min(start, last), max(start, last) + size, start, (n,),
            (step,), ...)


def _index_side(offsets: np.ndarray, lengths: np.ndarray,
                size: int) -> tuple:
    """Index over an overlapping element view of the blocks' span:
    element ``i`` of the view starts at byte ``lo + i``.  ``size`` is
    the element size: the block size for an element index (one entry
    per block), 1 for a byte index (one entry per byte)."""
    lo = int(offsets.min())
    hi = int((offsets + lengths).max())
    rel = offsets - lo
    idx = rel if size > 1 else block_index(rel, lengths)
    idx.setflags(write=False)
    return (lo, hi, lo, (hi - lo - size + 1,), (1,), idx)


def _loop_side(offs: list, lens: list) -> tuple:
    """A loop kernel's side: only its span is needed."""
    return (min(offs, default=0),
            max(map(operator.add, offs, lens), default=0),
            None, None, None, None)


def _starts(lens: list) -> list:
    """Offsets of ``lens`` laid end to end from 0."""
    return list(itertools.accumulate(lens[:-1], initial=0)) if lens else []


def _span_error(what: str, side: tuple, buf: np.ndarray,
                base: int) -> FFError:
    return FFError(
        f"{what} spans bytes [{side[_LO] + base}, {side[_HI] + base}) "
        f"but the buffer holds {buf.size} (translation base {base})"
    )


class Kernel:
    """A classified pair of block lists: the kernel that copies between
    them, ready to run.

    Built by :func:`classify`.  Side ``a`` holds the classified blocks;
    side ``b`` holds the same bytes in the same order in the other
    buffer — one contiguous run for a plain gather/scatter, the paired
    blocks of another list for a two-sided copy.  ``kind`` is one of
    ``SINGLE``/``SMALL``/``BIG`` (a loop of slice copies over ``pairs``
    of ``(a offset, b offset, length)``) or ``STRIDED``/``INDEX``/
    ``RAGGED`` (one element view per side, copied in one NumPy
    assignment).  ``dtype`` is the element dtype both views take;
    ``vdtype`` is the ``void`` dtype a call falls back to when an
    integer view is misaligned; ``stage`` sends a ``void`` copy between
    two non-contiguous 2/4/8-byte views through a contiguous temporary
    (see :data:`_INT`).

    ``core(buf, base, other, pos, to_b)`` is the copy itself, unchecked
    and uncounted, chosen once here from the kernel's shape (see
    :func:`_core`) with every constant it needs already resolved.
    :meth:`copy` is the checked entry: span checks, one kernel-path
    count, then that same core.  A caller that has proved both spans
    itself — the bound call of a replayed access — runs ``core``
    directly.
    """

    __slots__ = ("kind", "count", "nbytes", "a", "b", "pairs", "dtype",
                 "vdtype", "stage", "core")

    def __init__(self, kind: int, count: int, nbytes: int, a: tuple,
                 b: tuple, pairs=None, size: int = 1) -> None:
        self.kind = kind
        self.count = count
        self.nbytes = nbytes
        self.a = a
        self.b = b
        self.pairs = pairs
        self.dtype = _elem(size)
        self.vdtype = None
        self.stage = False
        it = _INT.get(size)
        if it is not None and pairs is None:
            views = [s for s in (a, b)
                     if s[_SHAPE] is not None or s[_IDX] is not ...]
            big = count > _SMALL_N
            self.stage = big and len(views) == 2
            if all(s[_SHAPE] is None or s[_STRIDES][0] % size == 0
                   for s in views):
                self.dtype, self.vdtype = it, self.dtype if big else None
        self.core = _core(self)

    @property
    def name(self) -> str:
        """Name of the kernel path (the ``kernel_path_*`` suffix)."""
        return _PATH_NAMES[self.kind]

    @property
    def index_nbytes(self) -> int:
        """Bytes of the precomputed index arrays, both sides."""
        return sum(s[_IDX].nbytes for s in (self.a, self.b)
                   if isinstance(s[_IDX], np.ndarray))

    def gather(self, buf: np.ndarray, base: int, other: np.ndarray,
               pos: int = 0) -> int:
        """Copy side ``a`` of ``buf`` (offsets translated by ``base``)
        to side ``b`` of ``other`` (translated by ``pos`` — for a
        one-sided kernel, where the contiguous run starts); returns
        bytes copied."""
        return self.copy(buf, base, other, pos, True)

    def scatter(self, buf: np.ndarray, base: int, other: np.ndarray,
                pos: int = 0) -> int:
        """Copy side ``b`` of ``other`` (translated by ``pos``) to side
        ``a`` of ``buf`` (translated by ``base``); returns bytes copied.
        Overlapping blocks are written in list order, so the last block
        touching a byte wins, as in a per-block loop."""
        return self.copy(buf, base, other, pos, False)

    def copy(self, buf: np.ndarray, base: int, other: np.ndarray,
             pos: int, to_b: bool) -> int:
        """Check both translated spans, count the call, copy ``a`` to
        ``b`` (``to_b``: :meth:`gather`) or back (:meth:`scatter`) with
        :attr:`core`.  Hot callers that know the direction call this
        directly."""
        if self.count:
            a, b = self.a, self.b
            if a[_LO] + base < 0 or a[_HI] + base > buf.size:
                raise _span_error("block list", a, buf, base)
            if b[_LO] + pos < 0 or b[_HI] + pos > other.size:
                raise _span_error("other side", b, other, pos)
        paths = SESSION.get().kernel_paths
        with paths._mu:
            paths.counts[self.kind] += 1
        self.core(buf, base, other, pos, to_b)
        return self.nbytes


# ----------------------------------------------------------------------
# Copy cores: ``core(buf, base, other, pos, to_b)`` copies side ``a`` of
# ``buf`` (translated by ``base``) to side ``b`` of ``other`` (translated
# by ``pos``), or back; no span check, no count.  One per kernel shape,
# built once per kernel with its constants bound in the closure.
# ----------------------------------------------------------------------
def _core(k: Kernel):
    """The copy core of ``k``: a loop of slice copies, one byte-run
    copy, a staged copy (2/4/8-byte elements: aligned integer views or
    the ``void`` fallback), or one assignment between two element views
    (strided, element- or byte-indexed)."""
    if k.pairs is not None:
        return _loop_core(k.pairs)
    a, b = k.a, k.b
    if (a[_SHAPE] is None and b[_SHAPE] is None
            and a[_IDX] is ... and b[_IDX] is ...):
        return _run_core(a[_START], b[_START], k.nbytes)
    if k.vdtype is not None or k.stage:
        return _staged_core(k)
    return _view_core(k)


def _loop_core(pairs: list):
    """A loop of slice copies over ``(a offset, b offset, length)``."""
    def core(buf, base, other, pos, to_b):
        if to_b:
            for a, b, ln in pairs:
                a += base
                b += pos
                other[b:b + ln] = buf[a:a + ln]
        else:
            for a, b, ln in pairs:
                a += base
                b += pos
                buf[a:a + ln] = other[b:b + ln]
    return core


def _run_core(sa: int, sb: int, n: int):
    """One contiguous run on each side: one byte slice copy."""
    def core(buf, base, other, pos, to_b):
        s = sa + base
        t = sb + pos
        if to_b:
            other[t:t + n] = buf[s:s + n]
        else:
            buf[s:s + n] = other[t:t + n]
    return core


def _sides(k: Kernel) -> tuple:
    """Each side's view as ``(start, shape, strides, idx)``: the
    positional arguments of one ``np.ndarray(shape, dtype, buffer,
    start + base, strides)`` call — a run is ``span // itemsize``
    contiguous elements — and the index into it (``...``: the whole
    view).  One constructor call costs less than a slice plus
    ``.view()``: 8 x 8 B at stride 16, strided to strided, 0.8 µs
    against 1.2 µs for slice, ``.view()`` and ``[::2]`` on each side
    (2-vCPU VM, NumPy 2.4)."""
    isz = k.dtype.itemsize
    return tuple((s[_START],
                  ((s[_HI] - s[_LO]) // isz,) if s[_SHAPE] is None
                  else s[_SHAPE], s[_STRIDES], s[_IDX])
                 for s in (k.a, k.b))


def _view_core(k: Kernel):
    """One element view per side — a run, a strided view or an
    overlapping one under an element or byte index — and one
    assignment between them.  ``np.ndarray`` checks each view against
    its buffer, so even the unchecked core cannot stray outside it."""
    dt = k.dtype
    (sa, ash, ast, ia), (sb, bsh, bst, ib) = _sides(k)
    nd = np.ndarray
    if ia is ... and ib is ...:
        def core(buf, base, other, pos, to_b):
            va = nd(ash, dt, buf, sa + base, ast)
            vb = nd(bsh, dt, other, sb + pos, bst)
            if to_b:
                vb[...] = va
            else:
                va[...] = vb
        return core

    def core(buf, base, other, pos, to_b):
        va = nd(ash, dt, buf, sa + base, ast)
        vb = nd(bsh, dt, other, sb + pos, bst)
        if to_b:
            vb[ib] = va[ia]
        else:
            va[ia] = vb[ib]
    return core


def _staged_core(k: Kernel):
    """Views of 2/4/8-byte elements: integer views when both are
    aligned, else ``void`` views (the ``vdtype`` fallback) — copied
    through a contiguous temporary when both sides are views
    (``stage``, see :data:`_INT`)."""
    dt, vdt, stage = k.dtype, k.vdtype, k.stage
    (sa, ash, ast, ia), (sb, bsh, bst, ib) = _sides(k)
    nd = np.ndarray

    def core(buf, base, other, pos, to_b):
        va = nd(ash, dt, buf, sa + base, ast)
        vb = nd(bsh, dt, other, sb + pos, bst)
        staged = stage
        if vdt is not None:
            if va.flags.aligned and vb.flags.aligned:
                staged = False
            else:
                va, vb = va.view(vdt), vb.view(vdt)
        if not staged:
            if to_b:
                vb[ib] = va[ia]
            else:
                va[ia] = vb[ib]
            return
        src, sidx, dst, didx = ((va, ia, vb, ib) if to_b
                                else (vb, ib, va, ia))
        tmp = src[sidx]
        dst[didx] = tmp if isinstance(sidx, np.ndarray) else tmp.copy()
    return core


def _loop(kind: int, offs: list, boffs: list, lens: list) -> Kernel:
    return Kernel(kind, len(offs), sum(lens), _loop_side(offs, lens),
                  _loop_side(boffs, lens),
                  pairs=list(zip(offs, boffs, lens)))


def _py_step(offs: list, size: int) -> int | None:
    """Common step of a short offset list, if blocks do not overlap."""
    step = offs[1] - offs[0]
    if abs(step) >= size and all(
            y - x == step for x, y in zip(offs, offs[1:])):
        return step
    return None


def _elem_side(offsets: np.ndarray, lengths: np.ndarray, size: int,
               n: int) -> tuple | None:
    """Side of ``n`` uniform blocks moved one element per block: a
    strided view, or an element index for ascending non-overlapping
    blocks of at least :data:`_ELEM_MIN` bytes; ``None`` otherwise."""
    step = _uniform_stride(offsets)
    if step is not None and abs(step) >= size:
        return _strided_side(int(offsets[0]), step, size, n)
    if size >= _ELEM_MIN and bool((np.diff(offsets) >= size).all()):
        return _index_side(offsets, lengths, size)
    return None


def _is_run(offsets: np.ndarray, lengths: np.ndarray) -> bool:
    """Whether the blocks lie end to end, in list order."""
    return bool((offsets[1:] == offsets[:-1] + lengths[:-1]).all())


def classify(offsets: np.ndarray, lengths: np.ndarray,
             idx_cap: int | None = None,
             other: np.ndarray | None = None) -> Kernel:
    """Pick the kernel for a block list and precompute what it needs.

    ``other`` pairs the list with a second one: block ``i`` is copied
    to (or from) ``other[i]`` in the other buffer, with the same
    length (see :func:`pair_blocks`).  ``None`` — a plain gather/
    scatter — lays the other side out as one contiguous run from 0.

    ``idx_cap`` bounds the payload a byte index may cover, per indexed
    side (compiled programs keep their index for life; one-shot calls
    pass ``None``); above it the per-block loop runs instead.
    """
    n = int(offsets.size)
    if n <= _SMALL_N:
        # Short lists classify on Python ints: a NumPy reduction costs
        # more here than the whole copy.
        offs, lens = offsets.tolist(), lengths.tolist()
        boffs = _starts(lens) if other is None else other.tolist()
        first = lens[0] if n else 0
        if n > 1 and first > 0 and lens.count(first) == n:
            sa = _py_step(offs, first)
            sb = _py_step(boffs, first)
            if sa is not None and sb is not None:
                return Kernel(STRIDED, n, n * first,
                              _strided_side(offs[0], sa, first, n),
                              _strided_side(boffs[0], sb, first, n),
                              size=first)
        return _loop(SINGLE if n <= 1 else SMALL, offs, boffs, lens)
    first = int(lengths[0])
    uniform = bool((lengths == first).all())
    nbytes = n * first if uniform else int(lengths.sum())
    if uniform and first > 0:
        sa = _elem_side(offsets, lengths, first, n)
        sb = (_run_side(0, nbytes) if other is None
              else _elem_side(other, lengths, first, n))
        if sa is not None and sb is not None:
            kind = (INDEX if isinstance(sa[_IDX], np.ndarray)
                    or isinstance(sb[_IDX], np.ndarray) else STRIDED)
            return Kernel(kind, n, nbytes, sa, sb, size=first)
    # Byte level: each side is one run or a byte index.
    ra = _is_run(offsets, lengths)
    rb = other is None or _is_run(other, lengths)
    nidx = (not ra) + (not rb)
    if nidx and (nbytes >= n * _BIG_BLOCK
                 or (idx_cap is not None and nbytes > idx_cap)):
        return _loop(BIG, offsets.tolist(),
                     _starts(lengths.tolist()) if other is None
                     else other.tolist(), lengths.tolist())
    sa = (_run_side(int(offsets[0]), nbytes) if ra
          else _index_side(offsets, lengths, 1))
    sb = (_run_side(0 if other is None else int(other[0]), nbytes) if rb
          else _index_side(other, lengths, 1))
    return Kernel(INDEX if uniform else RAGGED, n, nbytes, sa, sb)


def pair_blocks(a_offs: np.ndarray, a_lens: np.ndarray,
                b_offs: np.ndarray, b_lens: np.ndarray):
    """Pair two block lists that hold the same bytes in the same order.

    Returns ``(a, b, lengths)``: piece ``i`` of ``lengths[i]`` bytes
    sits at ``a[i]`` in the first list's buffer and at ``b[i]`` in the
    second's — the input of a two-sided :func:`classify`.  Lists with
    equal lengths pair as they are; otherwise both are cut at the union
    of their cumulative block boundaries.
    """
    total = int(a_lens.sum())
    if total != int(b_lens.sum()):
        raise FFError(
            f"cannot pair block lists of {total} and {int(b_lens.sum())} "
            f"bytes"
        )
    if a_lens.size == b_lens.size and bool((a_lens == b_lens).all()):
        return a_offs, b_offs, a_lens
    if a_lens.size == 1 or b_lens.size == 1:
        # One side is one run: the other side's blocks cut it.
        swap = a_lens.size == 1
        offs, lens = (b_offs, b_lens) if swap else (a_offs, a_lens)
        if not lens.all():
            offs, lens = offs[lens > 0], lens[lens > 0]
        run = (a_offs if swap else b_offs)[0] + np.cumsum(lens) - lens
        return (run, offs, lens) if swap else (offs, run, lens)
    ea = np.cumsum(a_lens)
    eb = np.cumsum(b_lens)
    # The positive ends of either list, sorted and unique: a merge of
    # the two sorted lists.  Not ``np.union1d``: its ``np.unique``
    # imports ``numpy.ma`` and its sort faults in NumPy's sort kernels,
    # ~1 MiB resident between them.
    ends = np.empty(ea.size + eb.size, dtype=ea.dtype)
    ends[np.arange(ea.size) + np.searchsorted(eb, ea, side="left")] = ea
    ends[np.arange(eb.size) + np.searchsorted(ea, eb, side="right")] = eb
    ends = ends[np.diff(ends, prepend=0) != 0]
    starts = np.concatenate(([0], ends[:-1]))
    # side="right" skips zero-length blocks ending exactly at a start.
    ia = np.searchsorted(ea, starts, side="right")
    ib = np.searchsorted(eb, starts, side="right")
    a = a_offs[ia] + (starts - (ea[ia] - a_lens[ia]))
    b = b_offs[ib] + (starts - (eb[ib] - b_lens[ib]))
    return a, b, ends - starts


def gather_blocks(
    src: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    out: np.ndarray,
    out_pos: int = 0,
) -> int:
    """Copy the described blocks of ``src`` (uint8) into ``out`` starting
    at ``out_pos``; returns the number of bytes copied.  Raises
    :class:`~repro.errors.FFError` when a block lies outside ``src``."""
    if offsets.size == 0:
        return 0
    return classify(offsets, lengths).gather(src, 0, out, out_pos)


def scatter_blocks(
    dst: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    src: np.ndarray,
    src_pos: int = 0,
) -> int:
    """Copy contiguous bytes of ``src`` starting at ``src_pos`` into the
    described blocks of ``dst`` (uint8); returns bytes copied.  Raises
    :class:`~repro.errors.FFError` when a block lies outside ``dst``."""
    if offsets.size == 0:
        return 0
    return classify(offsets, lengths).scatter(dst, 0, src, src_pos)
