"""Vectorized gather/scatter kernels.

On the NEC SX, flattening-on-the-fly hands evenly spaced blocks to the
hardware gather/scatter units, which move one block per vector element.
The NumPy kernels here do the same: a block of ``S`` bytes is one
element of dtype ``void[S]``, so a copy costs one element move per
block, not ``S`` byte moves.

* uniform blocks at a uniform stride (either sign) → one strided
  element view of the buffer, copied in one pass (no index array, no
  temporary);
* uniform, non-overlapping blocks at ascending irregular offsets, of at
  least :data:`_ELEM_MIN` bytes → an element index (one int64 per
  block) over an overlapping ``strides=(1,)`` element view;
* tiny, overlapping or unsorted uniform blocks, and ragged blocks → a
  byte index (elements of one byte);
* a handful of blocks, or long ragged blocks → a loop of slice copies.

:func:`classify` makes that choice once per block list and precomputes
what the kernel needs into a :class:`Kernel`; :meth:`Kernel.gather` /
:meth:`Kernel.scatter` run it against a buffer, translated by a scalar
base.  The one-shot :func:`gather_blocks`/:func:`scatter_blocks`
classify and run; compiled block programs (:mod:`repro.core.blockprog`)
classify once and run per call — one implementation for both.

The contrast with the list-based engine — which copies one ``(offset,
length)`` tuple at a time in an interpreted loop, reading the tuple before
each copy — is exactly the contrast the paper draws between gather/scatter
copies and per-block list traversal (§2.1, "Copy time").
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from repro._ctx import SESSION
from repro.errors import FFError

__all__ = [
    "Kernel",
    "classify",
    "gather_blocks",
    "scatter_blocks",
    "block_index",
    "KERNEL_PATHS",
    "active_kernel_paths",
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


class _KernelPaths:
    """Counters: which gather/scatter kernel path fired.

    One counter per kernel kind; every :meth:`Kernel.gather` /
    :meth:`Kernel.scatter` call bumps exactly one, whether it came from
    a one-shot :func:`gather_blocks` or a compiled block program.  One
    instance per session plus the process-wide default; read through
    :func:`kernel_path_counts` and surfaced in engine stats and
    ``repro.cli plan-dump``.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.counts = [0] * len(_PATH_NAMES)

    def snapshot(self) -> dict:
        return {f"kernel_path_{name}": c
                for name, c in zip(_PATH_NAMES, self.counts)}


KERNEL_PATHS = _KernelPaths()


def active_kernel_paths() -> _KernelPaths:
    """The counters of the active :class:`~repro.session.IOSession`, or
    the process-wide defaults when no session is active.  Resolved once
    per kernel call (a single ContextVar read) so sessions cost the hot
    path essentially nothing."""
    s = SESSION.get(None)
    return KERNEL_PATHS if s is None else s.kernel_paths


def kernel_path_counts() -> dict:
    """Snapshot of the active context's kernel path counters."""
    return active_kernel_paths().snapshot()


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


class Kernel:
    """A classified block list: the kernel that copies it, ready to run.

    Built by :func:`classify`.  ``kind`` is one of ``SINGLE``/``SMALL``/
    ``BIG`` (a loop of slice copies over ``pairs``) or ``STRIDED``/
    ``INDEX``/``RAGGED`` (an element view of the buffer: ``shape``,
    ``dtype``, ``strides`` at byte ``start``, indexed by ``idx`` —
    ``...`` for the strided view, an element or byte index otherwise).
    ``[lo, hi)`` is the byte span the blocks touch, checked against the
    buffer on every call.
    """

    __slots__ = ("kind", "count", "nbytes", "lo", "hi", "pairs", "dtype",
                 "shape", "start", "strides", "idx")

    def __init__(self, kind, count, nbytes, lo, hi, pairs=None,
                 dtype=None, shape=None, start=0, strides=None,
                 idx=None) -> None:
        self.kind = kind
        self.count = count
        self.nbytes = nbytes
        self.lo = lo
        self.hi = hi
        self.pairs = pairs
        self.dtype = dtype
        self.shape = shape
        self.start = start
        self.strides = strides
        self.idx = idx

    @property
    def name(self) -> str:
        """Name of the kernel path (the ``kernel_path_*`` suffix)."""
        return _PATH_NAMES[self.kind]

    def _enter(self, buf: np.ndarray, base: int):
        """Check the translated span against ``buf``, count the call,
        and return the element view (``None`` for the loop kinds)."""
        lo = self.lo + base
        if (lo < 0 or self.hi + base > buf.size) and self.count:
            raise FFError(
                f"block list spans bytes [{lo}, {self.hi + base}) but the "
                f"buffer holds {buf.size} (translation base {base})"
            )
        active_kernel_paths().counts[self.kind] += 1
        if self.pairs is not None:
            return None
        return np.ndarray(self.shape, self.dtype, buffer=buf,
                          offset=self.start + base, strides=self.strides)

    def gather(self, src: np.ndarray, base: int, out: np.ndarray,
               out_pos: int = 0) -> int:
        """Copy the blocks of ``src`` (offsets translated by ``base``)
        into ``out`` at ``out_pos``; returns bytes copied."""
        v = self._enter(src, base)
        if v is not None:
            end = out_pos + self.nbytes
            out[out_pos:end].view(self.dtype)[...] = v[self.idx]
            return self.nbytes
        pos = out_pos
        for o, ln in self.pairs:
            o += base
            out[pos : pos + ln] = src[o : o + ln]
            pos += ln
        return pos - out_pos

    def scatter(self, dst: np.ndarray, base: int, src: np.ndarray,
                src_pos: int = 0) -> int:
        """Copy contiguous ``src`` bytes from ``src_pos`` into the blocks
        of ``dst`` (offsets translated by ``base``); returns bytes
        copied.  Overlapping blocks are written in list order, so the
        last block touching a byte wins, as in a per-block loop."""
        v = self._enter(dst, base)
        if v is not None:
            end = src_pos + self.nbytes
            v[self.idx] = src[src_pos:end].view(self.dtype)
            return self.nbytes
        pos = src_pos
        for o, ln in self.pairs:
            o += base
            dst[o : o + ln] = src[pos : pos + ln]
            pos += ln
        return pos - src_pos


def _loop(kind: int, offs: list, lens: list) -> Kernel:
    lo = min(offs, default=0)
    hi = max(map(operator.add, offs, lens), default=0)
    return Kernel(kind, len(offs), sum(lens), lo, hi,
                  pairs=list(zip(offs, lens)))


def _strided(start: int, step: int, size: int, n: int) -> Kernel:
    """One element view: ``n`` blocks of ``size`` bytes, ``step`` apart."""
    last = start + (n - 1) * step
    return Kernel(STRIDED, n, n * size, min(start, last),
                  max(start, last) + size, dtype=_elem(size), shape=(n,),
                  start=start, strides=(step,), idx=...)


def _index(kind: int, offsets: np.ndarray, lengths: np.ndarray,
           size: int, nbytes: int, lo: int, hi: int) -> Kernel:
    """Index kernel over an overlapping element view of ``[lo, hi)``:
    element ``i`` of the view starts at byte ``lo + i``.  ``size`` is
    the element size: the block size for an element index, 1 for a
    byte index."""
    rel = offsets - lo
    idx = rel if size > 1 else block_index(rel, lengths)
    idx.setflags(write=False)
    return Kernel(kind, int(offsets.size), nbytes, lo, hi,
                  dtype=_elem(size), shape=(hi - lo - size + 1,),
                  start=lo, strides=(1,), idx=idx)


def classify(offsets: np.ndarray, lengths: np.ndarray,
             idx_cap: int | None = None) -> Kernel:
    """Pick the kernel for a block list and precompute what it needs.

    ``idx_cap`` bounds the payload a byte index may cover (compiled
    programs keep their index for life; one-shot calls pass ``None``);
    above it the per-block loop runs instead.
    """
    n = int(offsets.size)
    if n <= _SMALL_N:
        # Short lists classify on Python ints: a NumPy reduction costs
        # more here than the whole copy.
        offs, lens = offsets.tolist(), lengths.tolist()
        first = lens[0] if n else 0
        if n > 1 and first > 0 and lens.count(first) == n:
            step = offs[1] - offs[0]
            if abs(step) >= first and all(
                    b - a == step for a, b in zip(offs, offs[1:])):
                return _strided(offs[0], step, first, n)
        return _loop(SINGLE if n <= 1 else SMALL, offs, lens)
    first = int(lengths[0])
    uniform = bool((lengths == first).all())
    if uniform and first > 0:
        step = _uniform_stride(offsets)
        if step is not None and abs(step) >= first:
            return _strided(int(offsets[0]), step, first, n)
    nbytes = n * first if uniform else int(lengths.sum())
    if (uniform and first >= _ELEM_MIN
            and bool((np.diff(offsets) >= first).all())):
        return _index(INDEX, offsets, lengths, first, nbytes,
                      int(offsets[0]), int(offsets[-1]) + first)
    if nbytes >= n * _BIG_BLOCK or (idx_cap is not None
                                    and nbytes > idx_cap):
        return _loop(BIG, offsets.tolist(), lengths.tolist())
    return _index(INDEX if uniform else RAGGED, offsets, lengths, 1,
                  nbytes, int(offsets.min()),
                  int((offsets + lengths).max()))


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
