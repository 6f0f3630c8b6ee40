"""Dataloop compilation: from datatype trees to compact loop programs.

A *dataloop* is a small, immutable program describing one instance of a
datatype as nested loops over contiguous leaves — the representation
flattening-on-the-fly interprets.  Three node kinds suffice:

``DLContig(nbytes)``
    ``nbytes`` contiguous data bytes at relative offset 0.
``DLVector(count, stride, child)``
    ``count`` copies of ``child``, copy *i* at byte offset ``i * stride``.
``DLBlocks(offsets, lengths)``
    an irregular leaf: blocks at explicit offsets (descriptor-sized NumPy
    arrays — the description an ``indexed`` type inherently carries).
``DLSeq(offsets, children)``
    a sequence of placed children (struct fields), descriptor-sized.

Compilation (:func:`compile_dataloop`) runs in time proportional to the
constructor tree and applies the normalizations that make the interpreter
fast: contiguous collapse, unit-count elision and perfect-nesting fusion of
vectors.  Crucially — and in contrast to the explicit flattening of
:mod:`repro.flatten` — *no* representation of size O(Nblock) is ever
built or stored: a ``vector(10**7, 1, 2, DOUBLE)`` compiles to a two-node
program.

Every node supports vectorized enumeration of the contiguous blocks
holding an arbitrary data-byte range (:meth:`Dataloop.blocks_range`),
which is what :func:`repro.core.ff_pack.ff_pack` feeds to the
gather/scatter kernels, and O(depth·log k) size↔extent navigation used by
:mod:`repro.core.navigation`.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

import numpy as np

from repro.datatypes.base import Datatype
from repro.datatypes.basic import BasicType, BoundsMarker
from repro.datatypes.constructors import (
    ContiguousType,
    HIndexedType,
    HVectorType,
    ResizedType,
    StructType,
)
from repro.errors import FFError

__all__ = [
    "Dataloop",
    "DLContig",
    "DLVector",
    "DLBlocks",
    "DLSeq",
    "compile_dataloop",
    "describe_dataloop",
]

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _digest(data: bytes) -> bytes:
    """128-bit digest standing in for a descriptor in a :attr:`Dataloop.
    key`, so a key stays O(tree) whatever the descriptor's length."""
    return hashlib.blake2b(data, digest_size=16).digest()


class Dataloop:
    """Abstract dataloop node.

    ``size`` is the data bytes of one instance; ``data_start`` /
    ``data_end`` are the extent offsets of the first data byte and one
    past the last data byte; ``depth`` is the program nesting depth.
    ``key`` is a value key, computed once from the node's own fields and
    its children's keys: two loops with equal keys describe the same
    layout, which is what :mod:`repro.core.blockprog` stores compiled
    programs under.
    """

    __slots__ = ("size", "data_start", "data_end", "depth", "key")

    # ------------------------------------------------------------------
    def blocks_range(
        self, s_lo: int, s_hi: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Contiguous ``(offsets, lengths)`` covering data bytes
        ``[s_lo, s_hi)`` of one instance, in type-map order.

        Offsets are relative to the instance origin.  The arrays are
        freshly computed per call (transient scratch, not a stored
        ol-list) with vectorized tiling; Python-level work is O(depth +
        number of irregular descriptor entries touched).
        """
        raise NotImplementedError

    def ext_of_size(self, s: int, end: bool) -> int:
        """Extent offset of data byte ``s`` (``end=False``) or one past
        data byte ``s - 1`` (``end=True``)."""
        raise NotImplementedError

    def size_of_ext(self, e: int) -> int:
        """Data bytes located strictly before extent offset ``e``.

        Requires a monotonic layout (guaranteed for fileview types, which
        are validated at ``set_view``).
        """
        raise NotImplementedError

    def describe(self) -> str:
        """Indented tree rendering of the loop program (one node per
        line, annotated with size/span/depth) — see
        :func:`describe_dataloop`."""
        return describe_dataloop(self)


class DLContig(Dataloop):
    """``nbytes`` contiguous data bytes at offset 0."""

    __slots__ = ()

    def __init__(self, nbytes: int):
        self.size = nbytes
        self.data_start = 0
        self.data_end = nbytes
        self.depth = 1
        self.key = ("contig", int(nbytes))

    def blocks_range(self, s_lo, s_hi):
        if s_hi <= s_lo:
            return _EMPTY_I64, _EMPTY_I64
        return (
            np.array([s_lo], dtype=np.int64),
            np.array([s_hi - s_lo], dtype=np.int64),
        )

    def ext_of_size(self, s, end):
        return s

    def size_of_ext(self, e):
        return min(max(e, 0), self.size)

    def __repr__(self):  # pragma: no cover
        return f"DLContig({self.size})"


class DLVector(Dataloop):
    """``count`` copies of ``child`` at stride ``stride`` bytes."""

    __slots__ = ("count", "stride", "child")

    def __init__(self, count: int, stride: int, child: Dataloop):
        if child.size <= 0:
            raise FFError("DLVector child must hold data")
        self.count = count
        self.stride = stride
        self.child = child
        self.size = count * child.size
        if count:
            last = (count - 1) * stride
            self.data_start = min(child.data_start, last + child.data_start)
            self.data_end = max(child.data_end, last + child.data_end)
        else:
            self.data_start = 0
            self.data_end = 0
        self.depth = child.depth + 1
        self.key = ("vector", int(count), int(stride), child.key)

    def blocks_range(self, s_lo, s_hi):
        if s_hi <= s_lo:
            return _EMPTY_I64, _EMPTY_I64
        csize = self.child.size
        q0, r0 = divmod(s_lo, csize)
        q1, r1 = divmod(s_hi, csize)
        child = self.child
        if isinstance(child, DLContig) and q1 - q0 <= 16:
            # Small-batch fast path: assemble the (at most 18) blocks in
            # plain Python; two array constructions instead of a dozen
            # NumPy kernel launches.
            offs: List[int] = []
            lens: List[int] = []
            if q0 == q1:
                offs.append(q0 * self.stride + r0)
                lens.append(r1 - r0)
            else:
                if r0:
                    offs.append(q0 * self.stride + r0)
                    lens.append(csize - r0)
                    q0 += 1
                for q in range(q0, q1):
                    offs.append(q * self.stride)
                    lens.append(csize)
                if r1:
                    offs.append(q1 * self.stride)
                    lens.append(r1)
            return (
                np.array(offs, dtype=np.int64),
                np.array(lens, dtype=np.int64),
            )
        parts_o: List[np.ndarray] = []
        parts_l: List[np.ndarray] = []
        if q0 == q1:
            o, l = self.child.blocks_range(r0, r1)
            return o + q0 * self.stride, l
        if r0:
            o, l = self.child.blocks_range(r0, csize)
            parts_o.append(o + q0 * self.stride)
            parts_l.append(l)
            q0 += 1
        if q1 > q0:
            o, l = self.child.blocks_range(0, csize)
            n = q1 - q0
            bases = (np.arange(q0, q1, dtype=np.int64) * self.stride)[:, None]
            parts_o.append((o[None, :] + bases).reshape(-1))
            parts_l.append(np.broadcast_to(l, (n, l.size)).reshape(-1))
        if r1:
            o, l = self.child.blocks_range(0, r1)
            parts_o.append(o + q1 * self.stride)
            parts_l.append(l)
        if len(parts_o) == 1:
            return parts_o[0], parts_l[0]
        return np.concatenate(parts_o), np.concatenate(parts_l)

    def ext_of_size(self, s, end):
        csize = self.child.size
        if end:
            if s <= 0:
                return 0
            q, r = divmod(s - 1, csize)
            return q * self.stride + self.child.ext_of_size(r + 1, True)
        q, r = divmod(s, csize)
        if q >= self.count:
            # s == size: end position.
            return (self.count - 1) * self.stride + self.child.ext_of_size(
                csize, True
            )
        return q * self.stride + self.child.ext_of_size(r, False)

    def size_of_ext(self, e):
        if e <= 0 or self.count == 0:
            return 0
        if self.count == 1:
            return self.child.size_of_ext(e)
        if self.stride <= 0:
            raise FFError("size_of_ext on non-monotonic vector")
        q = min(self.count - 1, e // self.stride)
        return q * self.child.size + self.child.size_of_ext(e - q * self.stride)

    def __repr__(self):  # pragma: no cover
        return f"DLVector({self.count}, {self.stride}, {self.child!r})"


class DLBlocks(Dataloop):
    """Irregular leaf: explicit blocks at ``offsets`` with ``lengths``.

    The arrays are the *descriptor* the indexed constructor was given —
    they exist in the datatype either way, so holding them here stores
    nothing a listless implementation wouldn't already have.
    """

    __slots__ = ("offsets", "lengths", "cum")

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray):
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        keep = lengths > 0
        if not keep.all():
            offsets = offsets[keep]
            lengths = lengths[keep]
        if offsets.size == 0:
            raise FFError("DLBlocks must hold data")
        self.offsets = offsets
        self.lengths = lengths
        self.cum = np.concatenate(([0], np.cumsum(lengths)))
        self.size = int(self.cum[-1])
        self.data_start = int(offsets.min())
        self.data_end = int((offsets + lengths).max())
        self.depth = 1
        # Equal-length arrays: the split of the bytes is unambiguous.
        self.key = ("blocks", _digest(offsets.tobytes() + lengths.tobytes()))

    def blocks_range(self, s_lo, s_hi):
        if s_hi <= s_lo:
            return _EMPTY_I64, _EMPTY_I64
        cum = self.cum
        i0 = int(np.searchsorted(cum, s_lo, side="right")) - 1
        i1 = int(np.searchsorted(cum, s_hi, side="left"))  # one past last
        offs = self.offsets[i0:i1].copy()
        lens = self.lengths[i0:i1].copy()
        head = s_lo - cum[i0]
        if head:
            offs[0] += head
            lens[0] -= head
        tail = cum[i1] - s_hi
        if tail:
            lens[-1] -= tail
        return offs, lens

    def ext_of_size(self, s, end):
        cum = self.cum
        if end:
            if s <= 0:
                return 0
            i = int(np.searchsorted(cum, s - 1, side="right")) - 1
            return int(self.offsets[i] + (s - 1 - cum[i]) + 1)
        if s >= self.size:
            return self.data_end
        i = int(np.searchsorted(cum, s, side="right")) - 1
        return int(self.offsets[i] + (s - cum[i]))

    def size_of_ext(self, e):
        if e <= 0:
            return 0
        i = int(np.searchsorted(self.offsets, e, side="right")) - 1
        if i < 0:
            return 0
        within = min(max(e - int(self.offsets[i]), 0), int(self.lengths[i]))
        return int(self.cum[i]) + within

    def __repr__(self):  # pragma: no cover
        return f"DLBlocks(k={self.offsets.size}, size={self.size})"


class DLSeq(Dataloop):
    """Sequence of placed children (struct fields), descriptor-sized."""

    __slots__ = ("offsets", "children", "cumsizes", "_data_starts")

    def __init__(self, offsets: Sequence[int], children: Sequence[Dataloop]):
        if not children:
            raise FFError("DLSeq must hold data")
        self.offsets = [int(o) for o in offsets]
        self.children = list(children)
        sizes = np.array([c.size for c in children], dtype=np.int64)
        self.cumsizes = np.concatenate(([0], np.cumsum(sizes)))
        self.size = int(self.cumsizes[-1])
        starts = [o + c.data_start for o, c in zip(self.offsets, children)]
        ends = [o + c.data_end for o, c in zip(self.offsets, children)]
        self.data_start = min(starts)
        self.data_end = max(ends)
        self.depth = 1 + max(c.depth for c in children)
        # Per-child first-data positions; sorted for monotonic types,
        # which are the only ones size_of_ext is defined on.
        self._data_starts = np.array(starts, dtype=np.int64)
        self.key = ("seq", _digest(repr(
            (self.offsets, [c.key for c in self.children])).encode()))

    def blocks_range(self, s_lo, s_hi):
        if s_hi <= s_lo:
            return _EMPTY_I64, _EMPTY_I64
        cum = self.cumsizes
        i0 = int(np.searchsorted(cum, s_lo, side="right")) - 1
        i1 = int(np.searchsorted(cum, s_hi, side="left"))
        parts_o: List[np.ndarray] = []
        parts_l: List[np.ndarray] = []
        for i in range(i0, i1):
            lo = max(s_lo - int(cum[i]), 0)
            hi = min(s_hi - int(cum[i]), int(cum[i + 1] - cum[i]))
            o, l = self.children[i].blocks_range(lo, hi)
            parts_o.append(o + self.offsets[i])
            parts_l.append(l)
        if len(parts_o) == 1:
            return parts_o[0], parts_l[0]
        return np.concatenate(parts_o), np.concatenate(parts_l)

    def ext_of_size(self, s, end):
        cum = self.cumsizes
        if end:
            if s <= 0:
                return 0
            i = int(np.searchsorted(cum, s - 1, side="right")) - 1
            return self.offsets[i] + self.children[i].ext_of_size(
                s - int(cum[i]), True
            )
        if s >= self.size:
            return self.data_end
        i = int(np.searchsorted(cum, s, side="right")) - 1
        return self.offsets[i] + self.children[i].ext_of_size(
            s - int(cum[i]), False
        )

    def size_of_ext(self, e):
        if e <= 0:
            return 0
        # Children are data-disjoint and data-sorted for monotonic types:
        # every child whose data starts before e is either fully before e
        # or is the (single) child containing e.
        i = int(np.searchsorted(self._data_starts, e, side="right")) - 1
        if i < 0:
            return 0
        return int(self.cumsizes[i]) + self.children[i].size_of_ext(
            e - self.offsets[i]
        )

    def __repr__(self):  # pragma: no cover
        return f"DLSeq(k={len(self.children)}, size={self.size})"


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def _place(loop: Dataloop, offset: int) -> Dataloop:
    """Place a loop at a byte offset (fused into DLBlocks/DLSeq)."""
    if offset == 0:
        return loop
    if isinstance(loop, DLBlocks):
        return DLBlocks(loop.offsets + offset, loop.lengths)
    if isinstance(loop, DLSeq):
        return DLSeq([o + offset for o in loop.offsets], loop.children)
    return DLSeq([offset], [loop])


def _vector(count: int, stride: int, child: Dataloop) -> Dataloop:
    """Build a vector node with the standard normalizations."""
    if count == 1:
        return child
    if isinstance(child, DLContig) and stride == child.size:
        return DLContig(count * child.size)
    if (
        isinstance(child, DLVector)
        and stride == child.count * child.stride
    ):
        # Perfect nesting: outer stride equals inner span → one flat vector.
        return _vector(count * child.count, child.stride, child.child)
    if isinstance(child, DLBlocks) and child.offsets.size * count <= 64:
        # Small irregular child: unroll into one descriptor-sized leaf.
        bases = np.arange(count, dtype=np.int64) * stride
        offs = (child.offsets[None, :] + bases[:, None]).reshape(-1)
        lens = np.broadcast_to(
            child.lengths, (count, child.lengths.size)
        ).reshape(-1)
        return DLBlocks(offs, lens)
    return DLVector(count, stride, child)


def _compile(dt: Datatype) -> Dataloop | None:
    """Compile one instance of ``dt``; None when the type holds no data."""
    if isinstance(dt, BoundsMarker):
        return None
    if isinstance(dt, BasicType):
        return DLContig(dt.nbytes)
    if dt.size == 0:
        return None
    if dt.is_contiguous:
        return _place(DLContig(dt.size), dt.lb)
    if isinstance(dt, ContiguousType):
        child = _compile(dt.base)
        assert child is not None
        return _vector(dt.count, dt.base.extent, child)
    if isinstance(dt, HVectorType):
        child = _compile(dt.base)
        assert child is not None
        inner = _vector(dt.blocklen, dt.base.extent, child)
        return _vector(dt.count, dt.stride, inner)
    if isinstance(dt, HIndexedType):
        base = dt.base
        child = _compile(base)
        assert child is not None
        if isinstance(child, DLContig) and base.extent == child.size:
            # Runs of a truly contiguous base: a pure blocks leaf.
            offs = []
            lens = []
            for b, d in zip(dt.blocklens, dt.displs):
                if b:
                    offs.append(d + base.lb)
                    lens.append(b * base.size)
            return DLBlocks(
                np.array(offs, dtype=np.int64), np.array(lens, dtype=np.int64)
            )
        offsets = []
        children = []
        for b, d in zip(dt.blocklens, dt.displs):
            if b:
                offsets.append(d)
                children.append(_vector(b, base.extent, child))
        if not offsets:
            return None
        if len(offsets) == 1:
            return _place(children[0], offsets[0])
        return DLSeq(offsets, children)
    if isinstance(dt, StructType):
        offsets = []
        children = []
        for b, d, t in zip(dt.blocklens, dt.displs, dt.types):
            if b == 0:
                continue
            sub = _compile(t)
            if sub is None:
                continue
            offsets.append(d)
            children.append(_vector(b, t.extent, sub))
        if not offsets:
            return None
        if len(offsets) == 1:
            return _place(children[0], offsets[0])
        return DLSeq(offsets, children)
    if isinstance(dt, ResizedType):
        return _compile(dt.base)
    raise FFError(f"cannot compile {type(dt).__name__} to a dataloop")


_UNSET = object()


def compile_dataloop(dt: Datatype) -> Dataloop | None:
    """Compile (and cache) the dataloop of one instance of ``dt``.

    Returns None for empty types.  Cost: O(constructor tree) on first
    call, O(1) after.  The cache lives on the (immutable) datatype object,
    and — unlike ROMIO's cached ol-list — is O(constructor tree), not
    O(Nblock).
    """
    loop = getattr(dt, "_dataloop_cache", _UNSET)
    if loop is _UNSET:
        loop = _compile(dt)
        dt._dataloop_cache = loop
    return loop  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Pretty-printing
# ----------------------------------------------------------------------
def _node_line(loop: Dataloop) -> str:
    span = f"span=[{loop.data_start},{loop.data_end})"
    if isinstance(loop, DLContig):
        return f"DLContig nbytes={loop.size}"
    if isinstance(loop, DLVector):
        return (
            f"DLVector count={loop.count} stride={loop.stride} "
            f"size={loop.size} {span}"
        )
    if isinstance(loop, DLBlocks):
        k = loop.offsets.size
        shown = ", ".join(
            f"({int(o)},{int(n)})"
            for o, n in zip(loop.offsets[:4], loop.lengths[:4])
        )
        if k > 4:
            shown += ", …"
        return f"DLBlocks k={k} size={loop.size} {span} blocks=[{shown}]"
    if isinstance(loop, DLSeq):
        return f"DLSeq k={len(loop.children)} size={loop.size} {span}"
    return repr(loop)


def describe_dataloop(loop: Dataloop | None) -> str:
    """Render a dataloop program as an indented tree, one node per line.

    The rendering is the compiled program itself — for a
    ``vector(10**7, 1, 2, DOUBLE)`` it is two lines, demonstrating the
    paper's point that the representation is O(tree), never O(Nblock).
    """
    if loop is None:
        return "(empty type: no dataloop)"
    lines: List[str] = []

    def walk(node: Dataloop, prefix: str, branch: str, cont: str,
             label: str = "") -> None:
        lines.append(prefix + branch + label + _node_line(node))
        if isinstance(node, DLVector):
            walk(node.child, prefix + cont, "└─ ", "   ")
        elif isinstance(node, DLSeq):
            last = len(node.children) - 1
            for i, (off, child) in enumerate(
                zip(node.offsets, node.children)
            ):
                b, c = ("└─ ", "   ") if i == last else ("├─ ", "│  ")
                walk(child, prefix + cont, b, c, label=f"@{off} ")

    walk(loop, "", "", "")
    return "\n".join(lines)
