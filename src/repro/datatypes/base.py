"""Core :class:`Datatype` tree representation.

A datatype is an immutable node in a tree.  Every node knows:

``size``
    number of actual data bytes in one instance of the type (sum of basic
    element lengths in the type map);
``lb`` / ``ub``
    lower and upper bound.  Without explicit markers these are the minimum
    byte offset and the maximum ``offset + length`` over the type map.  The
    MPI-1 ``MPI_LB`` / ``MPI_UB`` markers and :func:`~repro.datatypes.
    constructors.resized` override them;
``extent``
    ``ub - lb`` — the stride used when the type is tiled with a repetition
    count (and when a filetype tiles a file);
``true_lb`` / ``true_ub``
    bounds of the actual data, ignoring markers;
``depth``
    depth of the constructor tree (basic types have depth 1).  The paper's
    complexity claims for flattening-on-the-fly are stated in terms of this
    depth;
``num_blocks``
    the number *Nblock* of maximal contiguous byte runs in the type map of a
    single instance — the length the explicit ol-list flattening produces.

Unlike real MPI we do not round ``ub`` up to an alignment epsilon; this
keeps the byte arithmetic exact and is irrelevant to the algorithms under
study (the paper's types are byte/double based and naturally aligned).

Subclasses live in :mod:`repro.datatypes.basic` and
:mod:`repro.datatypes.constructors`; this module only defines the common
machinery so that the constructor modules stay small.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.errors import DatatypeError

__all__ = ["Datatype"]


class Datatype:
    """Abstract base of all datatype tree nodes.

    All derived quantities are computed at construction time and stored
    as plain slot attributes, so constructing a datatype is the only
    O(tree) cost and every later query is one attribute read (no
    property call: the memory-layout check of every access reads
    several).  Treat them as read-only — instances are immutable by
    contract:

    ``size``, ``lb``, ``ub``, ``extent``, ``true_lb``, ``true_ub``,
    ``depth``, ``num_blocks``
        as in the module docstring; ``true_extent`` is
        ``true_ub - true_lb``;
    ``explicit_lb`` / ``explicit_ub``
        the marker-derived bounds, or ``None`` without a marker;
    ``is_contiguous``
        one instance is a single run covering ``[lb, ub)``, so it packs
        and unpacks as a plain memcpy even when tiled;
    ``is_monotonic``
        the type map is sorted by offset and non-overlapping (required
        of etypes and filetypes by the MPI-IO standard — see
        :func:`repro.datatypes.validation.validate_filetype`);
    ``seq_first`` / ``seq_last_end``
        the first data byte and one past the last in *type map order*
        (may differ from ``true_lb``/``true_ub`` for non-monotonic
        types); ``None`` when the type holds no data.
    """

    __slots__ = (
        "size",
        "lb",
        "ub",
        "extent",
        "true_lb",
        "true_ub",
        "true_extent",
        "explicit_lb",
        "explicit_ub",
        "depth",
        "num_blocks",
        "is_contiguous",
        "is_monotonic",
        "seq_first",
        "seq_last_end",
        # Lazily attached caches (set by repro.core / repro.flatten; kept
        # here so immutable datatype objects can own their derived
        # representations without global registries).
        "_dataloop_cache",
        "_ollist_cache",
        "_top_loop_cache",
    )

    def __init__(
        self,
        *,
        size: int,
        true_lb: int,
        true_ub: int,
        explicit_lb: Optional[int],
        explicit_ub: Optional[int],
        depth: int,
        num_blocks: int,
        contiguous: bool,
        monotonic: bool,
        seq_first: Optional[int] = None,
        seq_last_end: Optional[int] = None,
    ) -> None:
        if size < 0:
            raise DatatypeError(f"negative datatype size {size}")
        self.size = size
        self.true_lb = true_lb
        self.true_ub = true_ub
        self.true_extent = true_ub - true_lb
        self.explicit_lb = explicit_lb
        self.explicit_ub = explicit_ub
        self.lb = true_lb if explicit_lb is None else explicit_lb
        self.ub = true_ub if explicit_ub is None else explicit_ub
        self.extent = self.ub - self.lb
        self.depth = depth
        self.num_blocks = num_blocks
        self.is_contiguous = contiguous
        self.is_monotonic = monotonic
        if size > 0:
            self.seq_first = true_lb if seq_first is None else seq_first
            self.seq_last_end = (true_ub if seq_last_end is None
                                 else seq_last_end)
        else:
            self.seq_first = None
            self.seq_last_end = None

    # ------------------------------------------------------------------
    # Structural interface implemented by subclasses
    # ------------------------------------------------------------------
    def typemap(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(byte_offset, byte_length)`` per basic element, in type
        map order.

        This is the semantic ground truth of the datatype and is
        exponential-safe only for small types; production code paths use
        the flattened ol-list (:mod:`repro.flatten`) or the dataloop
        (:mod:`repro.core`) instead.
        """
        raise NotImplementedError

    def children(self) -> Sequence["Datatype"]:
        """Direct child datatypes, for tree walks (empty for basic)."""
        raise NotImplementedError

    def _combiner(self) -> str:
        """Name of the MPI constructor that produced this node."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def flat_blocks(self) -> Iterator[Tuple[int, int]]:
        """Yield the maximal contiguous ``(offset, length)`` runs of one
        instance, i.e. the entries an explicit flattening would produce.

        For monotonic types this coalesces the type map stream; for
        non-monotonic memtypes the runs are emitted in type-map order and
        only *adjacent-in-sequence* pieces are merged, matching what a
        list-based pack loop would do.
        """
        cur_off = None
        cur_len = 0
        for off, length in self.typemap():
            if length == 0:
                continue
            if cur_off is not None and off == cur_off + cur_len:
                cur_len += length
            else:
                if cur_off is not None:
                    yield (cur_off, cur_len)
                cur_off, cur_len = off, length
        if cur_off is not None:
            yield (cur_off, cur_len)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self._combiner()} size={self.size} extent={self.extent} "
            f"lb={self.lb} nblocks={self.num_blocks} depth={self.depth}>"
        )

    # Datatypes are compared by identity; equality of structure is checked
    # in tests via decode.get_contents / typemaps.
    __hash__ = object.__hash__
