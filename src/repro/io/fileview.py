"""The fileview: (displacement, etype, filetype) and a memory descriptor.

A fileview filters the file for one process: starting at byte ``disp``,
the ``filetype`` tiles the file indefinitely, and only the bytes covered
by its type map are visible.  File pointers and explicit offsets count in
units of the ``etype``; because a filetype is built from whole etypes, an
etype offset always lands on a data boundary of the view.

The view object is engine-neutral: it validates the MPI-IO restrictions
once and records the quantities both engines need (etype size, filetype
size/extent).  Engine-specific machinery — the flattened ol-list or the
compact dataloop navigation — hangs off the engines' own per-view state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.datatypes.base import Datatype
from repro.datatypes.basic import BYTE
from repro.datatypes.validation import validate_etype, validate_filetype
from repro.errors import IOEngineError

__all__ = ["FileView", "MemDescriptor", "default_view"]

_U8 = np.dtype(np.uint8)


@dataclass(frozen=True)
class FileView:
    """One process' validated fileview.

    The quantities both engines need are computed once, here, and read
    as plain attributes on every access:

    ``esize``
        bytes of data per etype unit;
    ``ft_size`` / ``ft_extent``
        data bytes / file bytes spanned per filetype instance;
    ``is_contiguous``
        the view exposes the file contiguously (the c-c / nc-c fast
        path: plain offset arithmetic, no sieving).
    """

    disp: int
    etype: Datatype
    filetype: Datatype
    esize: int = field(init=False, repr=False, compare=False)
    ft_size: int = field(init=False, repr=False, compare=False)
    ft_extent: int = field(init=False, repr=False, compare=False)
    is_contiguous: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.disp < 0:
            raise IOEngineError(f"negative view displacement {self.disp}")
        validate_etype(self.etype)
        validate_filetype(self.filetype, self.etype)
        ft = self.filetype
        put = object.__setattr__
        put(self, "esize", self.etype.size)
        put(self, "ft_size", ft.size)
        put(self, "ft_extent", ft.extent)
        put(self, "is_contiguous", ft.is_contiguous and ft.lb == 0
            and ft.size == ft.extent)

    def data_bytes_of_etypes(self, n_etypes: int) -> int:
        """Data bytes corresponding to ``n_etypes`` etype units."""
        return n_etypes * self.esize


def default_view() -> FileView:
    """The view every freshly opened file has: disp 0, etype/filetype BYTE."""
    return FileView(0, BYTE, BYTE)


class MemDescriptor:
    """The memory side of an access: ``count`` instances of ``memtype`` in
    ``buf`` (a NumPy array viewed as bytes).  As in MPI's C binding, no
    ``memtype`` means the buffer's bytes (``count`` defaults to all of
    them) and no ``count`` means one instance.

    ``origin`` is the byte offset within ``buf`` that corresponds to the
    datatype origin; it defaults to ``-memtype.lb`` for marker-adjusted
    types so that the whole access stays inside the buffer.

    ``dest`` marks a read destination: it must be C-contiguous, since a
    flat byte view of any other layout is a copy the read would fill
    and drop, and writeable.  A write source in another layout is
    copied once.

    The buffer is validated here, once, before any lock is taken or byte
    moves: every byte the layout touches (``count`` instances tiled at
    the memtype extent from ``origin``) must lie inside it.  The copy
    kernels read and write user memory directly on that contract.

    Derived, read-only: ``as_bytes`` (flat uint8 view of the buffer),
    ``is_contiguous`` (the data occupies one contiguous run of it),
    ``nbytes`` (total data bytes of the access) and ``end`` (the end
    of the bytes the layout touches, 0 when it moves none).
    """

    __slots__ = ("buf", "count", "memtype", "origin", "as_bytes",
                 "is_contiguous", "nbytes", "end")

    def __init__(self, buf: np.ndarray, count: Optional[int] = None,
                 memtype: Optional[Datatype] = None,
                 origin: Optional[int] = None, dest: bool = False) -> None:
        if memtype is None:
            memtype = BYTE
            if count is None:
                count = buf.nbytes
        elif count is None:
            count = 1
        if count < 0:
            raise IOEngineError(f"negative count {count}")
        self.buf = buf
        self.count = count
        self.memtype = mt = memtype
        flags = buf.flags
        if not flags.c_contiguous:
            if dest:
                raise IOEngineError(
                    f"read destination of shape {buf.shape} with strides "
                    f"{buf.strides} is not C-contiguous"
                )
            buf = np.ascontiguousarray(buf)
        # A 1-D byte buffer is its own flat byte view.
        self.as_bytes = b = (buf if buf.dtype is _U8 and buf.ndim == 1
                             else buf.view(np.uint8).reshape(-1))
        if dest and not flags.writeable:
            raise IOEngineError("read destination is read-only")
        if origin is None:
            origin = -min(mt.lb, mt.true_lb, 0)
        self.origin = origin
        self.is_contiguous = mt.is_contiguous
        self.nbytes = n = count * mt.size
        self.end = 0
        if n:
            lo = origin + mt.true_lb
            hi = origin + mt.true_ub
            step = (count - 1) * mt.extent
            if step < 0:
                lo += step
            else:
                hi += step
            if lo < 0 or hi > b.size:
                raise IOEngineError(
                    f"{count} x memtype (extent {mt.extent}) from origin "
                    f"{origin} touches buffer bytes [{lo}, {hi}), but "
                    f"the buffer holds {b.size}"
                )
            self.end = hi

    def contiguous_slice(self, start: int, nbytes: int) -> np.ndarray:
        """For contiguous memtypes: the byte slice holding data bytes
        ``[start, start + nbytes)``."""
        base = self.origin + self.memtype.lb
        return self.as_bytes[base + start : base + start + nbytes]
