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


@dataclass(frozen=True)
class FileView:
    """One process' validated fileview."""

    disp: int
    etype: Datatype
    filetype: Datatype

    def __post_init__(self) -> None:
        if self.disp < 0:
            raise IOEngineError(f"negative view displacement {self.disp}")
        validate_etype(self.etype)
        validate_filetype(self.filetype, self.etype)

    # ------------------------------------------------------------------
    @property
    def esize(self) -> int:
        """Bytes of data per etype unit."""
        return self.etype.size

    @property
    def ft_size(self) -> int:
        """Data bytes per filetype instance."""
        return self.filetype.size

    @property
    def ft_extent(self) -> int:
        """File bytes spanned per filetype instance."""
        return self.filetype.extent

    @property
    def is_contiguous(self) -> bool:
        """True when the view exposes the file contiguously (the c-c /
        nc-c fast path: plain offset arithmetic, no sieving)."""
        return (
            self.filetype.is_contiguous
            and self.filetype.lb == 0
            and self.ft_size == self.ft_extent
        )

    def data_bytes_of_etypes(self, n_etypes: int) -> int:
        """Data bytes corresponding to ``n_etypes`` etype units."""
        return n_etypes * self.esize


def default_view() -> FileView:
    """The view every freshly opened file has: disp 0, etype/filetype BYTE."""
    return FileView(0, BYTE, BYTE)


@dataclass
class MemDescriptor:
    """The memory side of an access: ``count`` instances of ``memtype`` in
    ``buf`` (a NumPy array viewed as bytes).

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
    """

    buf: np.ndarray
    count: int
    memtype: Datatype
    origin: Optional[int] = None
    dest: bool = False
    _bytes: np.ndarray = field(init=False, repr=False)
    #: True when the data occupies one contiguous run of the buffer.
    is_contiguous: bool = field(init=False, repr=False)
    #: Total data bytes of the access.
    nbytes: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        count = self.count
        if count < 0:
            raise IOEngineError(f"negative count {count}")
        buf = self.buf
        if not buf.flags.c_contiguous:
            if self.dest:
                raise IOEngineError(
                    f"read destination of shape {buf.shape} with strides "
                    f"{buf.strides} is not C-contiguous"
                )
            buf = np.ascontiguousarray(buf)
        b = self._bytes = buf.view(np.uint8).reshape(-1)
        if self.dest and not b.flags.writeable:
            raise IOEngineError("read destination is read-only")
        mt = self.memtype
        if self.origin is None:
            self.origin = -min(mt.lb, mt.true_lb, 0)
        self.is_contiguous = mt.is_contiguous
        self.nbytes = count * mt.size
        if self.nbytes:
            lo = self.origin + mt.true_lb
            hi = self.origin + mt.true_ub
            step = (count - 1) * mt.extent
            if step < 0:
                lo += step
            else:
                hi += step
            if lo < 0 or hi > b.size:
                raise IOEngineError(
                    f"{count} x memtype (extent {mt.extent}) from origin "
                    f"{self.origin} touches buffer bytes [{lo}, {hi}), but "
                    f"the buffer holds {b.size}"
                )

    @property
    def as_bytes(self) -> np.ndarray:
        """Flat uint8 view of the buffer."""
        return self._bytes

    def contiguous_slice(self, start: int, nbytes: int) -> np.ndarray:
        """For contiguous memtypes: the byte slice holding data bytes
        ``[start, start + nbytes)``."""
        base = self.origin + self.memtype.lb
        return self._bytes[base + start : base + start + nbytes]
