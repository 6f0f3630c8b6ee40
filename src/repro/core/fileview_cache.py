"""Fileview caching — exchange compact views once per ``set_view``.

In the conventional implementation, every collective access requires each
access process to build and send per-IOP ol-lists describing its fileview
over the access range (paper §2.3).  Listless I/O instead exchanges a
*compact representation* of each process' filetype and displacement
exactly once, when the fileview is established (§3.2.3: "fileview
caching"); afterwards each IOP navigates any other process' view locally.

The compact representation is the serialized constructor tree
(:func:`repro.datatypes.decode.to_tree`) — its wire size is proportional
to the constructor tree, independent of Nblock, which is what makes the
one-time exchange cheap (a vector filetype of a million blocks ships in a
few dozen bytes).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core import blockprog
from repro.core.dataloop import Dataloop, _vector, compile_dataloop
from repro.datatypes import decode
from repro.datatypes.base import Datatype
from repro.errors import FFError

__all__ = ["CompactFileview", "FileviewCache"]

#: Effectively-unbounded repetition count for the tiled view dataloop.
#: (A fileview tiles the file indefinitely; Python ints make this exact.)
_UNBOUNDED = 1 << 62


@dataclass
class CompactFileview:
    """One process' fileview in compact (tree) form.

    Provides the navigation the IOP needs to serve the owning process:
    conversion between the process' data offsets (bytes through its view)
    and absolute file offsets, and coverage queries — all O(depth·log k)
    via the dataloop, without materializing any list.
    """

    disp: int
    etype_tree: Any
    filetype_tree: Any
    _etype: Optional[Datatype] = None
    _filetype: Optional[Datatype] = None
    _view_loop: Optional[Dataloop] = None
    # Hot-path scalars resolved once (navigation runs per window).
    _ft_size: int = 0
    _ft_extent: int = 0
    _ft_loop: Optional[Dataloop] = None

    def _resolve(self) -> None:
        ft = self.filetype
        self._ft_size = ft.size
        self._ft_extent = ft.extent
        self._ft_loop = compile_dataloop(ft)

    @classmethod
    def from_view(
        cls, disp: int, etype: Datatype, filetype: Datatype
    ) -> "CompactFileview":
        cv = cls(
            disp=disp,
            etype_tree=decode.to_tree(etype),
            filetype_tree=decode.to_tree(filetype),
        )
        # The originating process can keep the live objects (and their
        # cached dataloops); receivers rebuild lazily.
        cv._etype = etype
        cv._filetype = filetype
        return cv

    @property
    def etype(self) -> Datatype:
        if self._etype is None:
            self._etype = decode.from_tree(self.etype_tree)
        return self._etype

    @property
    def filetype(self) -> Datatype:
        if self._filetype is None:
            self._filetype = decode.from_tree(self.filetype_tree)
        return self._filetype

    @property
    def wire_bytes(self) -> int:
        """Size of the representation on the wire (one-time cost)."""
        return decode.tree_nbytes(self.filetype_tree) + decode.tree_nbytes(
            self.etype_tree
        ) + 8

    @property
    def view_loop(self) -> Dataloop:
        """Dataloop of the *tiled* view (unbounded repetition).

        Data-byte offsets through the view map to extent offsets relative
        to ``disp``; used for vectorized block enumeration over any file
        range.
        """
        if self._view_loop is None:
            ft = self.filetype
            inst = compile_dataloop(ft)
            assert inst is not None
            # _vector collapses a contiguous filetype into one unbounded
            # contiguous leaf (plain offset arithmetic, no index arrays).
            self._view_loop = _vector(_UNBOUNDED, ft.extent, inst)
        return self._view_loop

    def blocks_for_data(
        self, d_lo: int, d_hi: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Absolute-file-offset blocks holding view data bytes
        ``[d_lo, d_hi)`` — one vectorized enumeration, no stored list.

        Routed through the compiled block-program store: the tiled view
        loop is periodic in the filetype, so a window shape that recurs
        at a different period (a sieving or two-phase loop) reuses its
        canonical descriptor, translated by a scalar base.
        """
        offs, lens = blockprog.blocks_range_cached(self.view_loop, d_lo,
                                                   d_hi)
        return offs + self.disp, lens

    # ------------------------------------------------------------------
    # Navigation through the tiled view
    # ------------------------------------------------------------------
    def abs_of_data(self, data_off: int, end: bool = False) -> int:
        """Absolute file offset of the ``data_off``-th byte seen through
        the view (``end=True``: position after byte ``data_off - 1``)."""
        if self._ft_loop is None:
            self._resolve()
        if end and data_off == 0:
            return self.disp
        q, r = divmod(data_off - (1 if end else 0), self._ft_size)
        if end:
            r += 1
        return self.disp + q * self._ft_extent + self._ft_loop.ext_of_size(
            r, end
        )

    def data_of_abs(self, abs_off: int) -> int:
        """Data bytes visible through the view strictly before absolute
        file offset ``abs_off``."""
        if self._ft_loop is None:
            self._resolve()
        rel = abs_off - self.disp
        if rel <= 0:
            return 0
        q, r = divmod(rel, self._ft_extent)
        return q * self._ft_size + self._ft_loop.size_of_ext(r)

    def data_in_range(self, lo: int, hi: int) -> int:
        """Data bytes visible through the view within ``[lo, hi)``."""
        if hi <= lo:
            return 0
        return self.data_of_abs(hi) - self.data_of_abs(lo)


#: Serializes :meth:`FileviewCache.install` (a cache crosses process
#: boundaries with the file's shared state, so it holds no lock).
_INSTALL_MU = threading.Lock()


class FileviewCache:
    """Per-file store of every process' compact fileview.

    Filled once by the collective ``set_view`` (each process contributes
    its own view via an allgather of compact representations); read by
    IOPs on every collective access.  Also records the one-time exchange
    volume so benchmarks can compare it against per-access ol-list
    exchange volume.
    """

    def __init__(self) -> None:
        self._views: Dict[int, CompactFileview] = {}
        self.exchange_bytes = 0
        #: bumped on every install; plan caches key on it so plans built
        #: against a replaced view can never be replayed.
        self.epoch = 0
        #: The ``set_view`` whose views are installed (see :meth:`install`).
        self._generation: Optional[int] = None

    def install(self, views: Dict[int, CompactFileview],
                generation: Optional[int] = None) -> None:
        """Install the allgathered views (replacing any previous epoch).

        ``generation`` numbers the file's collective ``set_view`` calls
        (``None``: a new one): a generation is installed once.  Sim
        ranks share one cache, and each installs the same views; the
        first to arrive installs them and bumps ``epoch``, so a rank
        that starts accessing while the others still install sees the
        epoch they will see (a view shipped to the shard servers under
        an epoch the others never see is shipped again)."""
        with _INSTALL_MU:
            if generation is not None and generation == self._generation:
                return
            self._generation = generation
            self._views = dict(views)
            self.exchange_bytes = sum(v.wire_bytes for v in views.values())
            self.epoch += 1

    def view_of(self, rank: int) -> CompactFileview:
        try:
            return self._views[rank]
        except KeyError:
            raise FFError(f"no cached fileview for rank {rank}") from None

    def __len__(self) -> int:
        return len(self._views)

    def ranks(self):
        return self._views.keys()
