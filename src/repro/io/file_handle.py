"""The MPI-IO file handle.

:class:`File` mirrors the ``MPI_File`` API surface that the paper's
workloads use: collective open/close, ``set_view``, independent and
collective reads/writes at explicit offsets or via individual/shared file
pointers, size management, and atomicity control.

Offsets and file pointers count in *etype units* of the current view; a
buffer is described by ``(buf, count, memtype)`` exactly as in MPI.  All
byte movement is delegated to the configured engine (``"listless"`` or
``"list_based"``).
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from repro._ctx import SESSION
from repro.core.fileview_cache import FileviewCache
from repro.datatypes.base import Datatype
from repro.errors import IOEngineError
from repro.fs.filesystem import SimFileSystem
from repro.fs.simfile import SimFile
from repro.io.fileview import FileView, MemDescriptor, default_view
from repro.io.hints import Hints
from repro.io.request import Request
from repro.mpi.communicator import Comm

__all__ = [
    "File",
    "SharedFileState",
    "MODE_RDONLY",
    "MODE_WRONLY",
    "MODE_RDWR",
    "MODE_CREATE",
    "MODE_EXCL",
    "MODE_DELETE_ON_CLOSE",
    "MODE_APPEND",
    "SEEK_SET",
    "SEEK_CUR",
    "SEEK_END",
]

MODE_RDONLY = 0x01
MODE_WRONLY = 0x02
MODE_RDWR = 0x04
MODE_CREATE = 0x08
MODE_EXCL = 0x10
MODE_DELETE_ON_CLOSE = 0x20
MODE_APPEND = 0x40

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


class LocalCounter:
    """Thread-shared integer with ``get``/``set``/``add`` — the shared
    file pointer of the sim backend.  ``add`` returns the value before
    the increment, atomically.  Pickles without its lock (a copy that
    crosses a process boundary starts an independent lock)."""

    def __init__(self, value: int = 0) -> None:
        self._value = value
        self._mu = threading.Lock()

    def get(self) -> int:
        with self._mu:
            return self._value

    def set(self, v: int) -> None:
        with self._mu:
            self._value = v

    def add(self, delta: int) -> int:
        with self._mu:
            old = self._value
            self._value = old + delta
            return old

    def __getstate__(self):
        return self.get()

    def __setstate__(self, state):
        self.__init__(state)


class SharedFileState:
    """State shared by all ranks that opened the same file.

    On the sim backend one instance is shared by reference between the
    rank threads.  On the proc backend the open broadcast hands each
    rank a pickled *copy* — the pieces that must stay truly shared are
    then swapped for cross-process primitives: the file pointer counter
    is adopted from the communicator (:meth:`attach_counter`), and the
    file bytes live behind an :class:`~repro.fs.posix.OsFile`
    descriptor in the kernel.
    """

    def __init__(self, simfile: SimFile, path: str,
                 requires_ol_lists: bool = False) -> None:
        self.simfile = simfile
        self.path = path
        self._ptr = LocalCounter()  # etype units
        self.fileview_cache = FileviewCache()
        self.atomicity = False
        #: NFS/PVFS-like file system (paper footnote 4): ol-lists must
        #: still be created even by the listless engine.
        self.requires_ol_lists = requires_ol_lists

    @property
    def shared_ptr(self) -> int:
        return self._ptr.get()

    @shared_ptr.setter
    def shared_ptr(self, value: int) -> None:
        self._ptr.set(value)

    def bump_shared_ptr(self, delta: int) -> int:
        """Atomically advance the shared pointer; returns its old value."""
        return self._ptr.add(delta)

    def attach_counter(self, counter) -> None:
        """Replace the pointer counter (cross-process adoption),
        preserving the current value."""
        counter.set(self._ptr.get())
        self._ptr = counter


def _validate_amode(amode: int) -> None:
    access = [
        m for m in (MODE_RDONLY, MODE_WRONLY, MODE_RDWR) if amode & m
    ]
    if len(access) != 1:
        raise IOEngineError(
            "amode must contain exactly one of MODE_RDONLY, MODE_WRONLY, "
            "MODE_RDWR"
        )
    if amode & MODE_RDONLY and amode & (MODE_CREATE | MODE_EXCL):
        raise IOEngineError("MODE_RDONLY cannot combine with CREATE/EXCL")


class File:
    """Per-rank handle on a collectively opened file."""

    def __init__(
        self,
        comm: Comm,
        shared: SharedFileState,
        amode: int,
        engine_name: str,
        hints: Hints,
    ) -> None:
        self.comm = comm
        self.shared = shared
        self.amode = amode
        self.hints = hints
        #: The IOSession this handle reports into: the one active when
        #: the handle was built.
        self.session = SESSION.get()
        self.view: FileView = default_view()
        self._ind_ptr = 0  # etype units
        self._closed = False
        self._split_pending = None  # outstanding split collective, if any
        if hints.obs_trace:
            from repro.obs import trace

            trace.set_tracing(True)
        from repro.io.engines import make_engine

        self.session.metrics.register_file(shared.path,
                                           shared.simfile.stats)
        self.engine_name = engine_name
        self.engine = make_engine(engine_name, self)
        # Views must be installed collectively even for the default view,
        # so collective accesses before any set_view work out of the box.
        self.engine.setup_view()

    # ------------------------------------------------------------------
    # Open / close
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        comm: Comm,
        fs: SimFileSystem,
        path: str,
        amode: int,
        engine: str = "listless",
        info: Optional[dict] = None,
        hints: Optional[Hints] = None,
    ) -> "File":
        """Collectively open ``path`` on ``fs``.

        ``engine`` picks the non-contiguous machinery (``"listless"`` or
        ``"list_based"``); ``info`` takes ``MPI_Info``-style hint strings,
        or pass a ready :class:`~repro.io.hints.Hints` as ``hints``.
        The handle reports into the caller's current
        :class:`~repro.session.IOSession`.
        """
        _validate_amode(amode)
        if hints is None:
            hints = Hints.from_mapping(info)
        elif info:
            raise IOEngineError("pass either info or hints, not both")

        if comm.rank == 0:
            if amode & MODE_CREATE:
                striping = None
                if hints.striping_factor or hints.striping_unit:
                    from repro.fs.striping import StripingConfig

                    base = fs.striping
                    striping = StripingConfig(
                        ndisks=hints.striping_factor or base.ndisks,
                        stripe_size=hints.striping_unit
                        or base.stripe_size,
                    )
                simfile = fs.create(
                    path, exist_ok=not (amode & MODE_EXCL),
                    striping=striping,
                )
            else:
                simfile = fs.lookup(path)
            state = SharedFileState(
                simfile, path,
                requires_ol_lists=getattr(fs, "requires_ol_lists", False),
            )
        else:
            state = None  # type: ignore[assignment]
        state = comm.bcast(state, root=0)
        # On backends where the bcast copies state across processes, the
        # shared file pointer must live somewhere truly shared: adopt a
        # communicator-provided cross-process counter.
        make_counter = getattr(comm, "make_shared_counter", None)
        if make_counter is not None:
            state.attach_counter(make_counter())
        fh = cls(comm, state, amode, engine, hints)
        fh._fs = fs  # for DELETE_ON_CLOSE
        if amode & MODE_APPEND:
            fh.seek(fh._etypes_in_file(), SEEK_SET)
        return fh

    def close(self) -> None:
        """Collectively close the handle."""
        self._check_open()
        if self._split_pending is not None:
            raise IOEngineError(
                "cannot close with an outstanding split collective "
                f"({self._split_pending[0]}_begin without _end)"
            )
        self.engine.close()
        self.comm.barrier()
        if self.amode & MODE_DELETE_ON_CLOSE and self.comm.rank == 0:
            fs = getattr(self, "_fs", None)
            if fs is not None and fs.exists(self.shared.path):
                fs.unlink(self.shared.path)
        self.comm.barrier()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise IOEngineError("I/O on closed file handle")

    def _check_readable(self) -> None:
        if not self.amode & (MODE_RDONLY | MODE_RDWR):
            raise IOEngineError("file not opened for reading")

    def _check_writable(self) -> None:
        if not self.amode & (MODE_WRONLY | MODE_RDWR):
            raise IOEngineError("file not opened for writing")

    # ------------------------------------------------------------------
    # Views and pointers
    # ------------------------------------------------------------------
    @property
    def simfile(self) -> SimFile:
        return self.shared.simfile

    def set_view(
        self,
        disp: int,
        etype: Datatype,
        filetype: Optional[Datatype] = None,
        info: Optional[dict] = None,
    ) -> None:
        """Collectively establish a new fileview.

        Resets the individual and shared file pointers to zero, as MPI
        requires.  The listless engine exchanges compact fileviews here —
        its one-time communication; the list-based engine only flattens.
        """
        self._check_open()
        if info:
            self.hints = Hints.from_mapping(info)
        self.view = FileView(disp, etype, filetype or etype)
        self._ind_ptr = 0
        if self.comm.rank == 0:
            self.shared.shared_ptr = 0
        self.engine.setup_view()

    def get_view(self):
        """Return ``(disp, etype, filetype)`` of the current view."""
        return (self.view.disp, self.view.etype, self.view.filetype)

    def seek(self, offset: int, whence: int = SEEK_SET) -> None:
        """Move the individual file pointer (etype units)."""
        self._check_open()
        if whence == SEEK_SET:
            pos = offset
        elif whence == SEEK_CUR:
            pos = self._ind_ptr + offset
        elif whence == SEEK_END:
            pos = self._etypes_in_file() + offset
        else:
            raise IOEngineError(f"bad whence {whence}")
        if pos < 0:
            raise IOEngineError(f"seek to negative etype offset {pos}")
        self._ind_ptr = pos

    def tell(self) -> int:
        """Individual file pointer in etype units."""
        return self._ind_ptr

    def _etypes_in_file(self) -> int:
        """Etype units visible through the view up to end-of-file."""
        return self.engine.data_of_abs(self.simfile.size) // self.view.esize

    def get_byte_offset(self, offset: int) -> int:
        """Absolute byte offset of etype offset ``offset``
        (``MPI_File_get_byte_offset``)."""
        self._check_open()
        return self.engine.abs_of_data(offset * self.view.esize)

    def get_position(self) -> int:
        """Individual file pointer in etype units
        (``MPI_File_get_position``)."""
        self._check_open()
        return self._ind_ptr

    def get_position_shared(self) -> int:
        """Shared file pointer in etype units
        (``MPI_File_get_position_shared``)."""
        self._check_open()
        return self.shared.shared_ptr

    def get_amode(self) -> int:
        """The access mode the file was opened with."""
        self._check_open()
        return self.amode

    def get_info(self) -> Hints:
        """The hints in effect (``MPI_File_get_info``)."""
        self._check_open()
        return self.hints

    def set_info(self, info: Optional[dict] = None,
                 hints: Optional[Hints] = None) -> None:
        """Replace the hints (``MPI_File_set_info``; collective)."""
        self._check_open()
        if hints is not None and info:
            raise IOEngineError("pass either info or hints, not both")
        self.comm.barrier()
        self.hints = hints if hints is not None else Hints.from_mapping(
            info
        )
        self.comm.barrier()

    def get_type_extent(self, datatype: Datatype) -> int:
        """Extent of ``datatype`` in this file's data representation
        (``MPI_File_get_type_extent``; the native representation here)."""
        self._check_open()
        return datatype.extent

    # ------------------------------------------------------------------
    # Size management
    # ------------------------------------------------------------------
    def get_size(self) -> int:
        """File size in bytes."""
        self._check_open()
        return self.simfile.size

    def set_size(self, nbytes: int) -> None:
        """Collectively truncate/extend the file."""
        self._check_open()
        self._check_writable()
        self.comm.barrier()
        if self.comm.rank == 0:
            self.simfile.truncate(nbytes)
        self.comm.barrier()

    def preallocate(self, nbytes: int) -> None:
        """Collectively ensure the file is at least ``nbytes`` long."""
        self._check_open()
        self._check_writable()
        self.comm.barrier()
        if self.comm.rank == 0 and self.simfile.size < nbytes:
            self.simfile.truncate(nbytes)
        self.comm.barrier()

    def sync(self) -> None:
        """Flush this rank's writes to the device: the backend's
        ``fsync`` where it has one (a real file), else a no-op (the
        in-memory store)."""
        self._check_open()
        fsync = getattr(self.simfile, "fsync", None)
        if fsync is not None:
            fsync()

    # ------------------------------------------------------------------
    # Atomicity
    # ------------------------------------------------------------------
    def set_atomicity(self, flag: bool) -> None:
        """Collectively toggle atomic mode (whole-access locking)."""
        self._check_open()
        self.comm.barrier()
        self.shared.atomicity = bool(flag)
        self.comm.barrier()

    def get_atomicity(self) -> bool:
        return self.shared.atomicity

    # ------------------------------------------------------------------
    # Access plumbing
    # ------------------------------------------------------------------
    def _mem(
        self, buf: np.ndarray, count: Optional[int],
        memtype: Optional[Datatype], dest: bool = False,
    ) -> MemDescriptor:
        return MemDescriptor(buf, count, memtype, dest=dest)

    def _advance(self, nbytes: int, ptr: int) -> int:
        esize = self.view.esize
        if nbytes % esize:
            raise IOEngineError(
                f"access of {nbytes} bytes is not a whole number of etypes "
                f"(etype size {esize})"
            )
        return ptr + nbytes // esize

    def _atomic_range(self, mem: MemDescriptor, d0: int):
        """``(lo, hi)`` of the whole-access range lock an access takes
        in atomic mode through the current view, else ``None``."""
        if not self.shared.atomicity or mem.nbytes == 0:
            return None
        return (self.engine.abs_of_data(d0),
                self.engine.abs_of_data(d0 + mem.nbytes, end=True))

    # ------------------------------------------------------------------
    # Independent access, explicit offsets
    # ------------------------------------------------------------------
    def write_at(
        self,
        offset: int,
        buf: np.ndarray,
        count: Optional[int] = None,
        memtype: Optional[Datatype] = None,
    ) -> None:
        """Independent write at etype offset ``offset``."""
        if self._closed or not self.amode & (MODE_WRONLY | MODE_RDWR):
            self._check_open()
            self._check_writable()
        self.engine.run_independent(buf, count, memtype,
                                    offset * self.view.esize, True)

    def read_at(
        self,
        offset: int,
        buf: np.ndarray,
        count: Optional[int] = None,
        memtype: Optional[Datatype] = None,
    ) -> None:
        """Independent read at etype offset ``offset``."""
        if self._closed or not self.amode & (MODE_RDONLY | MODE_RDWR):
            self._check_open()
            self._check_readable()
        self.engine.run_independent(buf, count, memtype,
                                    offset * self.view.esize, False)

    # ------------------------------------------------------------------
    # Independent access, individual file pointer
    # ------------------------------------------------------------------
    def write(
        self,
        buf: np.ndarray,
        count: Optional[int] = None,
        memtype: Optional[Datatype] = None,
    ) -> None:
        """Independent write at the individual file pointer."""
        mem = self._mem(buf, count, memtype)
        self.write_at(self._ind_ptr, mem)
        self._ind_ptr = self._advance(mem.nbytes, self._ind_ptr)

    def read(
        self,
        buf: np.ndarray,
        count: Optional[int] = None,
        memtype: Optional[Datatype] = None,
    ) -> None:
        """Independent read at the individual file pointer."""
        mem = self._mem(buf, count, memtype, dest=True)
        self.read_at(self._ind_ptr, mem)
        self._ind_ptr = self._advance(mem.nbytes, self._ind_ptr)

    # ------------------------------------------------------------------
    # Independent access, shared file pointer
    # ------------------------------------------------------------------
    def _bump_shared(self, mem: MemDescriptor) -> int:
        delta = self._advance(mem.nbytes, 0)
        return self.shared.bump_shared_ptr(delta)

    def write_shared(
        self,
        buf: np.ndarray,
        count: Optional[int] = None,
        memtype: Optional[Datatype] = None,
    ) -> None:
        """Independent write at the shared file pointer."""
        self._check_open()
        self._check_writable()
        mem = self._mem(buf, count, memtype)
        pos = self._bump_shared(mem)
        self.write_at(pos, mem)

    def read_shared(
        self,
        buf: np.ndarray,
        count: Optional[int] = None,
        memtype: Optional[Datatype] = None,
    ) -> None:
        """Independent read at the shared file pointer."""
        self._check_open()
        self._check_readable()
        mem = self._mem(buf, count, memtype, dest=True)
        pos = self._bump_shared(mem)
        self.read_at(pos, mem)

    def seek_shared(self, offset: int, whence: int = SEEK_SET) -> None:
        """Collectively move the shared file pointer."""
        self._check_open()
        self.comm.barrier()
        if self.comm.rank == 0:
            if whence == SEEK_SET:
                pos = offset
            elif whence == SEEK_CUR:
                pos = self.shared.shared_ptr + offset
            elif whence == SEEK_END:
                pos = self._etypes_in_file() + offset
            else:
                raise IOEngineError(f"bad whence {whence}")
            if pos < 0:
                raise IOEngineError(f"seek to negative etype offset {pos}")
            self.shared.shared_ptr = pos
        self.comm.barrier()

    # ------------------------------------------------------------------
    # Collective access
    # ------------------------------------------------------------------
    def write_at_all(
        self,
        offset: int,
        buf: np.ndarray,
        count: Optional[int] = None,
        memtype: Optional[Datatype] = None,
    ) -> None:
        """Collective write at etype offset ``offset``."""
        if self._closed or not self.amode & (MODE_WRONLY | MODE_RDWR):
            self._check_open()
            self._check_writable()
        self.engine.collective(buf, count, memtype,
                               offset * self.view.esize, True)

    def read_at_all(
        self,
        offset: int,
        buf: np.ndarray,
        count: Optional[int] = None,
        memtype: Optional[Datatype] = None,
    ) -> None:
        """Collective read at etype offset ``offset``."""
        if self._closed or not self.amode & (MODE_RDONLY | MODE_RDWR):
            self._check_open()
            self._check_readable()
        self.engine.collective(buf, count, memtype,
                               offset * self.view.esize, False)

    def write_all(
        self,
        buf: np.ndarray,
        count: Optional[int] = None,
        memtype: Optional[Datatype] = None,
    ) -> None:
        """Collective write at the individual file pointer."""
        if self._closed or not self.amode & (MODE_WRONLY | MODE_RDWR):
            self._check_open()
            self._check_writable()
        n = self.engine.collective(buf, count, memtype,
                                   self._ind_ptr * self.view.esize, True)
        self._ind_ptr = self._advance(n, self._ind_ptr)

    def read_all(
        self,
        buf: np.ndarray,
        count: Optional[int] = None,
        memtype: Optional[Datatype] = None,
    ) -> None:
        """Collective read at the individual file pointer."""
        if self._closed or not self.amode & (MODE_RDONLY | MODE_RDWR):
            self._check_open()
            self._check_readable()
        n = self.engine.collective(buf, count, memtype,
                                   self._ind_ptr * self.view.esize, False)
        self._ind_ptr = self._advance(n, self._ind_ptr)

    # ------------------------------------------------------------------
    # Ordered-mode collectives (shared file pointer, rank order)
    # ------------------------------------------------------------------
    def _ordered_offsets(self, mem: MemDescriptor) -> int:
        """Collectively compute this rank's etype offset for an ordered
        access and advance the shared pointer past all of them."""
        esize = self.view.esize
        if mem.nbytes % esize:
            raise IOEngineError(
                f"ordered access of {mem.nbytes} bytes is not a whole "
                f"number of etypes (etype size {esize})"
            )
        my_etypes = mem.nbytes // esize
        # Read the base BEFORE the allgather: the allgather then orders
        # every rank's read before rank 0's update below, and the
        # engine's own collectives order the update before any rank's
        # next ordered access.
        base = self.shared.shared_ptr
        sizes = self.comm.allgather(my_etypes)
        my_off = base + sum(sizes[: self.comm.rank])
        if self.comm.rank == 0:
            self.shared.shared_ptr = base + sum(sizes)
        return my_off

    def write_ordered(
        self,
        buf: np.ndarray,
        count: Optional[int] = None,
        memtype: Optional[Datatype] = None,
    ) -> None:
        """Collective write in rank order at the shared file pointer
        (``MPI_File_write_ordered``): rank r's data lands immediately
        after ranks 0..r-1's, and the shared pointer ends past all of
        it."""
        self._check_open()
        self._check_writable()
        mem = self._mem(buf, count, memtype)
        my_off = self._ordered_offsets(mem)
        self.engine.collective(mem, None, None, my_off * self.view.esize,
                               True)

    def read_ordered(
        self,
        buf: np.ndarray,
        count: Optional[int] = None,
        memtype: Optional[Datatype] = None,
    ) -> None:
        """Collective read in rank order at the shared file pointer
        (``MPI_File_read_ordered``)."""
        self._check_open()
        self._check_readable()
        mem = self._mem(buf, count, memtype, dest=True)
        my_off = self._ordered_offsets(mem)
        self.engine.collective(mem, None, None, my_off * self.view.esize,
                               False)

    # ------------------------------------------------------------------
    # Split collectives (MPI_File_write_at_all_begin / _end)
    # ------------------------------------------------------------------
    def _begin_split(self, kind: str, buf: np.ndarray) -> None:
        if getattr(self, "_split_pending", None) is not None:
            raise IOEngineError(
                "a split collective is already outstanding on this handle"
            )
        self._split_pending = (kind, id(buf))

    def _end_split(self, kind: str, buf: np.ndarray) -> None:
        pending = getattr(self, "_split_pending", None)
        if pending is None:
            raise IOEngineError(f"{kind}_end without matching _begin")
        if pending[0] != kind:
            raise IOEngineError(
                f"{kind}_end does not match outstanding {pending[0]}_begin"
            )
        if pending[1] != id(buf):
            raise IOEngineError(
                f"{kind}_end called with a different buffer than _begin"
            )
        self._split_pending = None

    def write_at_all_begin(self, offset, buf, count=None, memtype=None):
        """Begin a split collective write (completes the I/O eagerly;
        ``write_at_all_end`` finishes the operation)."""
        self._begin_split("write_at_all", buf)
        self.write_at_all(offset, buf, count, memtype)

    def write_at_all_end(self, buf) -> None:
        """Complete a split collective write."""
        self._end_split("write_at_all", buf)

    def read_at_all_begin(self, offset, buf, count=None, memtype=None):
        """Begin a split collective read."""
        self._begin_split("read_at_all", buf)
        self.read_at_all(offset, buf, count, memtype)

    def read_at_all_end(self, buf) -> None:
        """Complete a split collective read; ``buf`` holds the data."""
        self._end_split("read_at_all", buf)

    def write_all_begin(self, buf, count=None, memtype=None):
        """Begin a split collective write at the individual pointer."""
        self._begin_split("write_all", buf)
        self.write_all(buf, count, memtype)

    def write_all_end(self, buf) -> None:
        self._end_split("write_all", buf)

    def read_all_begin(self, buf, count=None, memtype=None):
        """Begin a split collective read at the individual pointer."""
        self._begin_split("read_all", buf)
        self.read_all(buf, count, memtype)

    def read_all_end(self, buf) -> None:
        self._end_split("read_all", buf)

    # ------------------------------------------------------------------
    # Nonblocking variants (plan eagerly, execute on wait/test)
    # ------------------------------------------------------------------
    def _defer(self, mem: MemDescriptor, d0: int, write: bool) -> Request:
        """Plan the access now, defer its execution into a Request.

        Planning at post time, through the replay table, pins the
        access to the current view (a later ``set_view`` cannot retarget
        it) and pays navigation up front; the file I/O runs on
        ``wait()``/``test()`` — a mapped copy as a call bound then: a
        ``set_view`` in between folds the table's calls.  The atomic-mode
        range lock is fixed at post too: the wait locks the range
        planned, whatever view is current then.
        """
        if mem.nbytes == 0:
            return Request.completed()
        engine = self.engine
        plan, delta = engine.planner.plan_independent_bound(
            d0, mem.nbytes, write)
        guard = self._atomic_range(mem, d0)

        def pending() -> None:
            # Closing releases the engine's planner and executor.
            self._check_open()
            if guard:
                self.simfile.lock_range(*guard)
            try:
                engine.run_plan(plan, mem, delta)
            finally:
                if guard:
                    self.simfile.unlock_range(*guard)

        return Request(pending, plan=plan)

    def iwrite_at(self, offset, buf, count=None, memtype=None) -> Request:
        """Nonblocking independent write at etype offset ``offset``."""
        self._check_open()
        self._check_writable()
        mem = self._mem(buf, count, memtype)
        return self._defer(mem, offset * self.view.esize, write=True)

    def iread_at(self, offset, buf, count=None, memtype=None) -> Request:
        """Nonblocking independent read at etype offset ``offset``."""
        self._check_open()
        self._check_readable()
        mem = self._mem(buf, count, memtype, dest=True)
        return self._defer(mem, offset * self.view.esize, write=False)

    def iwrite(self, buf, count=None, memtype=None) -> Request:
        """Nonblocking write at the individual pointer (advances it)."""
        self._check_open()
        self._check_writable()
        mem = self._mem(buf, count, memtype)
        d0 = self._ind_ptr * self.view.esize
        self._ind_ptr = self._advance(mem.nbytes, self._ind_ptr)
        return self._defer(mem, d0, write=True)

    def iread(self, buf, count=None, memtype=None) -> Request:
        """Nonblocking read at the individual pointer (advances it)."""
        self._check_open()
        self._check_readable()
        mem = self._mem(buf, count, memtype, dest=True)
        d0 = self._ind_ptr * self.view.esize
        self._ind_ptr = self._advance(mem.nbytes, self._ind_ptr)
        return self._defer(mem, d0, write=False)

    def __repr__(self) -> str:  # pragma: no cover
        state = "closed" if self._closed else "open"
        return (
            f"<File {self.shared.path!r} rank={self.comm.rank} "
            f"engine={self.engine_name} {state}>"
        )
