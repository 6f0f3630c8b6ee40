"""POSIX-style file access: the cursor handle and the real on-disk file.

The paper contrasts MPI-IO's rich access model with "the standard POSIX
I/O interface available at the operating system level".  This module
provides that baseline interface over the simulated file system — a
cursor-based ``read``/``write``/``lseek`` handle (:class:`PosixFile`) —
used by the examples to demonstrate what non-contiguous access costs
when each block needs its own seek+read/write pair, and by tests as a
second, independent access path to the same bytes.

:class:`OsFile` is a *real* file behind the :class:`SimFile` interface:
``pread``/``pwrite`` become ``os.preadv``/``os.pwrite`` on a file
descriptor, the vectored extent calls one kernel copy against a shared
``mmap`` of the file (the file *is* the buffer, :class:`FileBuffer`),
``lock_range`` a real ``fcntl`` byte-range lock
(:class:`~repro.fs.locks.FcntlRangeLockManager`).  It is what the
multi-process runtime opens — every rank holds its own descriptor on
the same path, so their accesses contend through the kernel exactly as
ROMIO's do.  Pickling an OsFile re-opens it by path in the receiving
process, which is how ``File.open``'s broadcast of the shared state
hands each rank its own descriptor.
"""

from __future__ import annotations

import mmap
import os
import threading

import numpy as np

from repro.errors import FileSystemError
from repro.fs.locks import FcntlRangeLockManager
from repro.fs.simfile import FileBuffer, SimFile
from repro.fs.stats import DeviceModel, FileStats
from repro.fs.striping import StripingConfig
from repro.obs import trace

__all__ = ["OsFile", "PosixFile", "SEEK_SET", "SEEK_CUR", "SEEK_END"]

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


class OsFile(FileBuffer):
    """A real on-disk file with the :class:`SimFile` access surface.

    ``name`` is the virtual path (what the namespace calls the file);
    ``ospath`` is where the bytes live.  Statistics are per *process*
    (each rank counts its own operations); the device model charges
    zero simulated time by default — on this backend the real device is
    the measurement.
    """

    def __init__(
        self,
        ospath: str,
        name: str | None = None,
        device: DeviceModel | None = None,
        striping: StripingConfig | None = None,
    ) -> None:
        self.path = ospath
        self.name = name or ospath
        self.device = device or DeviceModel(
            read_bandwidth=float("inf"),
            write_bandwidth=float("inf"),
            latency=0.0,
        )
        self.striping = striping or StripingConfig()
        self.stats = FileStats()
        self._fd = os.open(ospath, os.O_RDWR | os.O_CREAT, 0o644)
        self.locks = FcntlRangeLockManager(self._fd)
        #: ``(view, mmap)`` of the file's shared mapping, or None.
        self._map = None
        self._mu = threading.Lock()
        self._closed = False

    # -- pickling: re-open by path in the receiving process ------------
    def __reduce__(self):
        return (OsFile, (self.path, self.name, self.device,
                         self.striping))

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Current file size in bytes."""
        return os.fstat(self._fd).st_size

    def pread(self, offset: int, nbytes: int) -> np.ndarray:
        """Read up to ``nbytes`` at absolute ``offset``; returns a
        writable array (possibly shorter at end-of-file)."""
        if offset < 0 or nbytes < 0:
            raise FileSystemError(
                f"invalid read [{offset}, {offset + nbytes})"
            )
        out = np.empty(nbytes, dtype=np.uint8)
        return out[:self.pread_into(offset, out)]

    def pread_into(self, offset: int, out: np.ndarray) -> int:
        """Read into a caller buffer; returns bytes read."""
        if offset < 0:
            raise FileSystemError(f"invalid read offset {offset}")
        t0 = trace.now() if trace.TRACE_ON else 0.0
        n = os.preadv(self._fd, [out], offset)
        st = self.striping
        streams = 1 if st.ndisks == 1 else st.streams_for(offset, n)
        self.stats.record_read(n, self.device.read_time(n, streams))
        if trace.TRACE_ON:
            trace.TRACER.add("fs.pread", t0, bytes=n)
        return n

    def pwrite(self, offset: int, data: np.ndarray) -> int:
        """Write ``data`` at absolute ``offset`` (gaps become holes)."""
        if offset < 0:
            raise FileSystemError(f"invalid write offset {offset}")
        buf = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        t0 = trace.now() if trace.TRACE_ON else 0.0
        n = os.pwrite(self._fd, buf, offset)
        st = self.striping
        streams = 1 if st.ndisks == 1 else st.streams_for(offset, n)
        self.stats.record_write(n, self.device.write_time(n, streams))
        if trace.TRACE_ON:
            trace.TRACER.add("fs.pwrite", t0, bytes=n)
        return n

    # The file buffer (see FileBuffer), used under _mu: one fstat per
    # call sizes it to the file, which another process may have grown.
    def _mapping(self):
        size = os.fstat(self._fd).st_size
        return size, self._buffer(size)

    def _buffer(self, size: int) -> np.ndarray:
        """A shared mapping covering the file's first ``size`` bytes:
        the current one, or — the file grew past it — a new one.  An
        old mapping is dropped by reference — the last one unmaps it;
        ``close()`` would raise ``BufferError`` while a view is alive.
        ``MADV_RANDOM`` turns off the kernel's fault-around, which would
        map (and charge to RSS) the pages around each touched block."""
        m = self._map
        if m is not None and m[0].size >= size:
            return m[0]
        if not size:  # a zero-byte mapping is an error
            return np.empty(0, dtype=np.uint8)
        mm = mmap.mmap(self._fd, size)
        mm.madvise(mmap.MADV_RANDOM)
        self._map = (np.frombuffer(mm, dtype=np.uint8), mm)
        return self._map[0]

    def _grow(self, end: int, last) -> None:
        """Grow the file to ``end`` with a ``pwrite`` of ``last``, a
        byte of the write's own that its copy puts there anyway; unlike
        ``ftruncate``, it cannot shrink the file when another rank grows
        it at the same time."""
        os.pwrite(self._fd, last, end - 1)

    def truncate(self, length: int) -> None:
        """Set the file size (extend with zeros or cut); a cut drops
        the mapping, whose pages past the new end would fault."""
        if length < 0:
            raise FileSystemError(f"negative truncate length {length}")
        with self._mu:
            os.ftruncate(self._fd, length)
            if self._map is not None and self._map[0].size > length:
                self._map = None

    def lock_range(self, lo: int, hi: int) -> None:
        """Acquire the real ``fcntl`` advisory lock for a
        read-modify-write region."""
        t0 = trace.now() if trace.TRACE_ON else 0.0
        self.locks.lock(lo, hi)
        self.stats.record_lock()
        if trace.TRACE_ON:
            trace.TRACER.add("fs.lock", t0, lo=lo, hi=hi)

    def unlock_range(self, lo: int, hi: int) -> None:
        self.locks.unlock(lo, hi)

    def contents(self) -> np.ndarray:
        """A copy of the whole file (tests and examples)."""
        return self.pread(0, self.size)

    def fsync(self) -> None:
        """Flush the mapping's dirty pages and the file to the device."""
        m = self._map
        if m is not None:
            m[1].flush()
        os.fsync(self._fd)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._map = None
            os.close(self._fd)

    def __del__(self):  # pragma: no cover - GC timing
        try:
            self.close()
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OsFile {self.name!r} at {self.path!r} size={self.size}>"


class PosixFile:
    """A per-open cursor over a :class:`SimFile`."""

    def __init__(self, simfile: SimFile) -> None:
        self._file = simfile
        self._pos = 0
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise FileSystemError("I/O on closed file")

    # The wrapped file's statistics and device/striping model, so the
    # plan executor runs (and bills) the very same plans on this handle.
    @property
    def stats(self) -> FileStats:
        return self._file.stats

    @property
    def device(self) -> DeviceModel:
        return self._file.device

    @property
    def striping(self) -> StripingConfig:
        return self._file.striping

    def lseek(self, offset: int, whence: int = SEEK_SET) -> int:
        """Move the cursor; returns the new absolute position."""
        self._check_open()
        if whence == SEEK_SET:
            pos = offset
        elif whence == SEEK_CUR:
            pos = self._pos + offset
        elif whence == SEEK_END:
            pos = self._file.size + offset
        else:
            raise FileSystemError(f"bad whence {whence}")
        if pos < 0:
            raise FileSystemError(f"seek to negative offset {pos}")
        self._pos = pos
        return pos

    def tell(self) -> int:
        self._check_open()
        return self._pos

    def read(self, nbytes: int) -> np.ndarray:
        """Read up to ``nbytes`` at the cursor, advancing it."""
        self._check_open()
        with trace.span("posix.read", bytes=nbytes):
            out = self._file.pread(self._pos, nbytes)
        self._pos += out.size
        return out

    def write(self, data: np.ndarray) -> int:
        """Write at the cursor, advancing it."""
        self._check_open()
        with trace.span("posix.write", bytes=int(data.size)):
            n = self._file.pwrite(self._pos, data)
        self._pos += n
        return n

    def pread(self, offset: int, nbytes: int) -> np.ndarray:
        """Positional read (does not move the cursor)."""
        self._check_open()
        return self._file.pread(offset, nbytes)

    def pread_into(self, offset: int, out: np.ndarray) -> int:
        """Positional read into ``out``; returns the bytes read."""
        self._check_open()
        return self._file.pread_into(offset, out)

    def pwrite(self, offset: int, data: np.ndarray) -> int:
        """Positional write (does not move the cursor)."""
        self._check_open()
        return self._file.pwrite(offset, data)

    def preadv_blocks(self, offsets, lengths, out: np.ndarray,
                      pos: int = 0):
        """Vectored read (contract: :meth:`SimFile.preadv_blocks`)."""
        self._check_open()
        return self._file.preadv_blocks(offsets, lengths, out, pos)

    def pwritev_blocks(self, offsets, lengths, data: np.ndarray,
                       pos: int = 0):
        """Vectored write (contract: :meth:`SimFile.pwritev_blocks`)."""
        self._check_open()
        return self._file.pwritev_blocks(offsets, lengths, data, pos)

    # fcntl(F_SETLKW)-style advisory byte-range locks, so the POSIX
    # handle can run plans containing read-modify-write windows.
    def lock_range(self, lo: int, hi: int) -> None:
        self._check_open()
        self._file.lock_range(lo, hi)

    def unlock_range(self, lo: int, hi: int) -> None:
        self._check_open()
        self._file.unlock_range(lo, hi)

    def ftruncate(self, length: int) -> None:
        self._check_open()
        self._file.truncate(length)

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "PosixFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
