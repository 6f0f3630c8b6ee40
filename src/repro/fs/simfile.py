"""The shared in-memory file object.

A :class:`SimFile` stores bytes in a growable NumPy array, supports
absolute-offset reads/writes (``pread``/``pwrite`` semantics), is safe for
concurrent access from the rank threads, and charges every operation to
its :class:`~repro.fs.stats.FileStats` via the owning file system's
:class:`~repro.fs.stats.DeviceModel`.

Reads beyond end-of-file return the available prefix (POSIX semantics);
writes beyond end-of-file extend the file, zero-filling any gap.

Besides the one-extent ``pread_into``/``pwrite``, every file backend
(:class:`SimFile`, :class:`~repro.fs.posix.OsFile`,
:class:`~repro.fs.posix.PosixFile`, :class:`~repro.fs.sharded.ShardedFile`)
offers the vectored pair ``preadv_blocks``/``pwritev_blocks``: a whole
offset/length list per call, with the semantics of one per-extent call
each (same bytes, same :class:`FileStats` counts, same device seconds)
but one validation, one device-time expression and one stats update per
list.  :func:`as_extents` is their shared argument check.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import FileSystemError
from repro.fs.locks import RangeLockManager
from repro.fs.stats import DeviceModel, FileStats
from repro.fs.striping import StripingConfig
from repro.obs import trace

__all__ = ["SimFile", "as_extents"]


def as_extents(offsets, lengths, kind: str, room: int):
    """Validated ``(offsets, lengths, total)`` of a vectored ``kind``
    (``"read"``/``"write"``) call on a buffer of ``room`` bytes.

    ``offsets``/``lengths`` are int sequences (lists or int64 arrays);
    the returned ones are Python lists, what the per-extent loop
    iterates.  A negative offset raises the same
    :class:`~repro.errors.FileSystemError` as the one-extent call.
    """
    offs = offsets.tolist() if isinstance(offsets, np.ndarray) \
        else list(offsets)
    lens = lengths.tolist() if isinstance(lengths, np.ndarray) \
        else list(lengths)
    if len(offs) != len(lens):
        raise FileSystemError(
            f"{kind}: {len(offs)} offsets but {len(lens)} lengths"
        )
    if offs and min(offs) < 0:
        bad = next(o for o in offs if o < 0)
        raise FileSystemError(f"invalid {kind} offset {bad}")
    if lens and min(lens) < 0:
        bad = next(ln for ln in lens if ln < 0)
        raise FileSystemError(f"negative {kind} length {bad}")
    total = sum(lens)
    if total > room:
        raise FileSystemError(
            f"{kind} of {total} bytes overruns a {room}-byte buffer"
        )
    return offs, lens, total


class SimFile:
    """One file: bytes, size, locks and statistics."""

    def __init__(
        self,
        name: str,
        device: DeviceModel,
        striping: StripingConfig,
        initial_capacity: int = 4096,
    ) -> None:
        self.name = name
        self.device = device
        self.striping = striping
        self.stats = FileStats()
        self.locks = RangeLockManager()
        self._data = np.zeros(max(initial_capacity, 16), dtype=np.uint8)
        self._size = 0
        self._mu = threading.Lock()

    def __reduce__(self):
        # A SimFile is shared by reference between rank threads; copying
        # it into another process would silently fork its contents.
        raise FileSystemError(
            "SimFile cannot cross process boundaries — use an "
            "OsFileSystem (repro.fs.filesystem) with the proc runtime"
        )

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Current file size in bytes."""
        with self._mu:
            return self._size

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._data.size:
            return
        cap = self._data.size
        while cap < needed:
            cap *= 2
        grown = np.zeros(cap, dtype=np.uint8)
        grown[: self._size] = self._data[: self._size]
        self._data = grown

    # ------------------------------------------------------------------
    def pread(self, offset: int, nbytes: int) -> np.ndarray:
        """Read up to ``nbytes`` at absolute ``offset``; returns a copy
        (possibly shorter at end-of-file)."""
        if offset < 0 or nbytes < 0:
            raise FileSystemError(
                f"invalid read [{offset}, {offset + nbytes})"
            )
        with self._mu:
            end = min(offset + nbytes, self._size)
            if end <= offset:
                out = np.empty(0, dtype=np.uint8)
            else:
                out = self._data[offset:end].copy()
        streams = self.striping.streams_for(offset, out.size)
        self.stats.record_read(out.size, self.device.read_time(out.size, streams))
        return out

    def pread_into(self, offset: int, out: np.ndarray) -> int:
        """Read into a caller buffer; returns bytes read."""
        if offset < 0:
            raise FileSystemError(f"invalid read offset {offset}")
        t0 = trace.now() if trace.TRACE_ON else 0.0
        with self._mu:
            end = min(offset + out.size, self._size)
            n = max(end - offset, 0)
            if n:
                out[:n] = self._data[offset:end]
        streams = self.striping.streams_for(offset, n)
        self.stats.record_read(n, self.device.read_time(n, streams))
        if trace.TRACE_ON:
            trace.TRACER.add("fs.pread", t0, bytes=n)
        return n

    def pwrite(self, offset: int, data: np.ndarray) -> int:
        """Write ``data`` at absolute ``offset``, extending the file as
        needed; returns bytes written."""
        if offset < 0:
            raise FileSystemError(f"invalid write offset {offset}")
        buf = data.view(np.uint8).reshape(-1)
        n = buf.size
        t0 = trace.now() if trace.TRACE_ON else 0.0
        with self._mu:
            self._ensure_capacity(offset + n)
            if offset > self._size:
                # POSIX hole: zero-fill (capacity array is already zeroed
                # only on first growth, so clear explicitly).
                self._data[self._size : offset] = 0
            self._data[offset : offset + n] = buf
            self._size = max(self._size, offset + n)
        streams = self.striping.streams_for(offset, n)
        self.stats.record_write(n, self.device.write_time(n, streams))
        if trace.TRACE_ON:
            trace.TRACER.add("fs.pwrite", t0, bytes=n)
        return n

    def preadv_blocks(self, offsets, lengths, out: np.ndarray,
                      pos: int = 0):
        """Read extent ``i`` into ``out[pos + sum(lengths[:i]):]`` for
        every ``i``, zero-filling what lies past end-of-file.  ``out``
        is a byte (uint8) buffer, as for :meth:`pread_into`.

        Returns ``(short, seconds)``: ``short`` is ``None`` when every
        extent was read in full, else ``(i, got)`` of the first short
        extent; ``seconds`` is the simulated device time charged (one
        read per extent, as the same ``pread_into`` calls would be).
        """
        offs, lens, total = as_extents(offsets, lengths, "read",
                                       out.size - pos)
        t0 = trace.now() if trace.TRACE_ON else 0.0
        got = lens
        short = None
        with self._mu:
            data, size = self._data, self._size
            p = pos
            for i, (o, ln) in enumerate(zip(offs, lens)):
                n = max(min(o + ln, size) - o, 0)
                if n == ln:
                    out[p:p + ln] = data[o:o + ln]
                else:
                    out[p:p + n] = data[o:o + n]
                    out[p + n:p + ln] = 0
                    if short is None:
                        short = (i, n)
                        got = lens.copy()
                    total -= ln - n
                    got[i] = n
                p += ln
        secs = self.device.extents_time(offs, got, self.striping, False)
        self.stats.record_read(total, secs, len(offs))
        if trace.TRACE_ON:
            trace.TRACER.add("fs.preadv", t0, extents=len(offs))
        return short, secs

    def pwritev_blocks(self, offsets, lengths, data: np.ndarray,
                       pos: int = 0):
        """Write ``data[pos + sum(lengths[:i]):]`` to extent ``i`` for
        every ``i``, in list order (a later extent wins an overlap).

        Returns ``(nbytes, seconds)``: bytes written and the simulated
        device time charged (one write per extent).
        """
        buf = data.view(np.uint8).reshape(-1)
        offs, lens, total = as_extents(offsets, lengths, "write",
                                       buf.size - pos)
        t0 = trace.now() if trace.TRACE_ON else 0.0
        with self._mu:
            if offs:
                self._ensure_capacity(max(map(int.__add__, offs, lens)))
            dst, size = self._data, self._size
            p = pos
            for o, ln in zip(offs, lens):
                if o > size:
                    dst[size:o] = 0  # POSIX hole (see pwrite)
                dst[o:o + ln] = buf[p:p + ln]
                if o + ln > size:
                    size = o + ln
                p += ln
            self._size = size
        secs = self.device.extents_time(offs, lens, self.striping, True)
        self.stats.record_write(total, secs, len(offs))
        if trace.TRACE_ON:
            trace.TRACER.add("fs.pwritev", t0, extents=len(offs))
        return total, secs

    def truncate(self, length: int) -> None:
        """Set the file size (extend with zeros or cut)."""
        if length < 0:
            raise FileSystemError(f"negative truncate length {length}")
        with self._mu:
            self._ensure_capacity(length)
            if length > self._size:
                self._data[self._size : length] = 0
            self._size = length

    # ------------------------------------------------------------------
    def lock_range(self, lo: int, hi: int) -> None:
        """Acquire the advisory lock for a read-modify-write region."""
        t0 = trace.now() if trace.TRACE_ON else 0.0
        self.locks.lock(lo, hi)
        self.stats.record_lock()
        if trace.TRACE_ON:
            trace.TRACER.add("fs.lock", t0, lo=lo, hi=hi)

    def unlock_range(self, lo: int, hi: int) -> None:
        self.locks.unlock(lo, hi)

    # ------------------------------------------------------------------
    def contents(self) -> np.ndarray:
        """A copy of the whole file (tests and examples)."""
        with self._mu:
            return self._data[: self._size].copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimFile {self.name!r} size={self.size}>"
