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
list.  :func:`as_extents` is their shared argument check;
:class:`FileBuffer` is the one implementation of the pair for the
backends whose bytes sit in memory, and adds the *mapped* access
(:meth:`FileBuffer.map_access`): a copy straight into or out of the
file buffer itself, charged as one device op.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

from repro.core.gather import classify, scatter_blocks
from repro.errors import FileSystemError, IOEngineError
from repro.fs.locks import RangeLockManager
from repro.fs.stats import DeviceModel, FileStats
from repro.fs.striping import StripingConfig
from repro.obs import trace

__all__ = ["FileBuffer", "SimFile", "as_extents"]


def as_extents(offsets, lengths, kind: str, room: int):
    """Validated ``(offsets, lengths, total)`` of a vectored ``kind``
    (``"read"``/``"write"``) call on a buffer of ``room`` bytes.

    ``offsets``/``lengths`` are int sequences (lists or int64 arrays);
    the returned ones are int64 arrays, what the copy kernels take.  A
    negative offset raises the same
    :class:`~repro.errors.FileSystemError` as the one-extent call.
    """
    offs = np.asarray(offsets, dtype=np.int64).reshape(-1)
    lens = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if offs.size != lens.size:
        raise FileSystemError(
            f"{kind}: {offs.size} offsets but {lens.size} lengths"
        )
    if offs.size and offs.min() < 0:
        bad = int(offs[np.argmax(offs < 0)])
        raise FileSystemError(f"invalid {kind} offset {bad}")
    if lens.size and lens.min() < 0:
        bad = int(lens[np.argmax(lens < 0)])
        raise FileSystemError(f"negative {kind} length {bad}")
    total = int(lens.sum())
    if total > room:
        raise FileSystemError(
            f"{kind} of {total} bytes overruns a {room}-byte buffer"
        )
    return offs, lens, total


#: The byte a mapped write puts at its last offset to grow the file;
#: its copy overwrites it with the data (see :meth:`FileBuffer.map_access`).
_ZERO = np.zeros(1, dtype=np.uint8)


class FileBuffer:
    """The vectored extent calls and the mapped access of a file held
    in one byte buffer — a :class:`SimFile`'s array, an
    :class:`~repro.fs.posix.OsFile`'s mapping: one kernel copy per
    call, under the backend's ``_mu``.  A backend provides
    ``_mapping()`` (the file size and a byte array whose first ``size``
    bytes are the file), ``_buffer(size)`` (such an array for ``size``
    bytes) and ``_grow(end, last)`` (make the file ``end`` bytes, holes
    zero, before a write whose byte at ``end - 1`` is ``last`` — a
    one-byte array — lands).  The buffer is fetched anew on every call:
    ``SimFile`` reallocates its array to grow, ``OsFile`` remaps.
    """

    def map_access(self, lo: int, hi: int, nbytes: int, write: bool,
                   secs, shift: int, copy, other, pos, strict) -> tuple:
        """One access of ``nbytes`` of the file's bytes in ``[lo, hi)``,
        copied by ``copy(buf, base, other, pos, not write)`` under
        ``_mu`` — a pair kernel's copy core, say: file byte ``f +
        shift`` is ``buf[base + f]`` — a fixed arity, since forwarding
        ``*args`` cost 0.16 µs a call.  Normally ``buf`` is the file
        buffer itself, so a write's copy lands in the file and a read's
        comes out of it — no window, no pre-read, no write-back.  The
        access's bytes are its own, so it takes no range lock.

        A write ending past end-of-file grows the file to ``hi`` first:
        :class:`SimFile` zero-extends, :class:`~repro.fs.posix.OsFile`
        writes the byte at ``hi - 1`` — the access's own, which its copy
        then overwrites — so the growth can neither shrink the file nor
        land on another rank's bytes.  A read ending past end-of-file
        copies out of a zero-padded copy of ``[lo, hi)`` (``base``
        ``shift - lo``), what a sieving window reads — unless it is
        ``strict`` (a contiguous view's read), which then fails as a
        short read, with the size it saw under the same ``_mu`` as the
        copy it would have made.  Either way ``copy`` only touches
        ``[lo, hi)`` of a buffer that holds it.

        Priced as one device op moving ``nbytes`` over the stripes
        ``[lo, hi)`` spans: ``secs`` simulated seconds if the caller has
        them, else the device model's.  Returns the seconds and the
        ``perf_counter()`` at the copy's end.  The caller bills them, as
        one read or write in :class:`FileStats`: the executor's mapped
        op through ``record_read``/``record_write``, a bound call on its
        tally (:mod:`repro.tally`) — so the one lock a mapped access
        takes is ``_mu``, for the copy.
        """
        if secs is None:
            st = self.striping
            streams = 1 if st.ndisks == 1 else st.streams_for(lo, hi - lo)
            secs = (self.device.write_time if write
                    else self.device.read_time)(nbytes, streams)
        t0 = trace.now() if trace.TRACE_ON else 0.0
        mu = self._mu
        mu.acquire()  # not ``with``: a context manager costs more
        try:
            size, buf = self._mapping()
            if hi <= size:
                copy(buf, shift, other, pos, not write)
            elif write:
                self._grow(hi, _ZERO)
                copy(self._buffer(hi), shift, other, pos, False)
            elif strict:
                raise IOEngineError(f"short read: {max(size - lo, 0)} of "
                                    f"{nbytes} bytes at {lo - shift}")
            else:
                win = np.zeros(hi - lo, dtype=np.uint8)
                if size > lo:
                    win[:size - lo] = buf[lo:size]
                copy(win, shift - lo, other, pos, True)
            copied = perf_counter()
        finally:
            mu.release()
        if t0:
            trace.TRACER.add("fs.map", t0, bytes=nbytes, write=write)
        return secs, copied

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
        got, short = lens, None
        with self._mu:
            size, mem = self._mapping()
            if int((offs + lens).max(initial=0)) <= size:
                if total:
                    classify(offs, lens).gather(mem, 0, out, pos)
            else:
                # Copy what the file holds and zero the rest; bytes past
                # end-of-file are never touched (mapped, they would
                # fault).
                got = np.minimum(np.maximum(size - offs, 0), lens)
                out[pos:pos + total] = 0
                keep = got > 0
                dst = np.cumsum(lens) - lens
                classify(offs[keep], got[keep],
                         other=dst[keep]).gather(mem, 0, out, pos)
                i = int(np.argmax(got < lens))
                if got[i] < lens[i]:
                    short = (i, int(got[i]))
                total = int(got.sum())
        secs = self.device.extents_time(offs, got, self.striping, False)
        self.stats.record_read(total, secs, offs.size)
        if trace.TRACE_ON:
            trace.TRACER.add("fs.preadv", t0, extents=offs.size)
        return short, secs

    def pwritev_blocks(self, offsets, lengths, data: np.ndarray,
                       pos: int = 0):
        """Write ``data[pos + sum(lengths[:i]):]`` to extent ``i`` for
        every ``i``, in list order (a later extent wins an overlap).

        Returns ``(nbytes, seconds)``: bytes written and the simulated
        device time charged (one write per extent).
        """
        buf = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        offs, lens, total = as_extents(offsets, lengths, "write",
                                       buf.size - pos)
        t0 = trace.now() if trace.TRACE_ON else 0.0
        wo, wl = offs, lens
        if not lens.all():
            # A zero-length extent writes nothing: it does not grow the
            # file, nor reach the kernel's span check.
            wo, wl = offs[lens > 0], lens[lens > 0]
        with self._mu:
            size, _ = self._mapping()
            end = int((wo + wl).max(initial=size))
            if end > size:
                # The last byte of the extent that ends the file.
                p = pos + int(wl[:int(np.argmax(wo + wl)) + 1].sum())
                self._grow(end, buf[p - 1:p])
            scatter_blocks(self._buffer(end), wo, wl, buf, pos)
        secs = self.device.extents_time(offs, lens, self.striping, True)
        self.stats.record_write(total, secs, offs.size)
        if trace.TRACE_ON:
            trace.TRACER.add("fs.pwritev", t0, extents=offs.size)
        return total, secs


class SimFile(FileBuffer):
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
        self.locks = RangeLockManager()
        self._data = np.zeros(max(initial_capacity, 16), dtype=np.uint8)
        self._size = 0
        self._mu = threading.Lock()
        self.stats = FileStats()

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

    # ------------------------------------------------------------------
    def pread(self, offset: int, nbytes: int) -> np.ndarray:
        """Read up to ``nbytes`` at absolute ``offset``; returns a copy
        (possibly shorter at end-of-file)."""
        if offset < 0 or nbytes < 0:
            raise FileSystemError(
                f"invalid read [{offset}, {offset + nbytes})"
            )
        with self._mu:
            out = self._data[offset:min(offset + nbytes, self._size)].copy()
        streams = self.striping.streams_for(offset, out.size)
        self.stats.record_read(out.size, self.device.read_time(out.size, streams))
        return out

    def pread_into(self, offset: int, out: np.ndarray) -> int:
        """Read into a caller buffer; returns bytes read."""
        if offset < 0:
            raise FileSystemError(f"invalid read offset {offset}")
        t0 = trace.now() if trace.TRACE_ON else 0.0
        with self._mu:
            n = max(min(offset + out.size, self._size) - offset, 0)
            out[:n] = self._data[offset:offset + n]
        st = self.striping
        streams = 1 if st.ndisks == 1 else st.streams_for(offset, n)
        self.stats.record_read(n, self.device.read_time(n, streams))
        if trace.TRACE_ON:
            trace.TRACER.add("fs.pread", t0, bytes=n)
        return n

    def pwrite(self, offset: int, data: np.ndarray) -> int:
        """Write ``data`` at absolute ``offset``, extending the file as
        needed (a zero-byte write, as in POSIX, does not); returns bytes
        written."""
        if offset < 0:
            raise FileSystemError(f"invalid write offset {offset}")
        buf = data.view(np.uint8).reshape(-1)
        n = buf.size
        t0 = trace.now() if trace.TRACE_ON else 0.0
        with self._mu:
            if n and offset + n > self._size:
                self._grow(offset + n)
            self._data[offset : offset + n] = buf
        st = self.striping
        streams = 1 if st.ndisks == 1 else st.streams_for(offset, n)
        self.stats.record_write(n, self.device.write_time(n, streams))
        if trace.TRACE_ON:
            trace.TRACER.add("fs.pwrite", t0, bytes=n)
        return n

    # The file buffer (see FileBuffer), used under _mu.
    def _mapping(self):
        return self._size, self._data

    def _buffer(self, size: int) -> np.ndarray:
        return self._data

    def _grow(self, end: int, last=None) -> None:
        """Extend the file to ``end`` with zeros (a cut may have left
        old bytes past ``_size``); the array doubles when full."""
        cap = self._data.size
        if end > cap:
            while cap < end:
                cap *= 2
            grown = np.zeros(cap, dtype=np.uint8)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        else:
            self._data[self._size : end] = 0
        self._size = end

    def truncate(self, length: int) -> None:
        """Set the file size (extend with zeros or cut)."""
        if length < 0:
            raise FileSystemError(f"negative truncate length {length}")
        with self._mu:
            if length > self._size:
                self._grow(length)
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
