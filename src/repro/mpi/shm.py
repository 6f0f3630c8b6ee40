"""Shared-memory data plane for the multi-process SPMD runtime.

The proc backend (:mod:`repro.mpi.proc`) moves payload bytes between
ranks through POSIX shared memory, not through pipes: a sender
serializes its payload with pickle protocol 5 so that every NumPy
buffer is carried *out of band*, then lays metadata and raw buffers
into one :class:`multiprocessing.shared_memory.SharedMemory` segment.
Receivers attach the segment by name and reconstruct the object with
writable copies of the buffers.  Only the segment *name* (a short
string) ever crosses a queue.

Wire format of one segment::

    [u64 meta_len][u32 nbufs] [meta: pickle-5 bytes]
    ([u64 buf_len][buf bytes]) * nbufs

All integers little-endian.  ``meta`` is the pickle stream with its
out-of-band buffers stripped; the ``nbufs`` buffers follow in callback
order, which is the order ``pickle.loads(..., buffers=...)`` consumes
them.

Lifecycle: each segment is created by exactly one rank and unlinked by
that rank after a barrier guarantees every peer has read it.  Python's
per-process ``resource_tracker`` would otherwise double-track (and
noisily "clean up") segments whose lifetime we manage explicitly, so
every create/attach immediately unregisters from it.  The parent
harness additionally sweeps leftover ``/dev/shm`` entries of a run's
namespace on teardown, so a crashed rank cannot leak segments.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import pickle
import struct
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Any, List, Tuple

from repro.errors import MPIRuntimeError

__all__ = [
    "FileCounter",
    "ShmCounter",
    "read_segment",
    "serialize",
    "unlink_segment",
    "write_segment",
]

_HEADER = struct.Struct("<QI")
_BUFLEN = struct.Struct("<Q")


_tracker_mu = threading.Lock()


@contextlib.contextmanager
def _untracked():
    """Open a ``SharedMemory`` without resource-tracker registration.

    Segment lifetime is managed by the runtime (explicit unlink after a
    barrier, plus a parent-side sweep) — per-process tracking would
    both double-unlink live segments at child exit and flood stderr
    with unregister bookkeeping errors, because under fork all ranks
    share one tracker process.  Python 3.13 grew ``track=False`` for
    exactly this; on 3.11 the registration hook is stubbed out instead.
    """
    with _tracker_mu:
        orig_reg = resource_tracker.register
        orig_unreg = resource_tracker.unregister
        resource_tracker.register = lambda *a, **k: None
        resource_tracker.unregister = lambda *a, **k: None
        try:
            yield
        finally:
            resource_tracker.register = orig_reg
            resource_tracker.unregister = orig_unreg


def serialize(obj: Any) -> Tuple[bytes, List[memoryview], int]:
    """Pickle ``obj`` with out-of-band buffers.

    Returns ``(meta, raw_buffers, total_segment_bytes)``.
    """
    picked: List[pickle.PickleBuffer] = []
    meta = pickle.dumps(obj, protocol=5, buffer_callback=picked.append)
    raws = [pb.raw() for pb in picked]
    total = _HEADER.size + len(meta) + sum(
        _BUFLEN.size + r.nbytes for r in raws
    )
    return meta, raws, total


def write_segment(name: str, obj: Any) -> int:
    """Create segment ``name`` holding ``obj``; returns its byte size."""
    meta, raws, total = serialize(obj)
    try:
        with _untracked():
            seg = shared_memory.SharedMemory(name=name, create=True,
                                             size=max(total, 1))
    except FileExistsError:
        raise MPIRuntimeError(
            f"shared-memory segment {name!r} already exists (stale "
            "segment from a crashed run? remove it from /dev/shm)"
        ) from None
    try:
        buf = seg.buf
        _HEADER.pack_into(buf, 0, len(meta), len(raws))
        pos = _HEADER.size
        buf[pos:pos + len(meta)] = meta
        pos += len(meta)
        for r in raws:
            _BUFLEN.pack_into(buf, pos, r.nbytes)
            pos += _BUFLEN.size
            buf[pos:pos + r.nbytes] = r  # .raw() views are 1-D bytes
            pos += r.nbytes
    finally:
        seg.close()
    return total


def read_segment(name: str) -> Any:
    """Attach segment ``name`` and reconstruct its object.

    Buffers come back as *writable, independent* copies (``bytearray``
    backed), so a receiver may mutate a received array without touching
    the sender's memory — matching the by-value semantics of a real MPI
    message.
    """
    try:
        with _untracked():
            seg = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        raise MPIRuntimeError(
            f"shared-memory segment {name!r} vanished before it was "
            "read (sender died?)"
        ) from None
    try:
        buf = seg.buf
        meta_len, nbufs = _HEADER.unpack_from(buf, 0)
        pos = _HEADER.size
        meta = bytes(buf[pos:pos + meta_len])
        pos += meta_len
        bufs: List[bytearray] = []
        for _ in range(nbufs):
            (ln,) = _BUFLEN.unpack_from(buf, pos)
            pos += _BUFLEN.size
            bufs.append(bytearray(buf[pos:pos + ln]))
            pos += ln
        return pickle.loads(meta, buffers=bufs)
    finally:
        seg.close()


def unlink_segment(name: str) -> None:
    """Remove segment ``name`` (idempotent)."""
    try:
        with _untracked():
            seg = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return
    seg.close()
    try:
        with _untracked():  # unlink() also pokes the tracker
            seg.unlink()
    except FileNotFoundError:  # pragma: no cover - racing sweep
        pass


class ShmCounter:
    """Cross-process shared integer with ``get``/``set``/``add``.

    Wraps a pre-allocated ``multiprocessing.Value('q')`` (created by the
    parent before fork, inherited by every rank).  ``add`` is the
    fetch-and-add the shared file pointer needs: it returns the value
    *before* the increment, atomically.
    """

    def __init__(self, value) -> None:
        self._val = value

    def get(self) -> int:
        with self._val.get_lock():
            return self._val.value

    def set(self, v: int) -> None:
        with self._val.get_lock():
            self._val.value = v

    def add(self, delta: int) -> int:
        with self._val.get_lock():
            old = self._val.value
            self._val.value = old + delta
            return old


class FileCounter:
    """Cross-process shared integer backed by a small file.

    Unlike :class:`ShmCounter` this needs no pre-fork allocation —
    every process just opens the same path — which is what
    sub-communicators created *after* the ranks forked must use.
    Atomicity comes from an exclusive ``fcntl`` lock around each
    read-modify-write.  Pickles by path (each process holds its own
    descriptor).
    """

    _INT = struct.Struct("<q")

    def __init__(self, path: str) -> None:
        self.path = path
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o600)

    def __reduce__(self):
        return (FileCounter, (self.path,))

    @contextlib.contextmanager
    def _locked(self):
        fcntl.lockf(self._fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.lockf(self._fd, fcntl.LOCK_UN)

    def _read(self) -> int:
        data = os.pread(self._fd, self._INT.size, 0)
        return self._INT.unpack(data)[0] if len(data) == self._INT.size \
            else 0

    def get(self) -> int:
        with self._locked():
            return self._read()

    def set(self, v: int) -> None:
        with self._locked():
            os.pwrite(self._fd, self._INT.pack(v), 0)

    def add(self, delta: int) -> int:
        with self._locked():
            old = self._read()
            os.pwrite(self._fd, self._INT.pack(old + delta), 0)
            return old

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __del__(self):  # pragma: no cover - GC timing
        try:
            self.close()
        except OSError:
            pass
