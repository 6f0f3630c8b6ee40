"""Striped multi-server storage backend with request shipping.

A :class:`ShardedFileSystem` stripes every logical file round-robin over
``nshards`` *server processes* per the :class:`StripingConfig` geometry:
stripe ``s`` of a file lives on shard ``s % nshards`` at local offset
``(s // nshards) * stripe_size + (off % stripe_size)``.  Each server
wraps an ordinary :class:`~repro.fs.filesystem.OsFileSystem` (or
``SimFileSystem``) holding its shard of the bytes.  The servers run on
:mod:`repro.transport`: a small pickled message protocol over a
unix-domain socket, payloads at or above :data:`SHIP_SHM_THRESHOLD`
out of band through shared memory, one deadline on every reply.

A :class:`ShardedFile` exposes the same surface as
:class:`~repro.fs.simfile.SimFile` / :class:`~repro.fs.posix.OsFile`
(``pread_into``/``pwrite``/``lock_range``/``truncate``/...), so the
whole planner/executor stack runs against it unchanged — every byte of
a plain access becomes per-shard wire requests.  On top of that it
offers the two noncontiguous *request shipping* protocols of
"Noncontiguous I/O through PVFS" (see ``docs/shipping.md``):

* **list-I/O** — the client flattens an access into per-shard
  offset/length lists and ships the exploded lists;
* **datatype-I/O** — the client ships the compact fileview descriptor
  once per (shard, view) and then only ``(view id, data range, file
  delta)`` per access; the *server* flattens on the fly with the same
  :func:`~repro.fs.striping.split_blocks` kernel and the shared
  :class:`~repro.core.fileview_cache.CompactFileview` navigation.

Locking is layered per shard: a thread-level
:class:`~repro.fs.locks.RangeLockManager` arbitrates client
connections inside each server, and the backing file's own lock manager
(real ``fcntl`` locks for the ``os`` flavor, with residual-unlock
bookkeeping) makes the ranges visible on disk.  Every connection tracks
the locks it acquired and releases them in reverse order when the
connection drops, so a dying client cannot strand ranges on surviving
shards.  Deadlock freedom follows from the client-side ordering
discipline: shards are always locked in ascending shard id, ranges in
ascending local offset.

Crash forensics: each server maintains a *beacon file* (8-byte
little-endian round counter, updated via ``pwrite`` so it survives
``SIGKILL``) plus a pid file under the control directory; a client that
finds a shard dead reads the beacon, drops a ``ship_dead_shard``
breadcrumb in the flight recorder and raises
:class:`~repro.errors.FileSystemError`, which aborts the world through
the normal first-failure machinery.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import threading
from typing import Dict, List, Tuple

import numpy as np

from repro import transport
from repro.deadline import recv_timeout
from repro.errors import FileSystemError
from repro.fs.filesystem import OsFileSystem, SimFileSystem
from repro.fs.locks import RangeLockManager
from repro.fs.simfile import as_extents
from repro.fs.stats import DeviceModel, FileStats
from repro.fs.striping import (
    StripingConfig,
    global_size,
    local_size,
    split_blocks,
)
from repro.intervals import union
from repro.obs import flight
from repro.transport import SHIP_SHM_THRESHOLD

__all__ = [
    "SHIP_SHM_THRESHOLD",
    "ShardedFile",
    "ShardedFileSystem",
]

# Modeled wire costs (bytes) — what a compact binary encoding of the
# control messages would occupy.  Used for the descriptor-vs-payload
# accounting of ``bench_shipping.py``; the actual pickle stream is an
# implementation convenience, not the thing being measured.
WIRE_HEADER_BYTES = 32      # op, path id, round, count
WIRE_EXTENT_BYTES = 16      # (offset, length) int64 pair
WIRE_DT_PARAM_BYTES = 48    # (view id, d_lo, d_hi, file delta)

_BEACON = struct.Struct("<q")


def _ctrl_dir(root: str) -> str:
    """Short, root-derived control directory (unix socket paths are
    limited to ~100 chars; pytest tmp roots routinely exceed that)."""
    digest = hashlib.blake2s(
        os.path.abspath(str(root)).encode()).hexdigest()[:12]
    return os.path.join(tempfile.gettempdir(), f"shipd-{digest}")


# ----------------------------------------------------------------------
# Server process.
# ----------------------------------------------------------------------

class _ServerState(transport.Handler):
    """One shard server: its backing store, beacon, installed views,
    lock managers and counters."""

    def __init__(self, root, ctrl, shard, nshards, stripe_size, flavor):
        if flavor == "os":
            self.fs = OsFileSystem(os.path.join(root, f"shard{shard}"))
        else:
            self.fs = SimFileSystem()
        self.beacon_fd = os.open(os.path.join(ctrl, f"beacon.{shard}"),
                                 os.O_RDWR | os.O_CREAT, 0o644)
        os.pwrite(self.beacon_fd, _BEACON.pack(-1), 0)
        with open(os.path.join(ctrl, f"pid.{shard}"), "w") as fh:
            fh.write(str(os.getpid()))
        self.shard = shard
        self.nshards = nshards
        self.ss = stripe_size
        self.last_round = -1
        self.bmu = threading.Lock()
        self.views: Dict[tuple, object] = {}
        self.vmu = threading.Lock()
        # Thread-level lock managers arbitrating client connections
        # (fcntl never conflicts between threads of one process), plus a
        # published currently-held list for introspection.
        self.tlocks: Dict[str, RangeLockManager] = {}
        self.held_pub: Dict[str, List[Tuple[int, int]]] = {}
        self.lmu = threading.Lock()
        self.cmu = threading.Lock()
        self.counters = {
            "requests": 0, "reads": 0, "writes": 0,
            "bytes_read": 0, "bytes_written": 0,
            "lock_acquires": 0, "lock_releases": 0, "lock_bytes": 0,
            "view_installs": 0, "dt_reads": 0, "dt_writes": 0,
        }

    def bump(self, **deltas) -> None:
        with self.cmu:
            for key, d in deltas.items():
                self.counters[key] += d

    def beacon(self, rnd) -> None:
        if rnd is None or rnd < 0:
            return
        with self.bmu:
            if rnd > self.last_round:
                self.last_round = rnd
                os.pwrite(self.beacon_fd, _BEACON.pack(rnd), 0)

    def dispatch(self, msg, held):
        return _dispatch(self, msg, held)

    def dropped(self, held):
        # A dropped connection must not strand locks on this shard:
        # release everything it still holds, in reverse acquire order.
        for path, lo, hi in reversed(held):
            try:
                _unlock_one(self, path, lo, hi)
            except Exception:
                pass

    def close(self):
        if hasattr(self.fs, "close"):
            self.fs.close()
        os.close(self.beacon_fd)


def _read_extents(st: _ServerState, path, loffs, lens, rnd):
    """Read the extents into one payload with the backing file's
    vectored call (past-EOF bytes zero-filled); returns ``(payload_ref,
    short)`` where ``short`` is ``None`` or the ``(payload position,
    local offset, length, bytes got)`` of the first short read — enough
    for the client to reconstruct the exact failing extent whatever its
    own extent granularity is."""
    f = st.fs.create(path, exist_ok=True)
    loffs = np.asarray(loffs, dtype=np.int64).reshape(-1)
    lens = np.asarray(lens, dtype=np.int64).reshape(-1)
    total = int(lens.sum())
    buf = np.empty(total, dtype=np.uint8)
    first, _secs = f.preadv_blocks(loffs, lens, buf)
    short = None
    if first is not None:
        i, got = first
        short = (int(lens[:i].sum()), int(loffs[i]), int(lens[i]), got)
    st.beacon(rnd)
    st.bump(reads=1, bytes_read=total)
    return buf, short


def _write_extents(st: _ServerState, path, loffs, lens, payload, rnd):
    f = st.fs.create(path, exist_ok=True)
    n, _secs = f.pwritev_blocks(loffs, lens, payload)
    st.beacon(rnd)
    st.bump(writes=1, bytes_written=n)
    return n


def _shard_parts(st: _ServerState, vid, d_lo, d_hi, fdelta):
    """Server-side on-the-fly flattening for datatype-I/O: walk the
    installed compact fileview over ``[d_lo, d_hi)`` data bytes and keep
    this shard's sub-extents."""
    with st.vmu:
        cv = st.views.get(vid)
    if cv is None:
        raise FileSystemError(
            f"shard {st.shard}: no fileview installed for {vid!r}"
        )
    offs, lens = cv.blocks_for_data(d_lo, d_hi)
    if fdelta:
        offs = offs + fdelta
    parts = split_blocks(offs, lens, st.ss, st.nshards).get(st.shard)
    if parts is None:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return parts[0], parts[1]


def _lock_ranges(st: _ServerState, path, ranges, held):
    f = st.fs.create(path, exist_ok=True)
    with st.lmu:
        tl = st.tlocks.setdefault(path, RangeLockManager())
    nbytes = 0
    for lo, hi in ranges:
        tl.lock(lo, hi)
        try:
            f.lock_range(lo, hi)
        except BaseException:
            tl.unlock(lo, hi)
            raise
        held.append((path, lo, hi))
        with st.lmu:
            st.held_pub.setdefault(path, []).append((lo, hi))
        nbytes += hi - lo
    st.bump(lock_acquires=len(ranges), lock_bytes=nbytes)


def _unlock_one(st: _ServerState, path, lo, hi):
    f = st.fs.create(path, exist_ok=True)
    f.unlock_range(lo, hi)
    with st.lmu:
        tl = st.tlocks.get(path)
        pub = st.held_pub.get(path)
        if pub is not None and (lo, hi) in pub:
            pub.remove((lo, hi))
    if tl is not None:
        tl.unlock(lo, hi)
    st.bump(lock_releases=1)


def _dispatch(st: _ServerState, msg, held):
    op = msg[0]
    st.bump(requests=1)
    if op == "ping":
        return st.shard
    if op == "read":
        _, path, loffs, lens, rnd = msg
        return _read_extents(st, path, loffs, lens, rnd)
    if op == "write":
        _, path, loffs, lens, ref, rnd = msg
        return _write_extents(st, path, loffs, lens, ref, rnd)
    if op == "view":
        _, vid, cv = msg
        with st.vmu:
            st.views[vid] = cv
        st.bump(view_installs=1)
        return None
    if op == "dt_read":
        _, path, vid, d_lo, d_hi, fdelta, rnd = msg
        loffs, lens = _shard_parts(st, vid, d_lo, d_hi, fdelta)
        st.bump(dt_reads=1)
        return _read_extents(st, path, loffs, lens, rnd)
    if op == "dt_write":
        _, path, vid, d_lo, d_hi, fdelta, ref, rnd = msg
        loffs, lens = _shard_parts(st, vid, d_lo, d_hi, fdelta)
        st.bump(dt_writes=1)
        return _write_extents(st, path, loffs, lens, ref, rnd)
    if op == "lock":
        _, path, ranges = msg
        _lock_ranges(st, path, ranges, held)
        return None
    if op == "unlock":
        _, path, ranges = msg
        for lo, hi in reversed(ranges):
            _unlock_one(st, path, lo, hi)
            if (path, lo, hi) in held:
                held.remove((path, lo, hi))
        return None
    if op == "locks_held":
        _, path = msg
        with st.lmu:
            pub = sorted(st.held_pub.get(path, []))
        f = st.fs.create(path, exist_ok=True)
        residual = getattr(f, "locks", None)
        os_held = sorted(residual.held_by_me()) if residual is not None \
            else []
        return {"ranges": pub, "backing": os_held}
    if op == "size":
        if not st.fs.exists(msg[1]):
            return 0
        return st.fs.create(msg[1], exist_ok=True).size
    if op == "truncate":
        st.fs.create(msg[1], exist_ok=True).truncate(msg[2])
        return None
    if op == "create":
        st.fs.create(msg[1], exist_ok=True)
        return None
    if op == "exists":
        return st.fs.exists(msg[1])
    if op == "unlink":
        st.fs.unlink(msg[1])
        return None
    if op == "listdir":
        return st.fs.listdir()
    if op == "counters":
        with st.cmu:
            return dict(st.counters)
    if op == "reset_counters":
        with st.cmu:
            for key in st.counters:
                st.counters[key] = 0
        return None
    raise FileSystemError(f"shard {st.shard}: unknown wire op {op!r}")


# ----------------------------------------------------------------------
# Client side.
# ----------------------------------------------------------------------

class ShardedFileSystem:
    """A namespace of files striped over ``nshards`` server processes.

    Presents the :class:`~repro.fs.filesystem.SimFileSystem` surface, so
    ``File.open`` and the engines use it like any other backend.  The
    instance that spawns the servers owns them (``close`` shuts them
    down); pickled or forked copies are clients only.  Striping geometry
    is fixed per file system — per-file ``striping`` overrides are
    ignored, as on real parallel file systems where the layout is a
    mount property.
    """

    def __init__(
        self,
        root: str,
        nshards: int = 2,
        stripe_size: int = 1 << 16,
        flavor: str = "os",
        device: DeviceModel | None = None,
        requires_ol_lists: bool = False,
        spawn: bool = True,
    ) -> None:
        if flavor not in ("os", "sim"):
            raise FileSystemError(f"unknown shard flavor {flavor!r}")
        self.root = str(root)
        self.nshards = int(nshards)
        self.stripe_size = int(stripe_size)
        self.flavor = flavor
        self.device = device
        self.striping = StripingConfig(ndisks=self.nshards,
                                       stripe_size=self.stripe_size)
        self.requires_ol_lists = requires_ol_lists
        self.ctrl = _ctrl_dir(self.root)
        self._files: Dict[str, "ShardedFile"] = {}
        self._mu = threading.Lock()
        socks = [os.path.join(self.ctrl, f"{k}.sock")
                 for k in range(self.nshards)]
        names = [f"shard {k} server" for k in range(self.nshards)]
        #: This process' channels to the servers (:mod:`repro.transport`).
        self.wire = transport.Peers(socks, names, lost=self._shard_dead)
        self._servers: List[transport.Server] = []
        if spawn:
            os.makedirs(self.root, exist_ok=True)
            os.makedirs(self.ctrl, exist_ok=True)
            for k in range(self.nshards):
                self._servers.append(transport.Server(
                    socks[k], names[k], FileSystemError, _ServerState,
                    self.root, self.ctrl, k, self.nshards,
                    self.stripe_size, self.flavor))

    # -- pickling: configuration only; copies are non-owning clients ---
    def __getstate__(self):
        return (self.root, self.nshards, self.stripe_size, self.flavor,
                self.device, self.requires_ol_lists)

    def __setstate__(self, state):
        (root, nshards, stripe_size, flavor, device, req_ol) = state
        self.__init__(root, nshards=nshards, stripe_size=stripe_size,
                      flavor=flavor, device=device,
                      requires_ol_lists=req_ol, spawn=False)

    def close(self) -> None:
        """Shut servers down (owner) and drop this process' connections."""
        self.wire.close()
        for srv in self._servers:
            srv.stop()

    def _shard_dead(self, k: int, exc) -> None:
        """A shard stopped answering: breadcrumb its beacon and abort."""
        last = self.shard_last_round(k)
        flight.note("ship_dead_shard", shard=k, last_round=last)
        raise FileSystemError(
            f"shard {k} server dead or unreachable "
            f"(last completed round {last}): {exc!r}"
        ) from exc

    # -- introspection (tests, benchmarks, fault injection) ------------
    def server_pid(self, k: int) -> int:
        with open(os.path.join(self.ctrl, f"pid.{k}")) as fh:
            return int(fh.read())

    def shard_last_round(self, k: int) -> int:
        """Last round the shard served, read from its crash-safe beacon
        file (works even after the server was SIGKILLed)."""
        try:
            with open(os.path.join(self.ctrl, f"beacon.{k}"), "rb") as fh:
                raw = fh.read(_BEACON.size)
        except FileNotFoundError:
            return -1
        if len(raw) < _BEACON.size:
            return -1
        return _BEACON.unpack(raw)[0]

    def shard_last_rounds(self) -> List[int]:
        return [self.shard_last_round(k) for k in range(self.nshards)]

    def shard_counters(self, k: int) -> dict:
        return self.wire.request(k, ("counters",))

    def shard_locks_held(self, k: int, path: str) -> dict:
        return self.wire.request(k, ("locks_held", path))

    # -- namespace surface ---------------------------------------------
    def create(self, path: str, exist_ok: bool = True,
               striping: StripingConfig | None = None) -> "ShardedFile":
        # ``striping`` is accepted for surface compatibility but the
        # shard geometry is a property of the file system (see class
        # docstring).
        del striping
        with self._mu:
            f = self._files.get(path)
        if f is not None:
            if not exist_ok:
                raise FileSystemError(f"file exists: {path!r}")
            return f
        if not exist_ok and self.wire.request(0, ("exists", path)):
            raise FileSystemError(f"file exists: {path!r}")
        for k in range(self.nshards):
            self.wire.post(k, ("create", path))
        for k in range(self.nshards):
            self.wire.collect(k)
        with self._mu:
            f = self._files.setdefault(path, ShardedFile(self, path))
        return f

    def lookup(self, path: str) -> "ShardedFile":
        with self._mu:
            f = self._files.get(path)
        if f is not None:
            return f
        if not self.wire.request(0, ("exists", path)):
            raise FileSystemError(f"no such file: {path!r}")
        return self.create(path)

    def exists(self, path: str) -> bool:
        return bool(self.wire.request(0, ("exists", path)))

    def unlink(self, path: str) -> None:
        with self._mu:
            self._files.pop(path, None)
        for k in range(self.nshards):
            self.wire.request(k, ("unlink", path))

    def listdir(self) -> list:
        return self.wire.request(0, ("listdir",))

    def total_sim_time(self) -> float:
        with self._mu:
            return sum(f.stats.sim_time for f in self._files.values())

    def reset_stats(self) -> None:
        with self._mu:
            for f in self._files.values():
                f.stats.reset()
        for k in range(self.nshards):
            self.wire.request(k, ("reset_counters",))


def _reopen_sharded(state, path):
    fs = ShardedFileSystem.__new__(ShardedFileSystem)
    fs.__setstate__(state)
    return fs.create(path)


class ShardedFile:
    """One logical file striped over the shard servers.

    Implements the :class:`~repro.fs.simfile.SimFile` surface — every
    plain access turns into per-shard wire requests — plus the request-
    shipping entry points ``ship_*`` used by :mod:`repro.io.shipping`.
    Per-shard wire accounting lives in :attr:`wire` (one dict per shard:
    requests / request_bytes / payload_bytes / view_bytes).
    """

    def __init__(self, fs: ShardedFileSystem, name: str) -> None:
        self.fs = fs
        self.name = name
        self.device = fs.device or DeviceModel(
            read_bandwidth=float("inf"), write_bandwidth=float("inf"),
            latency=0.0)
        self.striping = fs.striping
        self.stats = FileStats()
        self.wire = [
            {"requests": 0, "request_bytes": 0, "payload_bytes": 0,
             "view_bytes": 0}
            for _ in range(fs.nshards)
        ]
        self._wmu = threading.Lock()
        #: ``(shard, vid) -> True`` (installed) or a ``threading.Event``
        #: (install in flight — waiters block on it, so no rank can post
        #: a datatype request ahead of the view it names).
        self._views_sent: Dict[tuple, object] = {}
        self._vmu = threading.Lock()

    def __reduce__(self):
        return (_reopen_sharded, (self.fs.__getstate__(), self.name))

    def _count(self, k: int, requests=0, request_bytes=0, payload_bytes=0,
               view_bytes=0) -> None:
        with self._wmu:
            w = self.wire[k]
            w["requests"] += requests
            w["request_bytes"] += request_bytes
            w["payload_bytes"] += payload_bytes
            w["view_bytes"] += view_bytes

    def wire_totals(self) -> dict:
        with self._wmu:
            tot = {key: 0 for key in self.wire[0]}
            for w in self.wire:
                for key, v in w.items():
                    tot[key] += v
        return tot

    # -- SimFile surface -----------------------------------------------
    @property
    def size(self) -> int:
        ks = range(self.fs.nshards)
        for k in ks:
            self.fs.wire.post(k, ("size", self.name))
            self._count(k, requests=1, request_bytes=WIRE_HEADER_BYTES)
        sizes = [self.fs.wire.collect(k) for k in ks]
        return global_size(sizes, self.fs.stripe_size, self.fs.nshards)

    def pread(self, offset: int, nbytes: int) -> np.ndarray:
        if offset < 0 or nbytes < 0:
            raise FileSystemError(
                f"invalid read [{offset}, {offset + nbytes})"
            )
        out = np.zeros(nbytes, dtype=np.uint8)
        got = self.pread_into(offset, out)
        return out[:got]

    def pread_into(self, offset: int, out: np.ndarray) -> int:
        n = out.nbytes
        short, _secs = self.preadv_blocks([offset], [n], out)
        return n if short is None else short[1]

    def pwrite(self, offset: int, data: np.ndarray) -> int:
        d = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        return self.pwritev_blocks([offset], [d.size], d)[0]

    def preadv_blocks(self, offsets, lengths, out: np.ndarray,
                      pos: int = 0):
        """Vectored read (contract: :meth:`SimFile.preadv_blocks`): the
        extents are split at stripe boundaries and grouped per shard by
        :func:`split_blocks`, then one ``read`` request per shard
        carries that shard's whole list.  The servers report only their
        first short sub-extent; that is enough for the exact first short
        extent of the list (every short sub-extent belongs to a short
        extent, so the earliest server report lies in the earliest short
        extent)."""
        arr = out.view(np.uint8).reshape(-1)
        offs, lens, total = as_extents(offsets, lengths, "read",
                                       arr.size - pos)
        per = split_blocks(offs, lens, self.fs.stripe_size, self.fs.nshards)
        shards = sorted(per)
        for k in shards:
            loffs, llens, _d = per[k]
            self.fs.wire.post(k, ("read", self.name, loffs, llens, -1))
            self._count(k, requests=1,
                        request_bytes=WIRE_HEADER_BYTES
                        + WIRE_EXTENT_BYTES * loffs.size)
        first = None  # data-stream position of the earliest short byte
        for k in shards:
            payload, short = self.fs.wire.collect(k)
            self._count(k, payload_bytes=payload.nbytes)
            _lo, llens, doffs = per[k]
            q = 0
            for ln, doff in zip(llens.tolist(), doffs.tolist()):
                arr[pos + doff:pos + doff + ln] = payload[q:q + ln]
                if short is not None and short[0] == q:
                    d = doff + short[3]
                    if first is None or d < first:
                        first = d
                q += ln
        short = None
        if first is not None:
            ends = np.cumsum(lens)
            i = int(np.searchsorted(ends, first, side="right"))
            short = (i, first - int(ends[i]) + lens[i])
        secs = self.device.extents_time(offs, lens, self.striping, False)
        self.stats.record_read(total, secs, len(offs))
        return short, secs

    def pwritev_blocks(self, offsets, lengths, data: np.ndarray,
                       pos: int = 0):
        """Vectored write (contract: :meth:`SimFile.pwritev_blocks`):
        one ``write`` request per shard carrying that shard's extents
        and their bytes, all shards in flight at once."""
        buf = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        offs, lens, total = as_extents(offsets, lengths, "write",
                                       buf.size - pos)
        per = split_blocks(offs, lens, self.fs.stripe_size, self.fs.nshards)
        shards = sorted(per)
        for k in shards:
            loffs, llens, doffs = per[k]
            payload = np.empty(int(llens.sum()), dtype=np.uint8)
            q = 0
            for ln, doff in zip(llens.tolist(), doffs.tolist()):
                payload[q:q + ln] = buf[pos + doff:pos + doff + ln]
                q += ln
            self.fs.wire.post(k, ("write", self.name, loffs, llens,
                                  payload, -1))
            self._count(k, requests=1,
                        request_bytes=WIRE_HEADER_BYTES
                        + WIRE_EXTENT_BYTES * loffs.size,
                        payload_bytes=payload.nbytes)
        for k in shards:
            self.fs.wire.collect(k)
        secs = self.device.extents_time(offs, lens, self.striping, True)
        self.stats.record_write(total, secs, len(offs))
        return total, secs

    def truncate(self, length: int) -> None:
        if length < 0:
            raise FileSystemError(f"negative truncate length {length}")
        ks = range(self.fs.nshards)
        for k in ks:
            self.fs.wire.post(k, ("truncate", self.name, local_size(
                k, length, self.fs.stripe_size, self.fs.nshards)))
            self._count(k, requests=1, request_bytes=WIRE_HEADER_BYTES)
        for k in ks:
            self.fs.wire.collect(k)

    def _lock_plan(self, lo: int, hi: int):
        """Per-shard coalesced local ranges for a global ``[lo, hi)``."""
        per = split_blocks([lo], [hi - lo], self.fs.stripe_size,
                           self.fs.nshards)
        return {k: [(o, o + n) for o, n in
                    union(zip(loffs.tolist(), lens.tolist()))]
                for k, (loffs, lens, _d) in per.items()}

    def lock_range(self, lo: int, hi: int) -> None:
        # Sequential, ascending shard order: the global ordering
        # discipline that keeps multi-shard locking deadlock-free.
        done = []
        try:
            for k, ranges in sorted(self._lock_plan(lo, hi).items()):
                self.fs.wire.request(k, ("lock", self.name, ranges))
                done.append((k, ranges))
                self._count(k, requests=1,
                            request_bytes=WIRE_HEADER_BYTES
                            + WIRE_EXTENT_BYTES * len(ranges))
        except BaseException:
            # Mid-acquisition failure (e.g. a dead shard): the executor
            # never sees this lock as held, so roll back the shards we
            # did acquire here, or other ranks deadlock on them.
            for k, ranges in reversed(done):
                try:
                    self.fs.wire.request(k, ("unlock", self.name, ranges))
                except FileSystemError:
                    pass
            raise
        self.stats.record_lock()

    def unlock_range(self, lo: int, hi: int) -> None:
        for k, ranges in sorted(self._lock_plan(lo, hi).items(),
                                reverse=True):
            try:
                self.fs.wire.request(k, ("unlock", self.name, ranges))
            except FileSystemError:
                # A dead shard's locks died with its server (the OS
                # drops fcntl locks on process exit); keep releasing
                # the survivors' ranges.
                continue
            self._count(k, requests=1,
                        request_bytes=WIRE_HEADER_BYTES
                        + WIRE_EXTENT_BYTES * len(ranges))

    def contents(self) -> np.ndarray:
        n = self.size
        out = np.zeros(n, dtype=np.uint8)
        if n:
            self.pread_into(0, out)
        return out

    def fsync(self) -> None:
        pass

    # -- request shipping (used by repro.io.shipping) ------------------
    def ship_view(self, k: int, vid, cview) -> int:
        """Install ``cview`` under ``vid`` on shard ``k`` (idempotent);
        returns the wire bytes this install cost (0 if already sent).

        Concurrent callers for the same ``(shard, vid)`` block until the
        first caller's install round trip completes — a rank must never
        post a datatype request naming a view that is still in flight
        from another rank's thread."""
        while True:
            with self._vmu:
                ent = self._views_sent.get((k, vid))
                if ent is True:
                    return 0
                if ent is None:
                    ev = threading.Event()
                    self._views_sent[(k, vid)] = ev
                    break
            if not ent.wait(recv_timeout()):
                raise FileSystemError(
                    f"timed out waiting for fileview install on shard {k}"
                )
        try:
            self.fs.wire.request(k, ("view", vid, cview))
        except BaseException:
            with self._vmu:
                self._views_sent.pop((k, vid), None)
            ev.set()
            raise
        with self._vmu:
            self._views_sent[(k, vid)] = True
        ev.set()
        nbytes = WIRE_HEADER_BYTES + cview.wire_bytes
        self._count(k, requests=1, view_bytes=nbytes)
        return nbytes

    def ship_post_read(self, k, loffs, lens, rnd) -> int:
        self.fs.wire.post(k, ("read", self.name,
                              np.asarray(loffs, dtype=np.int64),
                              np.asarray(lens, dtype=np.int64), rnd))
        req = WIRE_HEADER_BYTES + WIRE_EXTENT_BYTES * len(loffs)
        self._count(k, requests=1, request_bytes=req)
        return req

    def ship_post_write(self, k, loffs, lens, payload, rnd) -> int:
        self.fs.wire.post(k, ("write", self.name,
                              np.asarray(loffs, dtype=np.int64),
                              np.asarray(lens, dtype=np.int64),
                              payload, rnd))
        req = WIRE_HEADER_BYTES + WIRE_EXTENT_BYTES * len(loffs)
        self._count(k, requests=1, request_bytes=req,
                    payload_bytes=int(np.asarray(lens).sum()))
        return req

    def ship_post_dt_read(self, k, vid, d_lo, d_hi, fdelta, rnd) -> int:
        self.fs.wire.post(k, ("dt_read", self.name, vid, d_lo, d_hi,
                              fdelta, rnd))
        self._count(k, requests=1, request_bytes=WIRE_DT_PARAM_BYTES)
        return WIRE_DT_PARAM_BYTES

    def ship_post_dt_write(self, k, vid, d_lo, d_hi, fdelta, payload,
                           rnd) -> int:
        self.fs.wire.post(k, ("dt_write", self.name, vid, d_lo, d_hi,
                              fdelta, payload, rnd))
        self._count(k, requests=1, request_bytes=WIRE_DT_PARAM_BYTES,
                    payload_bytes=payload.nbytes)
        return WIRE_DT_PARAM_BYTES

    def ship_collect_read(self, k):
        """Collect one read reply: ``(payload, short)``."""
        payload, short = self.fs.wire.collect(k)
        self._count(k, payload_bytes=payload.nbytes)
        return payload, short

    def ship_collect_write(self, k) -> int:
        return self.fs.wire.collect(k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardedFile {self.name!r} shards={self.fs.nshards} "
                f"ss={self.fs.stripe_size}>")
