"""The multi-tenant IOP server.

A persistent worker pool serving byte-addressed reads and writes on a
shared file store to many client "worlds" in one process — the
service-ified form of the paper's I/O processes (IOPs).  Data path::

    ServiceClient.post ──► AdmissionController (per-tenant queue,
         │                  budget, weighted-fair dequeue)
         │ ticket                  │ take()  (scheduler thread)
         ▼                         ▼
    ServiceRequest.wait ◄── plan_batches ──► worker pool ──► File
                             (cross-client    (threads or     handles
                              merge)           IOP processes)

Every tenant owns an :class:`~repro.session.IOSession`, so its
counters, caches and flight breadcrumbs never bleed into another
tenant's; the server itself runs under its own session, which is where
the server-side file handles (one per path, opened on a 1-rank sim
world) register their engines and where worker-death breadcrumbs land.

Worker modes:

``thread`` (default)
    workers are threads executing against an in-process
    :class:`~repro.fs.SimFileSystem` — fast, deterministic, the soak
    and benchmark configuration;
``proc``
    workers are real OS processes executing against an
    :class:`~repro.fs.OsFileSystem` rooted at ``root``, each one a
    server process of :mod:`repro.transport` fed by its worker thread.
    A worker that dies mid-request (e.g. SIGKILL), or stays silent past
    the blocking-wait deadline, fails exactly the requests it was
    executing with :class:`~repro.errors.ServiceWorkerError`, drops a
    flight breadcrumb, and is respawned — subsequent requests succeed.
"""

from __future__ import annotations

import contextlib
import os
import queue
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro import transport
from repro.errors import PeerError, ServiceError, ServiceWorkerError
from repro.server.admission import (
    DEFAULT_BYTE_BUDGET,
    DEFAULT_QUANTUM,
    DEFAULT_QUEUE_DEPTH,
    AdmissionController,
    TenantState,
)
from repro.server.batch import DEFAULT_MAX_READ_GAP, Batch, plan_batches
from repro.session import IOSession

__all__ = ["IOPServer", "ServerCounters"]

#: Scheduler poll interval when idle (wakes immediately on post/complete).
_IDLE_WAIT = 0.02


class _IORequest:
    """One posted access: the server-side half of a service ticket."""

    __slots__ = ("tenant", "path", "write", "offset", "nbytes", "data",
                 "result", "error", "t_post", "t_done", "_done")

    def __init__(self, tenant: str, path: str, write: bool, offset: int,
                 nbytes: int, data: Optional[np.ndarray]) -> None:
        self.tenant = tenant
        self.path = path
        self.write = write
        self.offset = offset
        self.nbytes = nbytes
        self.data = data
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.t_post = time.perf_counter()
        self.t_done: Optional[float] = None
        self._done = threading.Event()

    def finish(self, error: Optional[BaseException] = None) -> None:
        self.error = error
        self.t_done = time.perf_counter()
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)


class ServerCounters:
    """Server-wide (cross-tenant) execution counters."""

    def __init__(self) -> None:
        self.requests_executed = 0
        self.batches_executed = 0
        #: server-side file accesses actually performed — with batching
        #: this is < requests_executed; the ratio is the rounds saved
        self.file_accesses = 0
        #: requests that shared a merged batch with at least one other
        self.batch_merged_requests = 0
        self.worker_respawns = 0
        self._mu = threading.Lock()

    def snapshot(self) -> dict:
        with self._mu:
            return {
                "batch_merged_requests": self.batch_merged_requests,
                "batches_executed": self.batches_executed,
                "file_accesses": self.file_accesses,
                "requests_executed": self.requests_executed,
                "worker_respawns": self.worker_respawns,
            }


def _open(fs, path: str):
    """A server-side handle on ``path``, opened on a 1-rank sim world."""
    from repro.io import MODE_CREATE, MODE_RDWR
    from repro.io.file_handle import File
    from repro.mpi.runtime import World

    return File.open(World(1).comm(0), fs, path, MODE_CREATE | MODE_RDWR)


def _access(fh, write: bool, lo: int, arg):
    """One batch's access on ``fh``: write the bytes ``arg`` at ``lo``,
    or read ``arg`` bytes from ``lo``.  A merged read may run past EOF
    in its gap tail; it is clipped like a POSIX short read."""
    if write:
        fh.write_at(lo, arg)
        return None
    buf = np.zeros(arg, np.uint8)
    hi = min(lo + arg, max(lo, fh.get_size()))
    if hi > lo:
        fh.read_at(lo, buf[:hi - lo])
    return buf


class _IOPWorker(transport.Handler):
    """An IOP worker process: runs shipped batches against the shared
    on-disk store, one handle per path for the worker's lifetime.  Its
    one client is its worker thread in the server, one batch at a
    time."""

    def __init__(self, root: str) -> None:
        from repro.fs import OsFileSystem

        self.fs = OsFileSystem(root)
        self.handles: Dict[str, object] = {}

    def dispatch(self, msg, held):
        op, path, lo, arg, delay = msg
        if op not in ("read", "write"):
            raise ServiceError(f"unknown IOP worker op {op!r}")
        if delay:
            time.sleep(delay)
        fh = self.handles.get(path)
        if fh is None:
            fh = self.handles[path] = _open(self.fs, path)
        return _access(fh, op == "write", lo, arg)

    def close(self) -> None:
        for fh in self.handles.values():
            with contextlib.suppress(Exception):
                fh.close()


class IOPServer:
    """Session-scoped, admission-controlled I/O service (one process).

    See the module docstring for the data path.  Lifecycle::

        srv = IOPServer(workers=4)
        srv.register_tenant("a", weight=2)
        srv.start()
        req = srv.post("a", "/f", write=True, offset=0, data=buf)
        req.wait(); srv.stop()

    Clients normally go through
    :class:`~repro.server.client.ServiceClient` instead of calling
    :meth:`post` directly.
    """

    def __init__(self, fs=None, workers: int = 2,
                 worker_mode: str = "thread",
                 quantum: int = DEFAULT_QUANTUM,
                 fair: bool = True,
                 batching: bool = True,
                 max_read_gap: int = DEFAULT_MAX_READ_GAP,
                 root: Optional[str] = None,
                 worker_delay: float = 0.0,
                 name: str = "iop-server") -> None:
        if worker_mode not in ("thread", "proc"):
            raise ServiceError(
                f"worker_mode must be 'thread' or 'proc', "
                f"got {worker_mode!r}"
            )
        if workers < 1:
            raise ServiceError(f"need at least 1 worker, got {workers}")
        self.worker_mode = worker_mode
        self.nworkers = workers
        self.batching = batching
        self.max_read_gap = max_read_gap
        self.worker_delay = worker_delay
        self.session = IOSession(name)
        self.admission = AdmissionController(quantum=quantum, fair=fair)
        self.counters = ServerCounters()
        if worker_mode == "proc":
            if root is None:
                raise ServiceError(
                    "proc worker mode needs a real directory: pass root="
                )
            from repro.fs import OsFileSystem

            self.root = root
            self.fs = fs if fs is not None else OsFileSystem(root)
        else:
            from repro.fs import SimFileSystem

            self.root = None
            self.fs = fs if fs is not None else SimFileSystem()
        self._handles: Dict[str, object] = {}
        self._handle_mu = threading.Lock()
        self._path_locks: Dict[str, threading.Lock] = {}
        self._dispatch: "queue.Queue" = queue.Queue()
        self._wake = threading.Event()
        self._threads: List[threading.Thread] = []
        self._proc_workers: List[transport.Server] = []
        self._running = False

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def register_tenant(self, name: str, weight: int = 1,
                        byte_budget: int = DEFAULT_BYTE_BUDGET,
                        queue_depth: int = DEFAULT_QUEUE_DEPTH,
                        ) -> TenantState:
        """Add a tenant: its queue/budget/weight, its own
        :class:`IOSession`, and its counters in the server session's
        metrics registry (``service`` section, labeled by tenant)."""
        t = self.admission.register(name, weight=weight,
                                    byte_budget=byte_budget,
                                    queue_depth=queue_depth)
        t.session = IOSession(f"tenant:{name}")
        self.session.metrics.register_service(name, t.stats)
        return t

    def tenant(self, name: str) -> TenantState:
        return self.admission.tenant(name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "IOPServer":
        if self._running:
            raise ServiceError("server already running")
        self._running = True
        if self.worker_mode == "proc":
            self._ctrl = tempfile.mkdtemp(prefix="iop-")
            socks = [os.path.join(self._ctrl, f"{i}.sock")
                     for i in range(self.nworkers)]
            names = [f"IOP worker {i}" for i in range(self.nworkers)]
            self._proc_workers = [
                transport.Server(sock, name, ServiceError, _IOPWorker,
                                 self.root)
                for sock, name in zip(socks, names)
            ]
            self._wire = transport.Peers(socks, names)
        for i in range(self.nworkers):
            self._threads.append(threading.Thread(
                target=self._worker, args=(i,), name=f"iop-worker-{i}",
                daemon=True))
        sched = threading.Thread(target=self._scheduler,
                                 name="iop-scheduler", daemon=True)
        self._threads.append(sched)
        for th in self._threads:
            th.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the service.  ``drain=True`` waits for queued and
        in-flight requests to finish first (bounded by ``timeout``);
        anything still pending afterwards fails promptly."""
        if not self._running:
            return
        if drain:
            deadline = time.perf_counter() + timeout
            while (self.admission.backlog() or self.admission.in_flight()):
                if time.perf_counter() >= deadline:
                    break
                time.sleep(0.005)
        self._running = False
        self._wake.set()
        for _ in range(self.nworkers):
            self._dispatch.put(None)
        for th in self._threads:
            th.join(timeout=10.0)
        self._threads = []
        if self._proc_workers:
            self._wire.close()
            for w in self._proc_workers:
                w.stop()
            self._proc_workers = []
            shutil.rmtree(self._ctrl, ignore_errors=True)
        # Fail anything that never dispatched.
        for t in self.admission.tenants():
            while t.queue:
                item, nb = t.queue.popleft()
                item.finish(ServiceError("server stopped"))
                t.stats.failed += 1
        with self._handle_mu:
            for fh in self._handles.values():
                try:
                    fh.close()
                except Exception:
                    pass
            self._handles.clear()

    def __enter__(self) -> "IOPServer":
        return self.start() if not self._running else self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Posting (the client API lands here)
    # ------------------------------------------------------------------
    def post(self, tenant: str, path: str, write: bool, offset: int,
             data: Optional[np.ndarray] = None,
             nbytes: Optional[int] = None) -> _IORequest:
        """Admit one access.  Raises
        :class:`~repro.errors.ServiceQueueFull` at post time when the
        tenant queue is at depth; otherwise returns the request ticket
        (completed by the worker pool; ``wait()`` on it)."""
        if not self._running:
            raise ServiceError("server is not running")
        if write:
            if data is None:
                raise ServiceError("write post needs data")
            buf = np.ascontiguousarray(data, dtype=np.uint8)
            # Copy at post: the client may reuse its buffer immediately
            # (plan-at-post semantics pin the payload, not the buffer).
            buf = buf.copy() if buf.base is not None or buf is data \
                else buf
            req = _IORequest(tenant, path, True, offset, buf.nbytes, buf)
        else:
            if nbytes is None or nbytes < 0:
                raise ServiceError("read post needs nbytes >= 0")
            req = _IORequest(tenant, path, False, offset, nbytes, None)
        if req.nbytes == 0:
            req.result = np.empty(0, np.uint8) if not write else None
            req.finish()
            return req
        self.admission.post(tenant, req, req.nbytes)
        self._wake.set()
        return req

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _scheduler(self) -> None:
        while self._running:
            self._wake.wait(_IDLE_WAIT)
            self._wake.clear()
            items = self.admission.take()
            if not items:
                continue
            batches = plan_batches(items, merge=self.batching,
                                   max_read_gap=self.max_read_gap)
            for b in batches:
                self._dispatch.put(b)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _worker(self, i: int) -> None:
        with self.session:
            while True:
                b = self._dispatch.get()
                if b is None:
                    return
                try:
                    self._execute(i, b)
                except BaseException as exc:  # noqa: BLE001
                    self._fail_batch(b, exc)

    def _execute(self, i: int, b: Batch) -> None:
        """Run batch ``b`` in place (thread mode) or on worker process
        ``i``, one batch per path at a time."""
        if b.write:
            arg = np.empty(b.nbytes, np.uint8)
            for it in b.items:
                off = it.offset - b.lo
                arg[off:off + it.nbytes] = it.data
        else:
            arg = b.nbytes
        if self._proc_workers:
            with self._path_lock(b.path):
                try:
                    out = self._wire.request(i, (
                        "write" if b.write else "read", b.path, b.lo, arg,
                        self.worker_delay))
                except PeerError as exc:
                    self._worker_died(i, b, exc)
                    return
        else:
            if self.worker_delay:
                # Test/bench hook: simulated device latency per access,
                # so scheduling windows (and batching opportunities) are
                # deterministic instead of racing the worker pool.
                time.sleep(self.worker_delay)
            fh, lock = self._handle(b.path)
            with lock:
                out = _access(fh, b.write, b.lo, arg)
        if not b.write:
            for it in b.items:
                off = it.offset - b.lo
                it.result = out[off:off + it.nbytes].copy()
        self._complete_batch(b)

    def _handle(self, path: str):
        with self._handle_mu:
            fh = self._handles.get(path)
            if fh is None:
                # Opened by a worker thread, inside the server session.
                fh = self._handles[path] = _open(self.fs, path)
        return fh, self._path_lock(path)

    def _path_lock(self, path: str) -> threading.Lock:
        with self._handle_mu:
            lock = self._path_locks.get(path)
            if lock is None:
                lock = self._path_locks[path] = threading.Lock()
            return lock

    def _worker_died(self, i: int, b: Batch, exc: PeerError) -> None:
        """Worker process ``i`` died or went silent mid-request:
        breadcrumb it, fail exactly the requests it was executing,
        respawn it."""
        self.session.flight.note(
            "service.worker_dead", rank=i,
            path=b.path, write=b.write,
            tenants=sorted({it.tenant for it in b.items}),
            requests=len(b.items),
        )
        with self.counters._mu:
            self.counters.worker_respawns += 1
        self._fail_batch(b, ServiceWorkerError(
            f"IOP worker {i} died executing "
            f"{'write' if b.write else 'read'} on {b.path!r} ({exc})"
        ))
        if self._running:
            # A failed respawn surfaces on the next request to it.
            with contextlib.suppress(PeerError):
                self._proc_workers[i].respawn()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _complete_batch(self, b: Batch) -> None:
        with self.counters._mu:
            self.counters.batches_executed += 1
            self.counters.file_accesses += 1
            self.counters.requests_executed += len(b.items)
            if len(b.items) > 1:
                self.counters.batch_merged_requests += len(b.items)
        for it in b.items:
            t = self.admission.tenant(it.tenant)
            if len(b.items) > 1:
                t.stats.batched_requests += 1
            if b.write:
                t.stats.bytes_written += it.nbytes
            else:
                t.stats.bytes_read += it.nbytes
            self.admission.complete(it.tenant, it.nbytes, ok=True)
            it.finish()
        self._wake.set()

    def _fail_batch(self, b: Batch, exc: BaseException) -> None:
        for it in b.items:
            self.admission.complete(it.tenant, it.nbytes, ok=False)
            it.finish(exc)
        self._wake.set()

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """The server session's metrics snapshot (includes the
        ``service`` section with one entry per tenant) plus the
        server-wide execution counters under ``server``."""
        snap = self.session.metrics.snapshot()
        snap["server"] = self.counters.snapshot()
        return snap
