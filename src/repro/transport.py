"""The one transport: every process the stack starts, and every request
sent to one.

Processes fork under one start method (:data:`CTX`) and one launch lock
(:data:`LAUNCH`), and stop one way: join, terminate the ones still
alive, join again (:func:`reap`).  A :class:`Server` process — a shard
server (:mod:`repro.fs.sharded`) or an IOP service worker
(:mod:`repro.server.core`) — listens on an ``AF_UNIX`` socket and runs
the one server loop per connection: receive a frame, answer it with its
:class:`Handler`, reply ``("ok", value)`` or ``("err", exc)``.  Every
frame gets a reply, and an error not of the server's type is wrapped in
it, so a client sees one typed error and keeps its connection.  Clients
(:class:`Peers`) post and collect in separate calls, keeping requests
in flight to many servers; each collect waits at most
:func:`~repro.deadline.recv_timeout`, and a dead or silent server
raises one :class:`~repro.errors.PeerError` naming it.  The ranks of
:func:`repro.mpi.proc.run_spmd_proc` each send one report back
(:func:`spawn_reporting`, :func:`reports`); one that dies without
reporting is seen at once.

NumPy arrays of at least :data:`SHIP_SHM_THRESHOLD` bytes in a request
or reply (at top level or in nested tuples) travel out of band through a
shared-memory segment (:mod:`repro.mpi.shm`), which the receiver unlinks
once read; a client whose server died unlinks those of its unanswered
requests.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from multiprocessing.connection import Client, Listener, wait

import numpy as np

from repro.deadline import recv_timeout
from repro.errors import PeerError

__all__ = ["CTX", "LAUNCH", "SHIP_SHM_THRESHOLD", "Handler", "Peers",
           "Server", "reap", "reports", "spawn", "spawn_reporting"]

#: The one start method: fork, so targets may close over live objects.
CTX = multiprocessing.get_context("fork")

#: Held while forking, and by callers that create ``CTX`` primitives
#: for the processes they fork: both touch process-global
#: multiprocessing state, and a child forked mid-update sees it torn.
LAUNCH = threading.RLock()


def _fresh_launch_lock() -> None:
    # A child is forked while its parent holds LAUNCH; only the forking
    # thread survives, so give the child a lock nobody holds.
    global LAUNCH
    LAUNCH = threading.RLock()


os.register_at_fork(after_in_child=_fresh_launch_lock)

#: Arrays at or above this many bytes travel through a shm segment.
SHIP_SHM_THRESHOLD = 1 << 16

#: Seconds a stopping process may take before it is terminated.
_GRACE = 5.0

_SEQ = itertools.count(1)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

def spawn(target, args, name: str, daemon: bool = False):
    """Fork a process running ``target(*args)``; returns it started."""
    with LAUNCH:
        p = CTX.Process(target=target, args=args, name=name, daemon=daemon)
        p.start()
    return p


def reap(procs, grace: float = _GRACE) -> None:
    """Join each process for up to ``grace`` seconds, then terminate the
    ones still alive and join those."""
    for p in procs:
        p.join(grace)
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(_GRACE)


def _report(writer, target, args) -> None:
    writer.send_bytes(target(*args))


def spawn_reporting(target, args, name: str):
    """Fork a process that sends back ``target(*args)``, a bytes report;
    returns ``(process, reader)``."""
    with LAUNCH:
        reader, writer = CTX.Pipe(duplex=False)
        p = spawn(_report, (writer, target, args), name)
        writer.close()
    return p, reader


def reports(started, timeout: float):
    """Yield ``(i, report)`` as the ``i``-th ``(process, reader)`` pair
    reports, ``(i, None)`` as soon as one exits without reporting, and
    ``(i, None)`` for every one still silent after ``timeout`` seconds."""
    pending = dict(enumerate(started))
    deadline = time.monotonic() + timeout
    while pending:
        ready = set(wait([x for p, r in pending.values()
                          for x in (r, p.sentinel)],
                         max(0.0, deadline - time.monotonic())))
        if not ready:
            for i in list(pending):
                yield i, None
            return
        for i, (p, r) in list(pending.items()):
            if r in ready or p.sentinel in ready:
                del pending[i]
                try:
                    # A process that exited wrote its whole report first.
                    report = r.recv_bytes() if r.poll() else None
                except EOFError:
                    report = None
                r.close()
                if report is None:
                    p.join(_GRACE)  # reaped, so its exit code reads
                yield i, report


# ----------------------------------------------------------------------
# Frames: large arrays out of band
# ----------------------------------------------------------------------

class _Segment(str):
    """The name of the shm segment carrying one out-of-band array."""


def _out(obj, names: list):
    if type(obj) is tuple:
        return tuple(_out(x, names) for x in obj)
    if isinstance(obj, np.ndarray) and obj.nbytes >= SHIP_SHM_THRESHOLD:
        from repro.mpi import shm

        name = _Segment(f"tp{os.getpid():x}x{next(_SEQ):x}")
        shm.write_segment(name, obj)
        names.append(name)
        return name
    return obj


def _in(obj):
    if type(obj) is tuple:
        return tuple(_in(x) for x in obj)
    if isinstance(obj, _Segment):
        from repro.mpi import shm

        try:
            return shm.read_segment(obj)
        finally:
            shm.unlink_segment(obj)
    return obj


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------

class Handler:
    """What a server process serves.  ``dispatch(msg, held)`` answers one
    request; ``held`` lists what the connection holds, and
    ``dropped(held)`` releases it when the connection closes."""

    def dispatch(self, msg, held: list):
        raise NotImplementedError

    def dropped(self, held: list) -> None:
        pass

    def close(self) -> None:
        """Tear down after the server was asked to shut down."""


def _loop(conn, handler: Handler, name: str, error, stop) -> None:
    """The one server loop, for one connection."""
    held: list = []
    try:
        while True:
            try:
                raw = conn.recv_bytes()
            except (EOFError, OSError):
                return
            bye = False
            try:
                msg = _in(pickle.loads(raw))
                bye = type(msg) is tuple and msg == ("shutdown",)
                reply = ("ok", None if bye else handler.dispatch(msg, held))
            except Exception as exc:  # noqa: BLE001 - shipped to the client
                if not isinstance(exc, error):
                    exc = error(f"{name}: {type(exc).__name__}: {exc}")
                reply = ("err", exc)
            try:
                conn.send(_out(reply, []))
            except OSError:
                return
            if bye:
                stop.set()
    finally:
        handler.dropped(held)
        conn.close()


def _serve(ready, address: str, name: str, error, setup, args) -> None:
    """Server process main: build the handler, listen, signal ready,
    serve each connection in its own thread until shut down."""
    handler = setup(*args)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(address)  # left by a killed predecessor
    listener = Listener(address, family="AF_UNIX")
    stop = threading.Event()

    def accept() -> None:
        while True:
            try:
                conn = listener.accept()
            except OSError:
                return
            threading.Thread(target=_loop, daemon=True, name=name,
                             args=(conn, handler, name, error,
                                   stop)).start()

    threading.Thread(target=accept, daemon=True).start()
    ready.send(os.getpid())
    ready.close()
    stop.wait()
    listener.close()
    handler.close()


class Server:
    """The server process at ``address`` serving ``setup(*args)``, a
    :class:`Handler`, with errors of type ``error``.  The process that
    built it owns it: only there does :meth:`stop` act."""

    def __init__(self, address: str, name: str, error, setup,
                 *args) -> None:
        self.address = address
        self.name = name
        self._spec = (address, name, error, setup, args)
        self._owner = os.getpid()
        self.spawn()

    def spawn(self) -> None:
        """Fork the process and wait for its ready handshake."""
        with LAUNCH:
            ready, child = CTX.Pipe(duplex=False)
            self.process = spawn(_serve, (child,) + self._spec, self.name,
                                 daemon=True)
            child.close()
        try:
            if not ready.poll(recv_timeout()):
                raise TimeoutError("no ready handshake")
            ready.recv()
        except (EOFError, OSError) as exc:
            reap([self.process], 0)
            raise PeerError(f"{self.name} failed to start: {exc!r}") \
                from exc
        finally:
            ready.close()

    def respawn(self) -> None:
        """Replace a dead or silent process."""
        reap([self.process], 0)
        self.spawn()

    def stop(self) -> None:
        """Ask the process to shut down, reap it, and remove the socket
        a killed process leaves behind."""
        if os.getpid() != self._owner:
            return
        peer = Peers([self.address], [self.name])
        with contextlib.suppress(PeerError):
            peer.request(0, ("shutdown",))
        peer.close()
        reap([self.process])
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.address)


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------

class Peers:
    """The client side of the servers at ``addresses``: one connection
    per process, thread and server, opened on first use; the replies to
    a connection's requests come back in order.  When server ``k`` is
    dead or silent, ``lost(k, cause)`` (if given) raises its own error,
    else a :class:`~repro.errors.PeerError` naming ``names[k]``."""

    def __init__(self, addresses, names, lost=None) -> None:
        self.addresses = list(addresses)
        self.names = list(names)
        self.lost = lost
        #: ``(pid, thread, k) -> (connection, the shm segments of each
        #: unanswered request, oldest first)``
        self._conns: dict = {}
        self._mu = threading.Lock()

    def _conn(self, k: int):
        key = (os.getpid(), threading.get_ident(), k)
        c = self._conns.get(key)
        if c is None:
            try:
                c = (Client(self.addresses[k], family="AF_UNIX"), deque())
            except OSError as exc:
                self._lose(k, exc)
            with self._mu:
                self._conns[key] = c
        return c

    def post(self, k: int, msg) -> None:
        conn, inflight = self._conn(k)
        names: list = []
        inflight.append(names)
        try:
            conn.send(_out(msg, names))
        except OSError as exc:
            self._lose(k, exc)

    def collect(self, k: int):
        """The reply to the oldest unanswered request to server ``k``:
        its value, or its error raised."""
        conn, inflight = self._conn(k)
        tmo = recv_timeout()
        try:
            if not conn.poll(tmo):
                raise TimeoutError(f"no reply in {tmo:g}s")
            tag, val = conn.recv()
        except (EOFError, OSError) as exc:
            self._lose(k, exc)
        inflight.popleft()
        if tag == "err":
            raise val
        return _in(val)

    def request(self, k: int, msg):
        self.post(k, msg)
        return self.collect(k)

    def _lose(self, k: int, cause: BaseException):
        from repro.mpi import shm

        with self._mu:
            conn, inflight = self._conns.pop(
                (os.getpid(), threading.get_ident(), k), (None, ()))
        for name in itertools.chain.from_iterable(inflight):
            shm.unlink_segment(name)
        if conn is not None:
            conn.close()
        if self.lost is not None:
            self.lost(k, cause)
        raise PeerError(f"{self.names[k]} dead or silent: {cause!r}") \
            from cause

    def close(self) -> None:
        """Close every connection this object holds."""
        with self._mu:
            conns, self._conns = self._conns, {}
        for conn, _inflight in conns.values():
            conn.close()
