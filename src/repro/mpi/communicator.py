"""The communicator: point-to-point and collective operations.

Point-to-point messages are matched by ``(source, tag)`` in FIFO order per
pair, as MPI requires.  Collectives use a shared exchange board guarded by
a generation barrier — semantically equivalent to the tree algorithms of a
real MPI but without their Python-level overhead, so the *accounted* cost
(payload bytes × network model) remains the meaningful quantity.

Every operation aborts promptly when another rank has failed (the runtime
sets a world-wide failure flag), so a crashing rank cannot deadlock the
test suite.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.deadline import recv_timeout
from repro.errors import MPIRuntimeError
from repro.mpi.cost_model import payload_nbytes
from repro.mpi.status import Status
from repro.obs import trace

__all__ = ["Comm", "ANY_TAG", "PendingOp", "recv_timeout"]

#: Wildcard tag for :meth:`Comm.recv`.
ANY_TAG = -1

_POLL_INTERVAL = 0.05  # seconds between failure-flag checks while blocked


class PendingOp:
    """Request handle for nonblocking point-to-point operations.

    ``test()`` polls without blocking; ``wait()`` blocks until
    completion and returns the payload (None for sends).
    """

    def __init__(self, poll=None, result=None, done=False) -> None:
        self._poll = poll
        self._result = result
        self._done = done

    def test(self) -> bool:
        """Try to complete; True when done (payload via :meth:`wait`)."""
        if self._done:
            return True
        ok, payload = self._poll(block=False)
        if ok:
            self._result = payload
            self._done = True
        return self._done

    def wait(self):
        """Block until completion; returns the payload."""
        if not self._done:
            ok, payload = self._poll(block=True)
            assert ok
            self._result = payload
            self._done = True
        return self._result


class _Barrier:
    """The reusable barrier of a world or group of rank threads.

    Each waiter blocks on its own lock, held while it is not waiting,
    which the last arrival releases: one C-level acquire per waiter
    instead of :class:`threading.Barrier`'s condition-variable round
    trip in Python.  On 8 sim ranks that halves a barrier (≈0.07 →
    ≈0.04 ms), the synchronization of every collective.  ``abort``
    breaks it for good: waiters and later arrivals raise
    :class:`threading.BrokenBarrierError`.
    """

    def __init__(self, parties: int) -> None:
        self.parties = parties
        self._mu = threading.Lock()
        self._waiting: List[threading.Lock] = []
        self._broken = False
        self._gates = threading.local()

    def wait(self) -> None:
        gate = getattr(self._gates, "lock", None)
        if gate is None:
            gate = self._gates.lock = threading.Lock()
            gate.acquire()
        with self._mu:
            if self._broken:
                raise threading.BrokenBarrierError
            if len(self._waiting) + 1 < self.parties:
                self._waiting.append(gate)
                last = None
            else:
                last, self._waiting = self._waiting, []
        if last is None:
            gate.acquire()  # released by the last arrival, or by abort
            if self._broken:
                raise threading.BrokenBarrierError
            return
        for g in last:
            g.release()

    def abort(self) -> None:
        with self._mu:
            self._broken = True
            waiting, self._waiting = self._waiting, []
        for g in waiting:
            g.release()


class _Mailbox:
    """Per-rank incoming message store with (source, tag) matching."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.queues: Dict[Tuple[int, int], deque] = {}

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self.cond:
            self.queues.setdefault((source, tag), deque()).append(payload)
            self.cond.notify_all()

    def get(
        self, source: int, tag: int, failed: Callable[[], bool]
    ) -> Tuple[Any, int]:
        """Blocking matched receive; returns (payload, matched_tag).

        Waits are bounded by :func:`recv_timeout`: a message that never
        arrives raises :class:`MPIRuntimeError` instead of hanging the
        rank (and with it, the whole run) forever.
        """
        deadline = time.monotonic() + recv_timeout()
        with self.cond:
            while True:
                if tag == ANY_TAG:
                    for (src, t), q in self.queues.items():
                        if src == source and q:
                            return q.popleft(), t
                else:
                    q = self.queues.get((source, tag))
                    if q:
                        return q.popleft(), tag
                if failed():
                    raise MPIRuntimeError(
                        "world failed while waiting for a message"
                    )
                if time.monotonic() >= deadline:
                    raise MPIRuntimeError(
                        f"recv from rank {source} (tag {tag}) timed "
                        "out (sender never sent?)"
                    )
                self.cond.wait(timeout=_POLL_INTERVAL)


class Comm:
    """Rank-local facade over the shared :class:`~repro.mpi.runtime.World`."""

    def __init__(self, world, rank: int) -> None:
        self._world = world
        self.rank = rank

    @property
    def world_rank(self) -> int:
        """This rank's identity in the world (== rank for the world
        communicator; overridden by sub-communicators)."""
        return self.rank

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in the world."""
        return self._world.size

    def _check(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise MPIRuntimeError(
                f"rank {peer} outside world of size {self.size}"
            )

    def _charge(self, nbytes: int, dst: Optional[int] = None) -> None:
        self._world.account(self.rank, nbytes, dst)

    # ------------------------------------------------------------------
    # Causal edge stamps (recorded only while tracing).  Both sides of
    # a matched operation derive the same key locally: p2p messages are
    # FIFO per (source, tag) on every transport, so the n-th send on a
    # (src, dst, tag) stream pairs with the n-th matched receive;
    # collectives are called in identical order by all members of a
    # communicator, so a per-rank call counter + the communicator id
    # names the instance.  repro.obs.causal joins them after the merge.
    # ------------------------------------------------------------------
    def _edge_cid(self) -> str:
        return "w"

    def _stamp_send(self, wsrc: int, wdst: int, tag: int) -> None:
        tr = trace.TRACER
        n = tr.seq(("s", wsrc, wdst, tag))
        tr.edge("send", (wsrc, wdst, tag, n), peer=wdst)

    def _stamp_recv(self, wsrc: int, wdst: int, mtag: int,
                    t0: float) -> None:
        tr = trace.TRACER
        n = tr.seq(("r", wsrc, wdst, mtag))
        tr.edge("recv", (wsrc, wdst, mtag, n), peer=wsrc, t0=t0)

    def _stamp_coll(self, what: str, t0: float) -> None:
        tr = trace.TRACER
        cid = self._edge_cid()
        n = tr.seq(("c", self.world_rank, what, cid))
        tr.edge("coll", (what, cid, n), t0=t0)

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """Send ``payload`` to ``dest`` with ``tag`` (buffered, non-
        blocking in the eager sense)."""
        self._check(dest)
        self._charge(payload_nbytes(payload), dest)
        if trace.TRACE_ON:
            self._stamp_send(self.rank, dest, tag)
        self._world.mailbox(dest).put(self.rank, tag, payload)

    def recv(
        self, source: int, tag: int = 0, status: Optional[Status] = None
    ) -> Any:
        """Blocking matched receive from ``source``."""
        self._check(source)
        t_wait = trace.now() if trace.TRACE_ON else 0.0
        payload, mtag = self._world.mailbox(self.rank).get(
            source, tag, self._world.has_failed
        )
        if trace.TRACE_ON:
            self._stamp_recv(source, self.rank, mtag, t_wait)
        if status is not None:
            status.source = source
            status.tag = mtag
            status.nbytes = payload_nbytes(payload)
        return payload

    def sendrecv(
        self,
        dest: int,
        payload: Any,
        source: int,
        sendtag: int = 0,
        recvtag: int = 0,
    ) -> Any:
        """Combined send and receive (deadlock-free here: sends buffer)."""
        self.send(dest, payload, sendtag)
        return self.recv(source, recvtag)

    def _recv_source_key(self, source: int) -> int:
        """Mailbox queue key of communicator rank ``source`` (identity
        here; group communicators translate to world ranks)."""
        self._check(source)
        return source

    def _own_mailbox(self) -> "_Mailbox":
        return self._world.mailbox(self.rank)

    def recv_any(self, sources: Sequence[int], tag: int = 0) -> Tuple[int, Any]:
        """Blocking receive from whichever of ``sources`` has a matching
        message first; returns ``(source, payload)``.

        Arrival-order completion: the caller tracks a set of expected
        peers and consumes them as their messages land, without imposing
        an order — the receive side of relaxed-synchronization rounds,
        where only the (AP, IOP) pairs that actually move bytes talk.
        Bounded by :func:`recv_timeout` and the world failure flag like
        every other blocking wait.
        """
        srcs = [(s, self._recv_source_key(s)) for s in sources]
        if not srcs:
            raise MPIRuntimeError("recv_any needs at least one source")
        mb = self._own_mailbox()
        t_wait = trace.now() if trace.TRACE_ON else 0.0
        deadline = time.monotonic() + recv_timeout()
        with mb.cond:
            while True:
                for s, key in srcs:
                    q = mb.queues.get((key, tag))
                    if q:
                        payload = q.popleft()
                        if trace.TRACE_ON:
                            self._stamp_recv(key, self.world_rank,
                                             tag, t_wait)
                        return s, payload
                if self._world.has_failed():
                    raise MPIRuntimeError(
                        "world failed while waiting for a message"
                    )
                if time.monotonic() >= deadline:
                    raise MPIRuntimeError(
                        f"recv_any from ranks {sorted(s for s, _ in srcs)} "
                        f"(tag {tag}) timed out (sender never sent?)"
                    )
                mb.cond.wait(timeout=_POLL_INTERVAL)

    # ------------------------------------------------------------------
    # Nonblocking point-to-point
    # ------------------------------------------------------------------
    def isend(self, dest: int, payload: Any, tag: int = 0) -> "PendingOp":
        """Nonblocking send.  Sends here buffer eagerly, so the request
        completes immediately; returned for MPI-style code shape."""
        self.send(dest, payload, tag)
        return PendingOp(result=None, done=True)

    def irecv(self, source: int, tag: int = 0) -> "PendingOp":
        """Nonblocking receive: returns a request whose ``wait()`` (or a
        successful ``test()``) yields the payload."""
        self._check(source)
        return PendingOp(
            poll=lambda block: self._try_recv(source, tag, block)
        )

    def _try_recv(self, source: int, tag: int, block: bool):
        mb = self._world.mailbox(self.rank)
        if block:
            payload, _tag = mb.get(source, tag, self._world.has_failed)
            return True, payload
        with mb.cond:
            if tag == ANY_TAG:
                for (src, t), q in mb.queues.items():
                    if src == source and q:
                        return True, q.popleft()
                return False, None
            q = mb.queues.get((source, tag))
            if q:
                return True, q.popleft()
            return False, None

    def probe(self, source: int, tag: int = 0,
              status: Optional[Status] = None) -> None:
        """Block until a matching message is available (not consumed)."""
        self._check(source)
        mb = self._world.mailbox(self.rank)
        deadline = time.monotonic() + recv_timeout()
        with mb.cond:
            while True:
                q = mb.queues.get((source, tag))
                if q:
                    if status is not None:
                        status.source = source
                        status.tag = tag
                        status.nbytes = payload_nbytes(q[0])
                    return
                if self._world.has_failed():
                    raise MPIRuntimeError(
                        "world failed while probing for a message"
                    )
                if time.monotonic() >= deadline:
                    raise MPIRuntimeError(
                        f"probe of rank {source} (tag {tag}) timed "
                        "out (sender never sent?)"
                    )
                mb.cond.wait(timeout=_POLL_INTERVAL)

    def iprobe(self, source: int, tag: int = 0) -> bool:
        """True if a matching message is waiting (not consumed)."""
        self._check(source)
        mb = self._world.mailbox(self.rank)
        with mb.cond:
            q = mb.queues.get((source, tag))
            return bool(q)

    # ------------------------------------------------------------------
    # Communicator management
    # ------------------------------------------------------------------
    def dup(self) -> "Comm":
        """A new communicator over the same group (``MPI_Comm_dup``).

        Collective.  The duplicate has its own barrier and exchange
        board, so collectives on it cannot interfere with the parent's.
        """
        return self.split(color=0, key=self.rank)

    def split(self, color, key: int = 0) -> "GroupComm | None":
        """Partition ranks by ``color`` into sub-communicators
        (``MPI_Comm_split``); ``key`` orders ranks within each group.
        Collective; returns None for ``color=None`` (MPI_UNDEFINED).
        """
        # Members are identified by WORLD rank so nested splits work.
        info = self.allgather((color, key, self.world_rank))
        if color is None:
            # Still participate in the group-object distribution below.
            self.allgather(None)
            return None
        members = [
            r for _c, _k, r in sorted(
                (e for e in info if e[0] == color),
                key=lambda e: (e[1], e[2]),
            )
        ]
        leader = members[0]
        group = _Group(self._world, members) \
            if self.world_rank == leader else None
        groups = self.allgather(group)
        # groups is indexed by *this communicator's* ranks; find the
        # deposit of whichever local rank is the leader.
        gobj = next(g for g in groups if g is not None
                    and g.members == members)
        return GroupComm(self._world, self.world_rank, gobj)


    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Synchronize all ranks (a span only with tracing on)."""
        if not trace.TRACE_ON:
            self._world.barrier_wait()
            return
        t0 = trace.now()
        with trace.span("mpi.barrier"):
            self._world.barrier_wait()
        self._stamp_coll("bar", t0)

    def _board_exchange(self, item: Any) -> List[Any]:
        """Deposit ``item``, wait, and return every rank's deposit."""
        t0 = trace.now() if trace.TRACE_ON else 0.0
        w = self._world
        w.board[self.rank] = item
        w.barrier_wait()
        out = list(w.board)
        w.barrier_wait()
        if trace.TRACE_ON:
            self._stamp_coll("coll", t0)
        return out

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Broadcast from ``root``; every rank returns the root's value."""
        self._check(root)
        items = self._board_exchange(payload if self.rank == root else None)
        value = items[root]
        if self.rank == root:
            n = payload_nbytes(value)
            for dst in range(self.size):
                if dst != root:
                    self._charge(n, dst)
        return value

    def gather(self, payload: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather to ``root``; non-roots return None."""
        self._check(root)
        if self.rank != root:
            self._charge(payload_nbytes(payload), root)
        items = self._board_exchange(payload)
        return items if self.rank == root else None

    def allgather(self, payload: Any) -> List[Any]:
        """Gather every rank's value at every rank."""
        n = payload_nbytes(payload)
        with trace.span("mpi.allgather", bytes=n):
            for dst in range(self.size):
                if dst != self.rank:
                    self._charge(n, dst)
            return self._board_exchange(payload)

    def alltoall(self, payloads: Sequence[Any]) -> List[Any]:
        """Personalized all-to-all: ``payloads[d]`` goes to rank ``d``;
        returns the items addressed to this rank."""
        if len(payloads) != self.size:
            raise MPIRuntimeError(
                f"alltoall needs {self.size} payloads, got {len(payloads)}"
            )
        with trace.span("mpi.alltoall"):
            for d, p in enumerate(payloads):
                if d != self.rank:
                    self._charge(payload_nbytes(p), d)
            items = self._board_exchange(list(payloads))
            return [items[src][self.rank] for src in range(self.size)]

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any]) -> Any:
        """Reduce every rank's value with ``op``; all ranks get the result."""
        n = payload_nbytes(value)
        for dst in range(self.size):
            if dst != self.rank:
                self._charge(n, dst)
        items = self._board_exchange(value)
        acc = items[0]
        for v in items[1:]:
            acc = op(acc, v)
        return acc

    def reduce(
        self, value: Any, op: Callable[[Any, Any], Any], root: int = 0
    ) -> Any:
        """Reduce to ``root``; non-roots return None."""
        result = self.allreduce(value, op)
        return result if self.rank == root else None

    def scatter(self, payloads: Optional[Sequence[Any]], root: int = 0) -> Any:
        """Scatter ``payloads`` (significant at root) to all ranks."""
        self._check(root)
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise MPIRuntimeError(
                    f"scatter at root needs {self.size} payloads"
                )
            for d, p in enumerate(payloads):
                if d != root:
                    self._charge(payload_nbytes(p), d)
        items = self._board_exchange(
            list(payloads) if self.rank == root else None
        )
        return items[root][self.rank]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Comm rank={self.rank}/{self.size}>"


class _Group:
    """Shared synchronization state of one sub-communicator."""

    def __init__(self, world, members) -> None:
        self.members = list(members)
        self.barrier = _Barrier(len(members))
        self.board: List[Any] = [None] * len(members)
        # Failures anywhere in the world must break group barriers too.
        world.register_barrier(self.barrier)


class GroupComm(Comm):
    """A communicator over a subset of world ranks.

    ``rank``/``size`` are group-local; messages and accounting translate
    to world ranks.  Tags share the world's matching space, so code that
    mixes world-level and group-level point-to-point traffic between the
    same pair of ranks should use distinct tags (as it must in MPI when
    sharing a communicator).
    """

    def __init__(self, world, world_rank: int, group: _Group) -> None:
        self._world = world
        self._group = group
        self._wrank = world_rank
        self.rank = group.members.index(world_rank)

    @property
    def world_rank(self) -> int:
        return self._wrank

    @property
    def size(self) -> int:
        return len(self._group.members)

    def _to_world(self, peer: int) -> int:
        self._check(peer)
        return self._group.members[peer]

    def _edge_cid(self) -> str:
        return "g" + ",".join(str(m) for m in self._group.members)

    # -- point-to-point: translate ranks -------------------------------
    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        wdest = self._to_world(dest)
        self._world.account(self._wrank, payload_nbytes(payload),
                            wdest)
        if trace.TRACE_ON:
            self._stamp_send(self._wrank, wdest, tag)
        self._world.mailbox(wdest).put(self._wrank, tag, payload)

    def recv(self, source: int, tag: int = 0,
             status: Optional[Status] = None) -> Any:
        wsrc = self._to_world(source)
        t_wait = trace.now() if trace.TRACE_ON else 0.0
        payload, mtag = self._world.mailbox(self._wrank).get(
            wsrc, tag, self._world.has_failed
        )
        if trace.TRACE_ON:
            self._stamp_recv(wsrc, self._wrank, mtag, t_wait)
        if status is not None:
            status.source = source
            status.tag = mtag
            status.nbytes = payload_nbytes(payload)
        return payload

    def _charge(self, nbytes: int, dst: Optional[int] = None) -> None:
        wdst = None if dst is None else self._group.members[dst]
        self._world.account(self._wrank, nbytes, wdst)

    def _recv_source_key(self, source: int) -> int:
        return self._to_world(source)

    def _own_mailbox(self):
        return self._world.mailbox(self._wrank)

    def _try_recv(self, source: int, tag: int, block: bool):
        wsrc = self._to_world(source)
        mb = self._world.mailbox(self._wrank)
        if block:
            payload, _t = mb.get(wsrc, tag, self._world.has_failed)
            return True, payload
        with mb.cond:
            q = mb.queues.get((wsrc, tag))
            if q:
                return True, q.popleft()
            return False, None

    def probe(self, source: int, tag: int = 0,
              status: Optional[Status] = None) -> None:
        wsrc = self._to_world(source)
        mb = self._world.mailbox(self._wrank)
        deadline = time.monotonic() + recv_timeout()
        with mb.cond:
            while True:
                q = mb.queues.get((wsrc, tag))
                if q:
                    if status is not None:
                        status.source = source
                        status.tag = tag
                        status.nbytes = payload_nbytes(q[0])
                    return
                if self._world.has_failed():
                    raise MPIRuntimeError(
                        "world failed while probing for a message"
                    )
                if time.monotonic() >= deadline:
                    raise MPIRuntimeError(
                        f"probe of rank {source} (tag {tag}) timed "
                        "out (sender never sent?)"
                    )
                mb.cond.wait(timeout=_POLL_INTERVAL)

    def iprobe(self, source: int, tag: int = 0) -> bool:
        wsrc = self._to_world(source)
        mb = self._world.mailbox(self._wrank)
        with mb.cond:
            return bool(mb.queues.get((wsrc, tag)))

    # -- collectives: group-local barrier and board ---------------------
    def barrier(self) -> None:
        t0 = trace.now() if trace.TRACE_ON else 0.0
        try:
            self._group.barrier.wait()
        except threading.BrokenBarrierError:
            raise MPIRuntimeError(
                "group barrier broken (another rank failed)"
            ) from None
        if trace.TRACE_ON:
            self._stamp_coll("bar", t0)

    def _board_exchange(self, item: Any) -> List[Any]:
        t0 = trace.now() if trace.TRACE_ON else 0.0
        g = self._group
        g.board[self.rank] = item
        self.barrier()
        out = list(g.board)
        self.barrier()
        if trace.TRACE_ON:
            self._stamp_coll("coll", t0)
        return out
