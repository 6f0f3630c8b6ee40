"""The communicator: point-to-point and collective operations.

One :class:`Comm` serves the world and every sub-communicator on both
runtimes: it carries its group (the member world ranks, a barrier and an
exchange board), and the world communicator is simply the group of all
ranks.  Point-to-point is written once, on two pieces: :func:`_match`,
the one ``(source, tag)`` matcher (FIFO per pair, as MPI requires), and
a per-runtime mailbox that supplies posting and the one blocking wait.
Collectives use the group's exchange board guarded by its barrier —
semantically equivalent to the tree algorithms of a real MPI but without
their Python-level overhead, so the *accounted* cost (payload bytes ×
network model) remains the meaningful quantity.

Every blocking operation aborts promptly when another rank has failed
(the runtime sets a world-wide failure flag) and gives up after the one
blocking-wait deadline (:func:`repro.deadline.recv_timeout`), so neither
a crashing nor a silent rank can deadlock the test suite.
"""

from __future__ import annotations

import itertools
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

#: Wildcard tag for :meth:`Comm.recv` and every other receive or probe.
ANY_TAG = -1

_POLL_INTERVAL = 0.05  # seconds between failure-flag checks while blocked

#: A matched message: ``(source world rank, tag, payload)``.
Hit = Tuple[int, int, Any]


def _match(queues: Dict[Tuple[int, int], deque], srcs, tag: int,
           take: bool) -> Optional[Hit]:
    """The oldest message in ``queues`` (``(source, tag) -> FIFO`` of
    ``(arrival stamp, payload)``) from one of the world ranks ``srcs``
    with ``tag`` — any tag for :data:`ANY_TAG` — as ``(source, tag,
    payload)``; taken off its queue when ``take``, only peeked at
    otherwise.  None when nothing matches.  Oldest by arrival stamp, so
    a wildcard receive never lets a later message overtake an earlier
    one (MPI's non-overtaking rule).  Every receive, probe and
    ``recv_any`` on both runtimes matches here."""
    best = None
    if tag != ANY_TAG:
        for s in srcs:
            q = queues.get((s, tag))
            if q and (best is None or q[0][0] < best[2][0][0]):
                best = (s, tag, q)
    else:
        for (s, t), q in queues.items():
            if q and s in srcs and (best is None
                                    or q[0][0] < best[2][0][0]):
                best = (s, t, q)
    if best is None:
        return None
    s, t, q = best
    return s, t, (q.popleft() if take else q[0])[1]


def _timed_out(srcs, tag: int, seconds: float) -> MPIRuntimeError:
    return MPIRuntimeError(
        f"recv from rank(s) {sorted(srcs)} (tag {tag}) timed out after "
        f"{seconds:g}s (sender never sent, or died?)"
    )


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
        if not self._done:
            hit = self._poll(False)
            if hit is not None:
                self._result = hit[2]
                self._done = True
        return self._done

    def wait(self):
        """Block until completion; returns the payload."""
        if not self._done:
            self._result = self._poll(True)[2]
            self._done = True
        return self._result


class _Barrier:
    """The reusable barrier of a world or group of rank threads.

    Each waiter blocks on its own lock, held while it is not waiting,
    which the last arrival releases: one C-level acquire per waiter
    instead of :class:`threading.Barrier`'s condition-variable round
    trip in Python.  On 8 sim ranks that halves a barrier (≈0.07 →
    ≈0.04 ms), the synchronization of every collective.  A waiter gives
    up after ``timeout`` seconds and breaks the barrier; ``abort``
    breaks it for good.  Either way waiters and later arrivals raise
    :class:`~repro.errors.MPIRuntimeError`.
    """

    def __init__(self, parties: int, timeout: float) -> None:
        self.parties = parties
        self.timeout = timeout
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
                raise MPIRuntimeError("barrier broken (another rank failed)")
            if len(self._waiting) + 1 < self.parties:
                self._waiting.append(gate)
                last = None
            else:
                last, self._waiting = self._waiting, []
        if last is None:
            # Released by the last arrival or by abort.
            if not gate.acquire(timeout=self.timeout):
                self._expire(gate)
            if self._broken:
                raise MPIRuntimeError("barrier broken (another rank failed)")
            return
        for g in last:
            g.release()

    def _expire(self, gate: threading.Lock) -> None:
        """The deadline passed: break the barrier for every waiter —
        unless the last arrival (or an abort) took this waiter off the
        list meanwhile, whose release is then on its way."""
        with self._mu:
            expired = gate in self._waiting
            if expired:
                self._waiting.remove(gate)
        if not expired:
            gate.acquire()
            return
        self.abort()
        raise MPIRuntimeError(
            f"barrier timed out after {self.timeout:g}s (a rank never "
            "entered it?)"
        )

    def abort(self) -> None:
        with self._mu:
            self._broken = True
            waiting, self._waiting = self._waiting, []
        for g in waiting:
            g.release()


class _Mailbox:
    """A sim rank's incoming messages, queued by ``(source, tag)``.

    Posting stamps the message with its arrival order and appends it to
    the destination's queue under its condition; the one blocking wait
    holds the condition across the match and the wait, so no post
    between the two is missed.
    """

    def __init__(self, world, rank: int) -> None:
        self._world = world
        self._rank = rank
        self.cond = threading.Condition()
        self.queues: Dict[Tuple[int, int], deque] = {}
        self.arrivals = itertools.count()

    def post(self, wdest: int, tag: int, payload: Any) -> None:
        dst = self._world.mailboxes[wdest]
        with dst.cond:
            dst.queues.setdefault((self._rank, tag), deque()).append(
                (next(dst.arrivals), payload))
            dst.cond.notify_all()

    def wait(self, srcs, tag: int, take: bool,
             block: bool) -> Optional[Hit]:
        """Match, and with ``block`` wait until a message matches —
        bounded by the world's deadline and failure flag."""
        w = self._world
        deadline = None
        with self.cond:
            while True:
                hit = _match(self.queues, srcs, tag, take)
                if hit is not None or not block:
                    return hit
                if w.failure is not None:
                    raise MPIRuntimeError(
                        "world failed while waiting for a message"
                    )
                now = time.monotonic()
                if deadline is None:
                    deadline = now + w.timeout
                elif now >= deadline:
                    raise _timed_out(srcs, tag, w.timeout)
                self.cond.wait(timeout=_POLL_INTERVAL)


class _Group:
    """What the ranks of one communicator share: the member world ranks
    (in communicator-rank order), the barrier, the exchange board and
    the id naming its collectives in trace edges."""

    def __init__(self, members, barrier, cid: Optional[str] = None) -> None:
        self.members = list(members)
        self.barrier = barrier
        self.board: List[Any] = [None] * len(self.members)
        self.cid = cid or "g" + ",".join(str(m) for m in self.members)


class Comm:
    """A rank's communicator over a group of world ranks.

    ``rank``/``size`` are group-local; messages and accounting use world
    ranks.  Tags share the world's matching space, so code that mixes
    world-level and group-level point-to-point traffic between the same
    pair of ranks should use distinct tags (as it must in MPI when
    sharing a communicator).  ``world`` accounts traffic, ``box`` is
    this rank's mailbox.
    """

    def __init__(self, world, group: _Group, world_rank: int, box) -> None:
        self._world = world
        self._group = group
        self._box = box
        self.world_rank = world_rank
        self.rank = group.members.index(world_rank)
        self.size = len(group.members)

    # ------------------------------------------------------------------
    def _peer(self, peer: int) -> int:
        """World rank of communicator rank ``peer`` (validated)."""
        if not 0 <= peer < self.size:
            raise MPIRuntimeError(
                f"rank {peer} outside communicator of size {self.size}"
            )
        return self._group.members[peer]

    def _charge(self, nbytes: int, dst: int) -> None:
        self._world.account(self.world_rank, nbytes,
                            self._group.members[dst])

    # ------------------------------------------------------------------
    # Causal edge stamps (recorded only while tracing).  Both sides of
    # a matched operation derive the same key locally: p2p messages are
    # FIFO per (source, tag) on every transport, so the n-th send on a
    # (src, dst, tag) stream pairs with the n-th matched receive;
    # collectives are called in identical order by all members of a
    # communicator, so a per-rank call counter + the communicator id
    # names the instance.  repro.obs.causal joins them after the merge.
    # ------------------------------------------------------------------
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
        cid = self._group.cid
        n = tr.seq(("c", self.world_rank, what, cid))
        tr.edge("coll", (what, cid, n), t0=t0)

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """Send ``payload`` to ``dest`` with ``tag`` (buffered, non-
        blocking in the eager sense)."""
        wdest = self._peer(dest)
        self._world.account(self.world_rank, payload_nbytes(payload), wdest)
        if trace.TRACE_ON:
            self._stamp_send(self.world_rank, wdest, tag)
        self._box.post(wdest, tag, payload)

    def _take(self, srcs, tag: int, block: bool = True) -> Optional[Hit]:
        """Take the first message matching ``(srcs, tag)`` off this
        rank's mailbox (waiting for one with ``block``); stamps the
        receive edge while tracing."""
        t_wait = trace.now() if trace.TRACE_ON else 0.0
        hit = self._box.wait(srcs, tag, True, block)
        if hit is not None and trace.TRACE_ON:
            self._stamp_recv(hit[0], self.world_rank, hit[1], t_wait)
        return hit

    def recv(
        self, source: int, tag: int = 0, status: Optional[Status] = None
    ) -> Any:
        """Blocking matched receive from ``source``."""
        _w, mtag, payload = self._take((self._peer(source),), tag)
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

    def recv_any(self, sources: Sequence[int], tag: int = 0) -> Tuple[int, Any]:
        """Blocking receive from whichever of ``sources`` has a matching
        message first; returns ``(source, payload)``.

        Arrival-order completion: the caller tracks a set of expected
        peers and consumes them as their messages land, without imposing
        an order — the receive side of relaxed-synchronization rounds,
        where only the (AP, IOP) pairs that actually move bytes talk.
        Bounded by the blocking-wait deadline and the world failure flag
        like every other blocking wait.
        """
        srcs = {self._peer(s): s for s in sources}
        if not srcs:
            raise MPIRuntimeError("recv_any needs at least one source")
        wsrc, _t, payload = self._take(srcs, tag)
        return srcs[wsrc], payload

    def isend(self, dest: int, payload: Any, tag: int = 0) -> "PendingOp":
        """Nonblocking send.  Sends here buffer eagerly, so the request
        completes immediately; returned for MPI-style code shape."""
        self.send(dest, payload, tag)
        return PendingOp(result=None, done=True)

    def irecv(self, source: int, tag: int = 0) -> "PendingOp":
        """Nonblocking receive: returns a request whose ``wait()`` (or a
        successful ``test()``) yields the payload."""
        srcs = (self._peer(source),)
        return PendingOp(poll=lambda block: self._take(srcs, tag, block))

    def probe(self, source: int, tag: int = 0,
              status: Optional[Status] = None) -> None:
        """Block until a matching message is available (not consumed)."""
        _w, mtag, payload = self._box.wait((self._peer(source),), tag,
                                           False, True)
        if status is not None:
            status.source = source
            status.tag = mtag
            status.nbytes = payload_nbytes(payload)

    def iprobe(self, source: int, tag: int = 0) -> bool:
        """True if a matching message is waiting (not consumed)."""
        return self._box.wait((self._peer(source),), tag,
                              False, False) is not None

    # ------------------------------------------------------------------
    # Communicator management
    # ------------------------------------------------------------------
    def dup(self) -> "Comm":
        """A new communicator over the same group (``MPI_Comm_dup``).

        Collective.  The duplicate has its own barrier and exchange
        board, so collectives on it cannot interfere with the parent's.
        """
        return self.split(color=0, key=self.rank)

    def split(self, color, key: int = 0) -> "Comm | None":
        """Partition ranks by ``color`` into sub-communicators
        (``MPI_Comm_split``); ``key`` orders ranks within each group.
        Collective; returns None for ``color=None`` (MPI_UNDEFINED).
        """
        members = self._split_members(color, key)
        # The leader builds the group; a second allgather (color=None
        # ranks take part too) hands it to the members.
        group = self._world.new_group(members) \
            if members and self.world_rank == members[0] else None
        groups = self.allgather(group)
        if members is None:
            return None
        gobj = next(g for g in groups if g is not None
                    and g.members == members)
        return Comm(self._world, gobj, self.world_rank, self._box)

    def _split_members(self, color, key: int) -> Optional[List[int]]:
        """World ranks of this rank's part of a split, ordered by
        ``(key, world rank)`` — world ranks, so nested splits work —
        or None for ``color=None``.  Collective: one allgather."""
        info = self.allgather((color, key, self.world_rank))
        if color is None:
            return None
        return [r for _c, _k, r in sorted(
            (e for e in info if e[0] == color), key=lambda e: (e[1], e[2]))]

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Synchronize all ranks (a span only with tracing on)."""
        if not trace.TRACE_ON:
            self._group.barrier.wait()
            return
        t0 = trace.now()
        with trace.span("mpi.barrier"):
            self._group.barrier.wait()
        self._stamp_coll("bar", t0)

    def _board_exchange(self, item: Any) -> List[Any]:
        """Deposit ``item``, wait, and return every rank's deposit."""
        t0 = trace.now() if trace.TRACE_ON else 0.0
        g = self._group
        g.board[self.rank] = item
        g.barrier.wait()
        out = list(g.board)
        g.barrier.wait()
        if trace.TRACE_ON:
            self._stamp_coll("coll", t0)
        return out

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Broadcast from ``root``; every rank returns the root's value."""
        self._peer(root)
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
        self._peer(root)
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
        self._peer(root)
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
        return (f"<{type(self).__name__} rank={self.rank}/{self.size} "
                f"world={self.world_rank}>")

