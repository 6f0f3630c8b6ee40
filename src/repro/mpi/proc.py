"""The multi-process SPMD backend: ranks as real OS processes.

:func:`run_spmd_proc` mirrors :func:`repro.mpi.runtime.run_spmd` but
forks every rank as a process of :mod:`repro.transport`, so "parallel"
means parallel: ranks contend for the file system through real file
descriptors and real ``fcntl`` locks, and collectives move bytes
through POSIX shared memory (:mod:`repro.mpi.shm`) instead of
in-process reference passing.

Design:

* **Collectives** reuse the board-exchange algorithm of the one
  :class:`~repro.mpi.communicator.Comm` — :class:`ProcComm` overrides
  only ``_board_exchange`` (each rank writes one segment, a barrier
  publishes them, every rank attaches its peers' segments, a second
  barrier gates unlink); its world barrier is a
  ``multiprocessing.Barrier`` with a timeout.  Everything from
  ``bcast`` to ``alltoall`` is the exact code path the simulated
  backend runs, which is what makes the differential conformance suite
  meaningful.
* **Point-to-point** is :class:`Comm`'s too; only the mailbox differs.
  Messages put only ``(source, tag, segment_name)`` on the
  destination's queue; payload bytes stay in shared memory.  Receives
  carry a deadline — a dead sender surfaces as
  :class:`~repro.errors.MPIRuntimeError` within the blocking-wait
  deadline (:func:`repro.deadline.recv_timeout`, ``REPRO_RECV_TIMEOUT``,
  default 60 s), never as a hang.
* **Failure handling**: a rank that raises aborts the shared barrier
  and sets the world abort flag before reporting, so peers blocked in
  a collective or a receive fail promptly.  The parent additionally
  watches for ranks that *die* (e.g. SIGKILL) without reporting and
  aborts the world on their behalf.
* **Observability**: each rank ships its trace spans (absolute
  ``perf_counter`` stamps — CLOCK_MONOTONIC, comparable across
  processes on Linux) and its per-file stats back to the parent, which
  merges spans into the parent tracer so ``trace --export`` renders
  one timeline across backends.  Flight breadcrumbs go to the flight
  recorder of the caller's session (a forked rank inherits it), and
  the parent merges them into that same recorder.
"""

from __future__ import annotations

import itertools
import os
import pickle
import queue as queue_mod
import tempfile
import threading
import time
import zlib
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import transport
from repro.deadline import recv_timeout
from repro.errors import MPIRuntimeError
from repro.mpi import shm
from repro.mpi.communicator import Comm, _Group, _match, _timed_out
from repro.mpi.cost_model import NetworkModel, Traffic
from repro.obs import flight, trace
from repro.session import current

__all__ = ["ProcComm", "ProcWorldReport", "run_spmd_proc"]

#: Queue poll granularity while waiting for a message.
_POLL = 0.05

#: Shared counters pre-allocated per world (they must exist before the
#: ranks fork; each collective ``make_shared_counter`` call claims one).
_COUNTER_POOL = 64

#: Per-process point-to-point send sequence.  Shared by every
#: communicator object in the process so segment names (which embed the
#: sender's *world* rank) can never collide, even across nested
#: sub-communicators.
_PSEQ = itertools.count()

#: One sequence number per world launched by this process.  Folded into
#: the world uid so concurrent ``run_spmd_proc`` calls (driver threads
#: running several worlds at once) can never share a segment namespace —
#: the timestamp alone can collide at microsecond granularity, and a
#: shared uid would let one world's end-of-run sweep delete the other's
#: live segments.
_WSEQ = itertools.count()


class _ProcShared:
    """World state every rank process inherits: synchronization
    primitives, mailbox queues, the shared counter pool, and the segment
    namespace."""

    def __init__(self, size: int, timeout: float, uid: str) -> None:
        ctx = transport.CTX
        self.size = size
        self.timeout = timeout
        self.uid = uid
        self.barrier = ctx.Barrier(size)
        self.abort = ctx.Event()
        self.queues = [ctx.Queue() for _ in range(size)]
        self.counters = [ctx.Value("q", 0) for _ in range(_COUNTER_POOL)]
        # Flight-recorder beacons: each rank writes its last completed
        # aggregation round here as a side effect of note_round, so the
        # parent can report a *dead* rank's last round (the rank itself
        # ships nothing after a SIGKILL).  Single-writer per slot.
        self.rounds = [ctx.Value("q", -1, lock=False)
                       for _ in range(size)]

    def check(self) -> None:
        """Raise if the world was aborted (another rank failed)."""
        if self.abort.is_set():
            raise MPIRuntimeError("world failed (another rank aborted)")


class ProcWorldReport(Traffic):
    """Post-run accounting mirror of :class:`~repro.mpi.runtime.World`.

    Filled by the parent from each rank's report so code written
    against ``world_out`` (``total_bytes_sent``, ``max_net_time``)
    works unchanged on the proc backend.
    """


class _ProcBarrier:
    """The world barrier of the rank processes: the shared
    ``multiprocessing`` barrier, bounded by the world's deadline and
    failed by its abort flag."""

    def __init__(self, shared: _ProcShared) -> None:
        self._shared = shared

    def wait(self) -> None:
        s = self._shared
        s.check()
        try:
            s.barrier.wait(timeout=s.timeout)
        except threading.BrokenBarrierError:
            raise MPIRuntimeError(
                "barrier broken or timed out (another rank failed?)"
            ) from None


class _ProcMailbox:
    """A rank process's mailbox.  Posting writes the payload to a
    shared-memory segment and queues only ``(source, tag, segment)`` on
    the destination's queue; the one blocking wait drains this rank's
    queue into the pending store until a message matches."""

    def __init__(self, shared: _ProcShared, rank: int) -> None:
        self._shared = shared
        self._rank = rank
        # Messages drained off the queue but not yet matched, stamped
        # in arrival order.
        self.pending: Dict[Tuple[int, int], deque] = {}
        self._arrivals = itertools.count()

    def post(self, wdest: int, tag: int, payload: Any) -> None:
        s = self._shared
        s.check()
        name = f"{s.uid}p{self._rank}s{next(_PSEQ)}"
        shm.write_segment(name, payload)
        s.queues[wdest].put((self._rank, tag, name))

    def _drain(self, wait: float) -> bool:
        """Pull at most one queued message into the pending store."""
        try:
            src, tag, name = self._shared.queues[self._rank].get(
                timeout=wait
            )
        except queue_mod.Empty:
            return False
        payload = shm.read_segment(name)
        shm.unlink_segment(name)
        self.pending.setdefault((src, tag), deque()).append(
            (next(self._arrivals), payload))
        return True

    def wait(self, srcs, tag: int, take: bool, block: bool):
        """Match, draining the queue until a message matches (without
        ``block``: until the queue is empty) — bounded by the world's
        deadline and abort flag."""
        s = self._shared
        deadline = None
        while True:
            hit = _match(self.pending, srcs, tag, take)
            if hit is not None:
                return hit
            s.check()
            if not block:
                if not self._drain(0.0):
                    return None
                continue
            now = time.monotonic()
            if deadline is None:
                deadline = now + s.timeout
            elif now >= deadline:
                raise _timed_out(srcs, tag, s.timeout)
            self._drain(min(_POLL, deadline - now))


class ProcComm(Comm):
    """Rank-local communicator of the multi-process backend.

    Point-to-point, the collective algorithms (bcast/gather/allgather/
    alltoall/allreduce/scatter and their accounting) and the world
    barrier are :class:`Comm`'s; this class adds only the transport of
    the board exchange, the split into leader-relayed groups and the
    shared counters.
    """

    def __init__(self, shared: _ProcShared, world: Traffic, group: _Group,
                 world_rank: int, box: _ProcMailbox, ns: str = "w",
                 next_counter: int = 0) -> None:
        super().__init__(world, group, world_rank, box)
        self._shared = shared
        self._gen = 0          # collective generation (segment names)
        self._split_seq = 0    # split collectives issued (tag namespace)
        self._ns = ns          # communicator namespace (tag derivation)
        self._next_counter = next_counter

    # -- board exchange ------------------------------------------------
    def _segment(self, gen: int, rank: int) -> str:
        return f"{self._shared.uid}g{gen}r{rank}"

    def _board_exchange(self, item: Any) -> List[Any]:
        t0 = trace.now() if trace.TRACE_ON else 0.0
        gen = self._gen
        self._gen += 1
        own = self._segment(gen, self.world_rank)
        shm.write_segment(own, item)
        try:
            self._group.barrier.wait()
            out: List[Any] = []
            for src in range(self.size):
                if src == self.rank:
                    out.append(item)
                else:
                    out.append(shm.read_segment(
                        self._segment(gen, self._group.members[src])
                    ))
            self._group.barrier.wait()
        finally:
            shm.unlink_segment(own)
        if trace.TRACE_ON:
            self._stamp_coll("coll", t0)
        return out

    # -- communicator management ---------------------------------------
    def split(self, color, key: int = 0) -> "ProcGroupComm | None":
        """Partition by color (collective).  Group membership derives
        deterministically from one allgather; group collectives then run
        leader-relayed over reserved point-to-point tags."""
        seq = self._split_seq
        self._split_seq += 1
        members = self._split_members(color, key)
        if members is None:
            return None
        return ProcGroupComm(self, members, f"{self._ns}/{seq}")

    def make_shared_counter(self) -> shm.ShmCounter:
        """Claim one cross-process shared counter (collective: every
        rank claims the same pool slot).  The leader zeroes it; a
        barrier orders the reset before any use."""
        idx = self._next_counter
        self._next_counter += 1
        if idx >= len(self._shared.counters):
            raise MPIRuntimeError(
                f"shared counter pool exhausted ({idx} counters; the "
                "pool is sized at fork time)"
            )
        counter = shm.ShmCounter(self._shared.counters[idx])
        if self.rank == 0:
            counter.set(0)
        self._group.barrier.wait()
        return counter


#: Tag space reserved for group-communicator internals: far above any
#: tag application code plausibly uses on the world communicator.
_GROUP_TAG_BASE = 1 << 40


class ProcGroupComm(ProcComm):
    """A communicator over a subset of ranks on the proc backend.

    The world barrier and segment namespace cannot serve a subgroup, so
    collectives run a leader relay over point-to-point messages in a
    reserved tag namespace: members send their item to the group
    leader, the leader replies with the assembled board.  Tags derive
    from the group's namespace path (split lineage from the world
    communicator — identical on every member) plus a per-collective
    generation, so concurrent groups and back-to-back collectives
    never cross-match.
    """

    def __init__(self, parent: ProcComm, members: List[int],
                 ns: str) -> None:
        # Sibling groups of one split share the namespace string; the
        # leader's world rank (memberships are disjoint) disambiguates.
        group = _Group(members, None, f"g{ns}L{members[0]}")
        super().__init__(parent._shared, parent._world, group,
                         parent.world_rank, parent._box, ns,
                         parent._next_counter)
        self._tag_base = (
            _GROUP_TAG_BASE
            + zlib.crc32(ns.encode("ascii")) * (1 << 20)
        )

    def _board_exchange(self, item: Any) -> List[Any]:
        t0 = trace.now() if trace.TRACE_ON else 0.0
        gen = self._gen
        self._gen += 1
        up = self._tag_base + (gen % (1 << 19)) * 2
        down = up + 1
        members = self._group.members
        if self.rank == 0:  # the leader
            out = [item] + [
                self._box.wait((members[src],), up, True, True)[2]
                for src in range(1, self.size)
            ]
            for dst in range(1, self.size):
                self.send(dst, out, tag=down)
        else:
            self.send(0, item, tag=up)
            out = self._box.wait((members[0],), down, True, True)[2]
        if trace.TRACE_ON:
            self._stamp_coll("coll", t0)
        return out

    def barrier(self) -> None:
        if not trace.TRACE_ON:
            self._board_exchange(None)
            return
        with trace.span("mpi.barrier"):
            self._board_exchange(None)

    def make_shared_counter(self) -> shm.FileCounter:
        """Claim a cross-process shared counter (collective over the
        group).  The pre-forked pool belongs to the world communicator;
        a group created after the fork uses a file-backed counter at a
        path every member derives identically from the group's
        namespace lineage — no communication needed to agree on it."""
        seq = self._next_counter
        self._next_counter += 1
        # Sibling groups of one split share the namespace string, so the
        # leader's world rank (unique per sibling — memberships are
        # disjoint) disambiguates the path.
        path = os.path.join(
            tempfile.gettempdir(),
            f"{self._shared.uid}c{zlib.crc32(self._ns.encode()):08x}"
            f"L{self._group.members[0]}n{seq}",
        )
        counter = shm.FileCounter(path)
        if self.rank == 0:
            counter.set(0)
        self._board_exchange(None)
        return counter


# ----------------------------------------------------------------------
# Worker harness
# ----------------------------------------------------------------------
def _worker_main(shared: _ProcShared, rank: int, fn, args,
                 trace_on: bool, network: Optional[NetworkModel]) -> bytes:
    # Rank attribution for the tracer and phase accounting: the same
    # thread-name convention the thread backend uses.  The explicit pin
    # matters: if the parent's main thread ever resolved its own rank
    # (any tracing or flight note in the parent does), this forked
    # child inherits that cached 0 and the rename alone would not
    # shake it.
    threading.current_thread().name = f"rank-{rank}"
    trace.set_current_rank(rank)
    trace.set_tracing(trace_on)
    trace.TRACER.clear()
    # Fresh flight rings in the session ``fn`` notes into (fork
    # inherits the caller's, rings included), and a beacon writing this
    # rank's last completed round into shared memory so the parent can
    # report it even if this process is killed.
    recorder = current().flight
    recorder.clear()
    slot = shared.rounds[rank]

    def _beacon(index: int, _slot=slot) -> None:
        _slot.value = index

    recorder.set_beacon(_beacon)
    comm = ProcComm(shared, Traffic(shared.size, network),
                    _Group(range(shared.size), _ProcBarrier(shared), "w"),
                    rank, _ProcMailbox(shared, rank))
    outcome: Tuple[str, Any]
    try:
        with trace.span("spmd.rank", rank=rank):
            result = fn(comm, *args)
        outcome = ("ok", result)
    except BaseException as exc:  # noqa: BLE001 - must propagate all
        shared.abort.set()
        shared.barrier.abort()
        flight.note("rank_error", rank=rank,
                    type=type(exc).__name__, message=str(exc))
        outcome = ("err", exc)
    report = {
        "bytes_sent": comm._world.bytes_sent[rank],
        "messages_sent": comm._world.messages_sent[rank],
        "net_time": comm._world.net_time[rank],
        "spans": trace.TRACER.export_state() if trace.TRACE_ON else {},
        "flight": recorder.export_state(),
    }
    # Pickle here, so an unpicklable result or exception becomes this
    # rank's reported error rather than a rank dying without a report.
    try:
        blob = pickle.dumps((outcome[0], outcome[1], report), protocol=5)
    except Exception as exc:  # noqa: BLE001
        kind = "result" if outcome[0] == "ok" else "exception"
        blob = pickle.dumps(
            ("err",
             MPIRuntimeError(f"rank {rank}: unpicklable {kind}: {exc}"),
             report),
            protocol=5,
        )
    return blob


def _sweep_segments(uid: str) -> None:
    """Remove leftover segments and counter files of this run (crashed
    ranks leak theirs)."""
    for base in ("/dev/shm", tempfile.gettempdir()):
        try:
            names = os.listdir(base)
        except OSError:  # pragma: no cover - non-Linux shm layout
            continue
        for n in names:
            if n.startswith(uid):
                try:
                    os.unlink(os.path.join(base, n))
                except OSError:  # pragma: no cover - racing unlink
                    pass


def run_spmd_proc(
    size: int,
    fn: Callable[..., Any],
    *args: Any,
    network: Optional[NetworkModel] = None,
    world_out: Optional[list] = None,
    timeout: Optional[float] = None,
) -> List[Any]:
    """Run ``fn(comm, *args)`` on ``size`` rank *processes*.

    Same contract as :func:`repro.mpi.runtime.run_spmd`: returns
    per-rank results, re-raises the first rank failure, and fills
    ``world_out`` with a :class:`ProcWorldReport`.  Every rank's return
    value must be picklable; ``fn`` and ``args`` reach the ranks by
    fork.  Blocking waits
    give up after ``timeout`` seconds (default:
    :func:`~repro.deadline.recv_timeout`).  The world's flight record
    lands in the caller's current session.
    """
    if size < 1:
        raise MPIRuntimeError(f"world size must be >= 1, got {size}")
    tmo = timeout if timeout is not None else recv_timeout()
    uid = (f"rp{os.getpid():x}x"
           f"{int(time.monotonic() * 1e6) & 0xFFFFFF:x}"
           f"w{next(_WSEQ):x}")
    # Fresh flight state for this world: sim worlds run in parent
    # threads and leave last-round markers behind; without the clear a
    # stale marker would win the max() against a dead rank's beacon.
    recorder = current().flight
    recorder.clear()
    report = ProcWorldReport(size)
    if world_out is not None:
        world_out.append(report)

    # Only the launch is serialized: concurrent worlds still run at once.
    with transport.LAUNCH:
        shared = _ProcShared(size, tmo, uid)
        ranks = [
            transport.spawn_reporting(
                _worker_main,
                (shared, r, fn, args, trace.TRACE_ON, network), f"rank-{r}")
            for r in range(size)
        ]

    results: List[Any] = [None] * size
    failures: List[Tuple[int, BaseException]] = []
    died: List[int] = []
    try:
        for r, blob in transport.reports(ranks, tmo + 10.0):
            if blob is None:
                # Dead without reporting (SIGKILL, OOM), or silent past
                # the world deadline: fail the world on its behalf.
                shared.abort.set()
                shared.barrier.abort()
                code = ranks[r][0].exitcode
                if code is not None:
                    died.append(r)
                failures.append((r, MPIRuntimeError(
                    f"rank {r} died without reporting (exit code {code})"
                    if code is not None else
                    f"rank {r} unresponsive past the {tmo:.0f}s world "
                    "timeout")))
                continue
            kind, value, rep = pickle.loads(blob)
            report.bytes_sent[r] = rep["bytes_sent"]
            report.messages_sent[r] = rep["messages_sent"]
            report.net_time[r] = rep["net_time"]
            if rep["spans"]:
                trace.TRACER.ingest_state(rep["spans"])
            if rep.get("flight"):
                recorder.ingest_state(rep["flight"])
            if kind == "ok":
                results[r] = value
            else:
                failures.append((r, value))
    finally:
        transport.reap([p for p, _reader in ranks])
        _sweep_segments(uid)

    if failures:
        # Prefer a primary failure over secondary broken-world errors,
        # matching the thread backend's first-failure-wins contract.
        primary_rank, primary = next(
            ((r, f) for r, f in failures
             if not isinstance(f, MPIRuntimeError)),
            failures[0],
        )
        # A rank that died without reporting (SIGKILL, OOM) is the
        # failure to name, even when a survivor's error drained first.
        if died and not any(not isinstance(f, MPIRuntimeError)
                            for _r, f in failures):
            primary_rank = min(died)
        flight.dump_on_abort(
            primary, backend="proc",
            failed_rank=primary_rank,
            failed_ranks=sorted({r for r, _f in failures}),
            last_rounds={
                r: shared.rounds[r].value for r in range(size)
                if shared.rounds[r].value >= 0
            },
            world_size=size,
            recorder=recorder,
        )
        raise primary
    return results
