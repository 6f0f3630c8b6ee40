"""The two-phase round driver: round markers, and the deferred file-I/O
worker of pipelined rounds.

Only the round-based two-phase collective (``docs/collective.md``)
emits :class:`~repro.plan.ops.RoundOp`, :class:`~repro.plan.ops.
DrainOp` and ``overlap`` file ops.  They lower to the step handlers
here (``handler(executor, plan, op, mem, bufs)``, as the executor's
own), whose state lives on one :class:`RoundState` per executor,
created by the first round or overlap op; an independent run never
touches it.

The pipelined plan shape overlaps round *N*'s file access with round
*N+1*'s pack/exchange.  The executor offloads pipeline-eligible
(``overlap``) file ops to one :class:`DeferredWorker` per executor: the
op is *issued* at submit — the simulated device starts working it off
then (see :func:`_absorb`'s device-overlap model) — and its byte work
is applied on the submitting thread at the next drain.  A background
thread would add handoff and GIL-contention cost for what is a memcpy
against the file's buffer (or its mapping), while hiding nothing the
device-overlap model does not already express.

Design constraints the worker upholds:

*Ordering.*  Jobs are applied strictly in submission order — a rank's
windows are submitted in round order, so file ops per IOP stay
sequenced by round even though they run off the critical path.

*Publication at drain.*  Jobs never touch the executor's shared staging
table: a read job fills job-local buffers which the executor publishes
when it drains (:class:`~repro.plan.ops.DrainOp`).  The live staging
table therefore holds exactly the serial plan's buffers at every
accounting point, keeping ``peak_staging_bytes`` — the staging bound
the round-based collective exists to enforce — literally unchanged;
the extra in-flight window is tracked separately
(``pipeline_inflight_peak_bytes``).

*Prompt failure.*  Jobs only do rank-local file work (no communication),
so they always terminate; the first job error clears the queue and is
re-raised by that drain and every later one — a rank failing
mid-pipeline surfaces through the runtime's usual abort paths.
"""

from __future__ import annotations

import sys
from collections import deque
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import blockprog
from repro.obs import flight, trace
from repro.plan.dataplane import (DataPlane, StageBuf, dense_window,
                                  tuple_arrays)
from repro.plan.ops import Blocks, TupleBlocks

__all__ = ["FileJob", "DeferredWorker", "RoundState"]


class FileJob:
    """One offloaded file op: a closure plus its accounting metadata.

    ``publishes`` maps staging slots to the buffers the job fills
    (reads) — applied to the plan's staging table by the main thread at
    drain time.  ``round_index`` attributes the job's seconds to its
    :class:`~repro.obs.phases.RoundLog` row; ``nreads``/``nwrites`` are
    the file accesses the closure performs (merged into executor stats
    at drain, so the counters stay single-writer).
    """

    __slots__ = ("run", "kind", "round_index", "nbytes", "publishes",
                 "nreads", "nwrites", "dev_seconds", "seconds",
                 "t_issue", "t0", "t1", "seq", "rank")

    def __init__(self, run: Callable[[], None], kind: str,
                 round_index: int, nbytes: int,
                 publishes: Sequence[Tuple[object, object]] = (),
                 nreads: int = 0, nwrites: int = 0,
                 dev_seconds: float = 0.0) -> None:
        self.run = run
        self.kind = kind
        self.round_index = round_index
        self.nbytes = nbytes
        self.publishes = tuple(publishes)
        self.nreads = nreads
        self.nwrites = nwrites
        #: simulated device seconds this op costs (fed to the
        #: device-overlap model when the job is absorbed)
        self.dev_seconds = dev_seconds
        #: perf_counter at submit (when the simulated device can start
        #: the op), at the run's start and end, and the run's seconds
        self.t_issue = self.t0 = self.t1 = self.seconds = 0.0
        #: causal-edge identity, stamped at submit when tracing is on:
        #: the n-th job submitted by ``rank`` (-1 = untraced)
        self.seq = self.rank = -1


class DeferredWorker:
    """FIFO deferred apply of :class:`FileJob`\\ s (no thread).

    Jobs are queued at submit — the point at which the *simulated*
    device starts working them off, per ``FileJob.t_issue`` — and their
    actual byte work is applied in FIFO order on the calling thread at
    the next :meth:`drain`.  Their seconds are therefore already inside
    the round wall, so the executor moves them out of ``file_io`` into
    ``pipeline_io`` instead of double-counting.  The first job error
    clears the queue and re-raises at drain; ``close`` without
    ``raise_error`` discards queued work on the abort path.

    Created lazily on an executor's first ``overlap`` op and kept
    across plan runs; the executor closes it with the owning file
    handle, or :func:`finish` discards it after an abort.
    """

    def __init__(self) -> None:
        self._queue: deque = deque()
        self._done: List[FileJob] = []
        self._error: Optional[BaseException] = None
        #: jobs submitted but not yet applied
        self.inflight = 0
        self._inflight_bytes = 0
        #: high-water mark of in-flight job buffer bytes
        self.peak_inflight_bytes = 0

    def submit(self, job: FileJob) -> None:
        if self._error is not None:
            raise self._error
        job.t_issue = perf_counter()
        if trace.TRACE_ON:
            # The causal ``submit`` edge; :mod:`repro.obs.causal` pairs
            # it with the ``complete`` edge by ``("pipe", rank, seq)``.
            job.rank = trace._current_rank()
            job.seq = trace.TRACER.seq(("p", job.rank))
            trace.add_edge("submit", ("pipe", job.rank, job.seq),
                           t0=job.t_issue, t1=job.t_issue)
        self._queue.append(job)
        self.inflight += 1
        self._inflight_bytes += job.nbytes
        if self._inflight_bytes > self.peak_inflight_bytes:
            self.peak_inflight_bytes = self._inflight_bytes

    def _apply(self, job: FileJob) -> None:
        t0 = perf_counter()
        try:
            job.run()
        except BaseException as e:  # noqa: BLE001 - re-raised by caller
            self._error = e
            self.inflight = 0
            self._inflight_bytes = 0
            self._queue.clear()
            raise
        finally:
            t1 = perf_counter()
            job.t0, job.t1 = t0, t1
            job.seconds = t1 - t0
        if job.seq >= 0 and trace.TRACE_ON:
            # ``sid`` -1: the job is not part of the span open at the
            # drain that applies it.
            trace.TRACER.edge("complete", ("pipe", job.rank, job.seq),
                              t0=t0, t1=t1, rank=job.rank, sid=-1)
        self.inflight -= 1
        self._inflight_bytes -= job.nbytes
        self._done.append(job)

    def drain(self, keep: int = 0) -> List[FileJob]:
        """Apply queued jobs until at most ``keep`` remain; returns the
        jobs completed since the last drain.  Raises the first job
        error (queued work is dropped)."""
        if self._error is not None:
            raise self._error
        while self.inflight > keep:
            self._apply(self._queue.popleft())
        out = self._done
        self._done = []
        return out

    def close(self, raise_error: bool = True) -> List[FileJob]:
        """Drain fully (normal path) or drop queued work (abort path:
        ``raise_error=False`` — an exception is already propagating, so
        unapplied deferred writes must not land)."""
        if raise_error:
            return self.drain(0)
        self._queue.clear()
        self.inflight = 0
        self._inflight_bytes = 0
        out = self._done
        self._done = []
        return out


class RoundState:
    """An executor's ``round_state``: ``cur``, ``(index, total, t0,
    exchange0, file_io0)`` of the open round — None between runs, so
    only a run that opened a round has anything to settle at its end
    (every overlap op sits inside a round); the deferred ``worker``;
    ``dev_free_at``, when the simulated device finishes the offloaded
    ops absorbed so far.  Per run (:func:`finish` clears them): jobs
    not yet published (their round has not drained), async seconds of
    rounds not yet closed, RoundLog rows to back-fill, and ``comp``,
    worker seconds the executor moves out of ``file_io`` at the next
    op boundary (jobs run on this thread inside a drain)."""

    __slots__ = ("cur", "worker", "dev_free_at", "unpublished",
                 "pending_async", "round_rows", "comp")

    def __init__(self) -> None:
        self.cur = None
        self.worker: Optional[DeferredWorker] = None
        self.dev_free_at = 0.0
        self.unpublished: List[FileJob] = []
        self.pending_async: Dict[int, float] = {}
        self.round_rows: Dict[int, dict] = {}
        self.comp = 0.0


def _start(ex) -> RoundState:
    ex.round_state = state = RoundState()
    return state


def round_index(ex) -> int:
    """Index of the executor's open round, else -1."""
    state = ex.round_state
    cur = state.cur if state is not None else None
    return cur[0] if cur is not None else -1


# ----------------------------------------------------------------------
# Round markers
# ----------------------------------------------------------------------
def open_round(ex, plan, op, mem, bufs) -> None:
    """RoundOp step: close the previous round's record, open the next.
    The deltas of the exchange/file_io buckets over the round's span
    are its per-phase decomposition.  A marker has no phase bucket, so
    it bills its own op."""
    state = ex.round_state or _start(ex)
    t0 = perf_counter()
    _close_round(ex, state, plan, t0)
    phases = ex.phases
    state.cur = (op.index, op.total, t0, phases.exchange, phases.file_io)
    stats = ex.stats
    stats._executed_ops += 1
    stats.executed_rounds += 1


def _close_round(ex, state, plan, t_end: float) -> None:
    if state.cur is None:
        return
    index, total, t0, ex0, io0 = state.cur
    state.cur = None
    phases = ex.phases
    row = ex.rounds.add(
        index, total, t_end - t0,
        phases.exchange - ex0, phases.file_io - io0,
        file_io_async=state.pending_async.pop(index, 0.0),
    )
    # Keep the row addressable: offloaded file ops of this round may
    # complete after it closes, and back-fill ``file_io_async``.
    state.round_rows[index] = row
    flight.note_round(index, total)
    if trace.TRACE_ON:
        trace.TRACER.add("aggregation.round", t0, index=index,
                         total=total, plan=plan.kind)


# ----------------------------------------------------------------------
# Pipelined (overlap) file ops: reads prefetch into job buffers
# published at a DrainOp; assemble writes capture their payload views
# at submit and write at the next drain.  Jobs call the raw file
# primitives with the delta captured at submit; counters are updated
# when a drain absorbs them.
# ----------------------------------------------------------------------
def _device_cost(f, kind: str, offset: int, nbytes: int) -> float:
    """Simulated device seconds one offloaded file op will cost (0 on a
    real file: real devices are measured, not modelled)."""
    cost = f.device.read_time if kind == "read" else f.device.write_time
    return cost(nbytes, f.striping.streams_for(offset, nbytes))


def _prepare_blocks(blocks) -> None:
    """Force the block spec's memoized artifacts into existence at
    submit, so the job applied at drain only ever reads them."""
    if isinstance(blocks, Blocks):
        blockprog.program_for_blocks(blocks)
    elif isinstance(blocks, TupleBlocks):
        tuple_arrays(blocks)


def submit_read(ex, plan, op, mem, bufs) -> None:
    """Overlap FileReadOp step: queue the window's read (a prefetch)."""
    state = ex.round_state or _start(ex)
    if state.worker is None:
        state.worker = DeferredWorker()
    f = ex.file
    pread = f.pread_into
    fdelta = ex._fdelta
    lo, hi = op.lo, op.hi
    targets = []
    for piece in op.pieces:
        _prepare_blocks(piece.blocks)
        targets.append((piece, StageBuf(piece.d_lo, piece.d_hi, np.empty(
            piece.d_hi - piece.d_lo, dtype=np.uint8))))
    dense = dense_window(op)

    def job_read():
        fb = (targets[0][1].arr if dense
              else np.empty(hi - lo, dtype=np.uint8))
        # Zero only past the bytes read (EOF), never the whole window.
        fb[pread(lo + fdelta, fb):] = 0
        if not dense:
            for piece, buf in targets:
                DataPlane.gather(fb, lo, piece.blocks, buf.arr,
                                 piece.d_lo - buf.d_lo)

    rnd = op.round if op.round >= 0 else round_index(ex)
    state.worker.submit(FileJob(
        job_read, "read", rnd, hi - lo, nreads=1,
        publishes=[(piece.slot, buf) for piece, buf in targets],
        dev_seconds=_device_cost(f, "read", lo + fdelta, hi - lo),
    ))
    ex.stats.pipelined_file_ops += 1


def submit_write(ex, plan, op, mem, bufs) -> None:
    """Overlap FileWriteOp step: queue the window's assembled write."""
    state = ex.round_state or _start(ex)
    if state.worker is None:
        state.worker = DeferredWorker()
    # Double buffer: at most one window in flight behind this one.
    drain(ex, plan, 1, bufs)
    f = ex.file
    pwrite = f.pwrite
    fdelta = ex._fdelta
    lo, hi = op.lo, op.hi
    views = []
    for piece in op.pieces:
        _prepare_blocks(piece.blocks)
        arr, base, _zc = ex._payload_view(bufs, piece)
        views.append((piece, arr, base))

    def job_write():
        fb = np.empty(hi - lo, dtype=np.uint8)
        for piece, arr, base in views:
            DataPlane.scatter(fb, lo, piece.blocks, arr, piece.d_lo - base)
        pwrite(lo + fdelta, fb)

    state.worker.submit(FileJob(
        job_write, "write", round_index(ex), hi - lo, nwrites=1,
        dev_seconds=_device_cost(f, "write", lo + fdelta, hi - lo),
    ))
    ex.stats.pipelined_file_ops += 1


def drain_op(ex, plan, op, mem, bufs) -> None:
    """DrainOp step: apply queued jobs until ``op.keep`` remain."""
    drain(ex, plan, op.keep, bufs)


def drain(ex, plan, keep: int, bufs) -> None:
    """Apply the worker's queued jobs until ``keep`` remain and absorb
    them (no-op without a worker).  Synchronous file ops drain with
    ``keep=0`` first: every offloaded op lands before them."""
    state = ex.round_state
    worker = state.worker if state is not None else None
    if worker is None:
        return
    t0 = perf_counter()
    done = worker.drain(keep)
    ex.stats.pipeline_wait_seconds += perf_counter() - t0
    cur = state.cur
    _absorb(ex, state, plan, done, cur[0] if cur is not None else None,
            bufs, complete=keep == 0)


def _absorb(ex, state, plan, done, cur_index, bufs,
            complete: bool = False) -> None:
    """Merge completed jobs' accounting and publish their buffers —
    except for jobs of rounds *after* the current one (an early
    prefetch), whose buffers reuse per-peer slot keys the current
    round's exchange still reads.  ``complete`` marks a drain that
    needs the ops *finished*: device time still outstanding then was
    not hidden and is charged to ``device_stall_seconds``.
    """
    stats = ex.stats
    for job in done:
        stats.pipeline_file_seconds += job.seconds
        # Worker file time gets its own phase bucket.  The jobs ran on
        # this thread inside a ``file_io``-bucketed drain, so their
        # seconds are *moved* there via ``comp``.
        ex.phases.pipeline_io += job.seconds
        state.comp += job.seconds
        stats._executed_file_reads += job.nreads
        stats._executed_file_writes += job.nwrites
        if job.dev_seconds:
            # The device starts an offloaded op when it is issued (no
            # earlier than the previous op finishing) and works it off
            # concurrently with main-thread CPU.
            start = max(job.t_issue, state.dev_free_at)
            state.dev_free_at = start + job.dev_seconds
            stats.device_async_seconds += job.dev_seconds
        row = state.round_rows.get(job.round_index)
        if row is not None:
            row["file_io_async"] += job.seconds
        elif job.round_index >= 0:
            state.pending_async[job.round_index] = (
                state.pending_async.get(job.round_index, 0.0)
                + job.seconds
            )
        if trace.TRACE_ON:
            trace.TRACER.add(
                f"exec.async.{job.kind}", job.t0, job.t1,
                round=job.round_index, plan=plan.kind,
            )
    pending = state.unpublished + [j for j in done if j.publishes]
    state.unpublished = []
    published = False
    for job in pending:
        if cur_index is not None and job.round_index > cur_index:
            state.unpublished.append(job)
            continue
        for slot, buf in job.publishes:
            ex._put(bufs, slot, buf, buf.arr.nbytes)
            published = True
    if published:
        ex._note_staging()
    if complete or published:
        now_t = perf_counter()
        if state.dev_free_at > now_t:
            stats.device_stall_seconds += state.dev_free_at - now_t
            state.dev_free_at = now_t
    if state.worker is not None:
        peak = state.worker.peak_inflight_bytes
        if peak > stats.pipeline_inflight_peak_bytes:
            stats.pipeline_inflight_peak_bytes = peak


def finish(ex, plan, bufs) -> None:
    """Settle the round state at the end of a run that opened a round
    (from the executor's ``finally``): close the open round, settle the
    worker, and clear the per-run fields.

    Normally the plan's final ``DrainOp(0)`` drained everything and the
    worker is kept for the next run.  On the abort path (an exception
    propagating, or the drain surfacing a worker error) it is closed —
    dropping queued jobs, so no deferred write lands after the failure
    — and discarded; its own error never masks an exception already
    propagating.
    """
    state = ex.round_state
    try:
        _close_round(ex, state, plan, perf_counter())
        worker = state.worker
        if worker is None:
            return
        aborting = sys.exc_info()[0] is not None
        try:
            done = (worker.close(raise_error=False) if aborting
                    else worker.drain(0))
        except BaseException:
            state.worker = None
            worker.close(raise_error=False)
            raise
        _absorb(ex, state, plan, done, None, bufs, complete=True)
        if aborting:
            state.worker = None
    finally:
        # Jobs absorbed here ran outside any op's timed window, so
        # there is no double-counted ``file_io`` to compensate — drop
        # it.
        state.unpublished = []
        state.pending_async = {}
        state.round_rows = {}
        state.comp = 0.0
