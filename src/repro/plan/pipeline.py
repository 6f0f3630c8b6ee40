"""The deferred file-I/O worker for pipelined collective rounds.

The pipelined plan shape (``docs/collective.md``) overlaps round *N*'s
file access with round *N+1*'s pack/exchange.  The executor offloads
pipeline-eligible (``overlap``) file ops to one :class:`DeferredWorker`
per executor: the op is *issued* at submit — the simulated device
starts working it off then (see the executor's device-overlap model) —
and its byte work is applied on the submitting thread at the next
drain.  A background thread would add handoff and GIL-contention cost
for what is a memcpy against the file's buffer (or its mapping), while
hiding nothing the device-overlap model does not already express.

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

import time
from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs import trace

__all__ = ["FileJob", "DeferredWorker"]


def _stamp_submit(job: "FileJob") -> None:
    """Stamp the causal ``submit`` edge for an offloaded job (no-op when
    tracing is off).  The matching ``complete`` edge is stamped where
    the job finishes running; :mod:`repro.obs.causal` pairs them by the
    ``("pipe", rank, seq)`` key."""
    if not trace.TRACE_ON:
        return
    job.rank = trace._current_rank()
    job.seq = trace.TRACER.seq(("p", job.rank))
    trace.add_edge("submit", ("pipe", job.rank, job.seq),
                   t0=job.t_issue, t1=job.t_issue)


def _stamp_complete(job: "FileJob") -> None:
    """Stamp the ``complete`` edge once the job has run.  The rank comes
    from the job (stamped at submit), and ``sid`` is pinned to -1 — the
    job is not part of the span open at the drain that applies it."""
    if job.seq < 0 or not trace.TRACE_ON:
        return
    trace.TRACER.edge("complete", ("pipe", job.rank, job.seq),
                      t0=job.t0, t1=job.t1, rank=job.rank, sid=-1)


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
        #: simulated device seconds this op costs (fed to the executor's
        #: device-overlap model when the job is absorbed)
        self.dev_seconds = dev_seconds
        self.seconds = 0.0
        #: perf_counter at submit — when the (simulated) device can
        #: start the op; stamped by the worker's ``submit``
        self.t_issue = 0.0
        self.t0 = 0.0
        self.t1 = 0.0
        #: causal-edge identity, stamped at submit when tracing is on:
        #: the n-th job submitted by ``rank`` (-1 = untraced)
        self.seq = -1
        self.rank = -1


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

    Created lazily by the executor on the first ``overlap`` op and kept
    across plan runs; the executor closes it with the owning file
    handle, or discards it after an abort.
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
        job.t_issue = time.perf_counter()
        _stamp_submit(job)
        self._queue.append(job)
        self.inflight += 1
        self._inflight_bytes += job.nbytes
        if self._inflight_bytes > self.peak_inflight_bytes:
            self.peak_inflight_bytes = self._inflight_bytes

    def _apply(self, job: FileJob) -> None:
        t0 = time.perf_counter()
        try:
            job.run()
        except BaseException as e:  # noqa: BLE001 - re-raised by caller
            self._error = e
            self.inflight = 0
            self._inflight_bytes = 0
            self._queue.clear()
            raise
        finally:
            t1 = time.perf_counter()
            job.t0, job.t1 = t0, t1
            job.seconds = t1 - t0
        _stamp_complete(job)
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
