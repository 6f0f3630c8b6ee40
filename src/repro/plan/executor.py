"""The plan executor: run an :class:`~repro.plan.plan.IOPlan` against a file.

The executor is the only place where plan ops touch bytes.  It is
deliberately dumb — every decision (windows, coalescing, sieving, pre-read
skipping, exchange schedule) was already taken by the planner and is
encoded in the ops; the executor just dispatches them.

One executor, :class:`PlanExecutor`, serves every backend.  It calls the
file's primitives directly — ``pread_into``, ``pwrite``,
``preadv_blocks``, ``pwritev_blocks``, ``lock_range``, ``unlock_range``
— and reads its ``stats``, ``device`` and ``striping``.  A
:class:`~repro.fs.simfile.SimFile`, an :class:`~repro.fs.posix.OsFile`,
a :class:`~repro.fs.sharded.ShardedFile` and the cursor-based
:class:`~repro.fs.posix.PosixFile` all provide that surface, so the very
plan an engine emits runs unchanged on each of them.

The *memory* side of gather/scatter ops is delegated to a ``codec``
(normally the emitting engine), so each engine keeps its characteristic
representation costs; the *file* side — every block copy between window
buffers and staging — goes through the shared
:class:`~repro.plan.dataplane.DataPlane` facade, which batches it.
:data:`~repro.plan.ops.MEM` pieces (sieved independent windows) skip
staging: one ``DataPlane`` pair-program call copies between the file
buffer and user memory, billed to the ``pack``/``unpack`` phase.

Plans from the planner's replay fast path execute with a ``file_delta``:
every file offset the plan names (windows, direct blocks, lock ranges)
is translated by that many bytes at dispatch time, so one relocatable
plan serves every period-translated access of the same shape.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from repro.core import blockprog
from repro.errors import IOEngineError
from repro.io.fileview import MemDescriptor
from repro.io.sieving import read_window
from repro.obs import flight, trace
from repro.obs.phases import PhaseAccumulator, RoundLog
from repro.plan.dataplane import DataPlane, block_arrays, tuple_arrays
from repro.plan.ops import (
    MEM,
    STAGE,
    Blocks,
    DrainOp,
    ExchangeOp,
    FileReadOp,
    FileWriteOp,
    GatherOp,
    LockOp,
    Piece,
    RoundOp,
    ScatterOp,
    Send,
    ShipOp,
    TupleBlocks,
    UnlockOp,
    in_slot,
)
from repro.plan.pipeline import DeferredWorker, FileJob
from repro.plan.plan import IOPlan
from repro.plan.stats import PlanStats

__all__ = ["MemCodec", "KernelCodec", "PlanExecutor"]


class MemCodec(Protocol):
    """Memory-side pack/unpack used by gather/scatter ops.

    Offsets are relative to the start of the access (the plan's ``d0``).
    The four ``stream_*`` hooks back deferred (``blocks=None``) pieces;
    only engines that emit such pieces need to provide them.
    """

    def pack_mem(self, mem: MemDescriptor, d_lo: int, d_hi: int,
                 out: np.ndarray) -> None: ...

    def unpack_mem(self, mem: MemDescriptor, d_lo: int, d_hi: int,
                   data: np.ndarray) -> None: ...

    # Optional: ``note_mem_copy(mem)`` is called once per MEM-piece
    # copy, to count the memory-side kernel call.


class KernelCodec:
    """Standalone codec using the flattening-on-the-fly kernels."""

    def pack_mem(self, mem, d_lo, d_hi, out):
        if mem.is_contiguous:
            out[: d_hi - d_lo] = mem.contiguous_slice(d_lo, d_hi - d_lo)
            return
        from repro.core.ff_pack import ff_pack

        ff_pack(mem.buf, mem.count, mem.memtype, d_lo, out, d_hi - d_lo,
                origin=mem.origin)

    def unpack_mem(self, mem, d_lo, d_hi, data):
        if mem.is_contiguous:
            mem.contiguous_slice(d_lo, d_hi - d_lo)[...] = data[: d_hi - d_lo]
            return
        from repro.core.ff_pack import ff_unpack

        ff_unpack(data, d_hi - d_lo, mem.buf, mem.count, mem.memtype, d_lo,
                  origin=mem.origin)


class _Buf:
    """A staging buffer: ``arr`` holds data bytes ``[d_lo, d_hi)``.

    ``zero_copy`` marks ``arr`` as a view of the user buffer itself, in
    which case scatter ops are no-ops (the data is already in place).
    """

    __slots__ = ("d_lo", "d_hi", "arr", "zero_copy")

    def __init__(self, d_lo: int, d_hi: int, arr: np.ndarray,
                 zero_copy: bool = False) -> None:
        self.d_lo = d_lo
        self.d_hi = d_hi
        self.arr = arr
        self.zero_copy = zero_copy


class PlanExecutor:
    """Runs plans against ``file``: any backend with the file primitive
    surface (see the module docstring)."""

    def __init__(self, file, codec=None, comm=None,
                 stats: Optional[PlanStats] = None,
                 phases: Optional[PhaseAccumulator] = None,
                 rounds: Optional[RoundLog] = None) -> None:
        self.file = file
        # The backend's file stats keep the simulated device seconds of
        # each thread's last one-extent op: bind the reader once.
        self._charged = file.stats.last_seconds
        self.codec = codec if codec is not None else KernelCodec()
        self.comm = comm
        self.stats = stats if stats is not None else PlanStats()
        #: Per-phase wall-time buckets this executor accumulates into
        #: (normally the owning engine's; see ``repro.obs.phases``).
        self.phases = phases if phases is not None else PhaseAccumulator()
        #: Per-round exchange/file_io decomposition of collectives.
        self.rounds = rounds if rounds is not None else RoundLog()
        #: File-offset translation of the plan currently running (set by
        #: :meth:`run` from its ``file_delta`` argument; 0 outside runs).
        self._fdelta = 0
        #: Deferred-apply worker for ``overlap`` file ops.  Created
        #: lazily on the first ``overlap`` op, reused across plan runs,
        #: closed with the executor (:meth:`close`).
        self._worker = None
        #: Device-overlap model: perf_counter timestamp at which the
        #: simulated device finishes the offloaded ops absorbed so far.
        #: Device seconds still outstanding when a drain requires
        #: completion are charged to ``device_stall_seconds``; the rest
        #: were hidden behind main-thread CPU.
        self._dev_free_at = 0.0
        #: Completed prefetch jobs whose buffers are not yet published
        #: (their round hasn't drained — publishing early would clobber
        #: the buffers the current round's exchange is about to send).
        self._unpublished = []
        #: Async file seconds per round index, for rounds not yet closed.
        self._pending_async: Dict[int, float] = {}
        #: Worker seconds to move out of ``file_io`` into
        #: ``pipeline_io`` at the next op-accounting point (the deferred
        #: worker runs jobs on this thread inside a ``file_io``-bucketed
        #: drain, so the raw bucket double-counts them).
        self._inline_comp = 0.0
        #: Live RoundLog rows of the current run, for back-filling
        #: ``file_io_async`` when an offloaded op completes after its
        #: round closed.
        self._round_rows: Dict[int, dict] = {}
        #: The codec's optional MEM-copy hook (see :class:`MemCodec`).
        self._note_mem = getattr(self.codec, "note_mem_copy", None)

    # ------------------------------------------------------------------
    def run(self, plan: IOPlan, mem: Optional[MemDescriptor] = None,
            buffers: Optional[dict] = None, file_delta: int = 0) -> dict:
        """Execute ``plan``; returns the final staging-buffer table.

        ``mem`` is required when the plan contains gather/scatter ops
        or :data:`~repro.plan.ops.MEM` pieces.
        ``buffers`` seeds the staging table (used to hand the inbound
        payloads of one plan's exchange to a follow-up plan).
        ``file_delta`` translates every file offset the plan names —
        the replay fast path re-binds a cached relocatable plan to a
        period-translated access this way.
        """
        bufs: Dict[object, object] = dict(buffers) if buffers else {}
        held = []
        stats = self.stats
        phases = self.phases
        now = time.perf_counter
        cur_round = None
        self._fdelta = file_delta
        self._unpublished = []
        self._pending_async = {}
        self._round_rows = {}
        self._inline_comp = 0.0
        try:
            for op in plan.ops:
                t0 = now()
                if isinstance(op, RoundOp):
                    # Round marker: close the previous round's record,
                    # open the next.  The deltas of the exchange/file_io
                    # buckets over the round's span are its per-phase
                    # decomposition.
                    self._close_round(plan, cur_round, t0)
                    cur_round = (op.index, op.total, t0,
                                 phases.exchange, phases.file_io)
                    stats.executed_rounds += 1
                    stats.executed_ops += 1
                    continue
                if isinstance(op, GatherOp):
                    self._do_gather(plan, op, mem, bufs)
                    self._note_staging(bufs)
                    bucket = "pack"
                elif isinstance(op, ScatterOp):
                    self._do_scatter(plan, op, mem, bufs)
                    bucket = "unpack"
                elif isinstance(op, FileReadOp):
                    if op.overlap:
                        # No sync fallback here: an overlap read was
                        # hoisted ahead of the previous round's exchange,
                        # so executing it synchronously would publish its
                        # buffers early and corrupt that exchange.  The
                        # planner only marks offloadable reads.
                        if not self._can_offload(op):
                            raise IOEngineError(
                                "overlap read op carries deferred "
                                "pieces — planner contract violation"
                            )
                        self._submit_file_read(plan, op, cur_round, bufs)
                    else:
                        self._do_file_read(plan, op, mem, bufs)
                        self._note_staging(bufs)
                    bucket = "file_io"
                elif isinstance(op, FileWriteOp):
                    if op.overlap and self._can_offload(op):
                        self._submit_file_write(plan, op, cur_round, bufs)
                    else:
                        # Ordered path (rmw windows): every offloaded op
                        # must land before a synchronous file op runs.
                        if self._worker is not None:
                            self._drain_worker(plan, 0, cur_round, bufs)
                        self._do_file_write(plan, op, mem, bufs)
                    bucket = "file_io"
                elif isinstance(op, DrainOp):
                    self._drain_worker(plan, op.keep, cur_round, bufs)
                    bucket = "file_io"
                elif isinstance(op, LockOp):
                    self.file.lock_range(op.lo + file_delta, op.hi + file_delta)
                    held.append((op.lo + file_delta, op.hi + file_delta))
                    stats.executed_locks += 1
                    bucket = "lock"
                elif isinstance(op, UnlockOp):
                    self.file.unlock_range(op.lo + file_delta,
                                           op.hi + file_delta)
                    held.remove((op.lo + file_delta, op.hi + file_delta))
                    bucket = "lock"
                elif isinstance(op, ExchangeOp):
                    self._do_exchange(plan, op, bufs,
                                      in_round=cur_round is not None)
                    self._note_staging(bufs)
                    stats.executed_exchanges += 1
                    bucket = "exchange"
                elif isinstance(op, ShipOp):
                    from repro.io import shipping

                    if op.write and self._worker is not None:
                        # Same ordering contract as synchronous writes:
                        # offloaded ops land before the shipped write.
                        self._drain_worker(plan, 0, cur_round, bufs)
                    shipping.execute_ship(
                        self, plan, op, mem, bufs,
                        cur_round[0] if cur_round is not None else -1,
                    )
                    self._note_staging(bufs)
                    bucket = "ship"
                else:
                    raise IOEngineError(f"unknown plan op {op!r}")
                stats.executed_ops += 1
                phases.add(bucket, now() - t0)
                comp = self._inline_comp
                if comp:
                    # Worker jobs ran on this thread inside the op just
                    # charged to ``file_io``; their seconds were credited
                    # to ``pipeline_io`` at absorb, so take them back out
                    # of ``file_io`` (clamped — never drive it negative).
                    self._inline_comp = 0.0
                    phases.add("file_io", -min(comp, phases.file_io))
                if trace.TRACE_ON:
                    trace.TRACER.add(
                        f"exec.{type(op).__name__}", t0, plan=plan.kind
                    )
        finally:
            self._fdelta = 0
            self._close_round(plan, cur_round, now())
            if self._worker is not None:
                self._finish_worker(plan, bufs)
            # A failing op must never leave byte-range locks behind
            # (other ranks would deadlock on their next sieved write).
            # ``held`` stores translated ranges, so release them as-is.
            for lo, hi in reversed(held):
                self.file.unlock_range(lo, hi)
        return bufs

    def _close_round(self, plan, state, t_end: float) -> None:
        if state is None:
            return
        index, total, t0, ex0, io0 = state
        phases = self.phases
        row = self.rounds.add(
            index, total, t_end - t0,
            phases.exchange - ex0, phases.file_io - io0,
            file_io_async=self._pending_async.pop(index, 0.0),
        )
        # Keep the row addressable: offloaded file ops of this round may
        # complete after it closes, and back-fill ``file_io_async``.
        self._round_rows[index] = row
        flight.note_round(index, total)
        if trace.TRACE_ON:
            trace.TRACER.add("aggregation.round", t0, index=index,
                             total=total, plan=plan.kind)

    def _note_staging(self, bufs) -> None:
        """Track the high-water mark of live staging/exchange bytes.

        Zero-copy views of the user buffer are free; everything else —
        gather outputs, inbound exchange payloads, reply buffers — is
        real staging memory.  The round-based collective keeps this
        bounded by O(cb_buffer_size × participating APs).
        """
        total = 0
        for buf in bufs.values():
            if isinstance(buf, _Buf):
                if not buf.zero_copy:
                    total += buf.arr.nbytes
            elif isinstance(buf, tuple) and len(buf) == 3:
                arr = buf[2]
                if isinstance(arr, np.ndarray):
                    total += arr.nbytes
        if total > self.stats.peak_staging_bytes:
            self.stats.peak_staging_bytes = total

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------
    def _ensure_buf(self, plan, slot, d_lo, d_hi, mem, bufs) -> _Buf:
        """Staging buffer covering ``[d_lo, d_hi)``, allocating if needed.

        The default ``STAGE`` slot — and a ``MEM`` piece — of a
        contiguous memory descriptor is a zero-copy view of the user
        buffer itself.
        """
        buf = bufs.get(slot)
        if isinstance(buf, _Buf) and buf.d_lo <= d_lo and buf.d_hi >= d_hi:
            return buf
        if slot in plan.slots:
            d_lo, d_hi = plan.slots[slot]
        n = d_hi - d_lo
        if (slot == STAGE or slot == MEM) and mem is not None \
                and mem.is_contiguous:
            arr = mem.contiguous_slice(d_lo - plan.d0, n)
            buf = _Buf(d_lo, d_hi, arr, zero_copy=True)
        else:
            buf = _Buf(d_lo, d_hi, np.empty(n, dtype=np.uint8))
        bufs[slot] = buf
        return buf

    @staticmethod
    def _payload_view(bufs, piece: Piece) -> Tuple[np.ndarray, int, bool]:
        """``(array, base_data_offset, zero_copy)`` of a piece's slot."""
        buf = bufs.get(piece.slot)
        if isinstance(buf, _Buf):
            return buf.arr, buf.d_lo, buf.zero_copy
        if isinstance(buf, tuple) and len(buf) == 3:
            d_lo, _d_hi, arr = buf
            return arr, d_lo, False
        raise IOEngineError(
            f"plan references slot {piece.slot!r} with no usable buffer"
        )

    # ------------------------------------------------------------------
    # Pipelined (overlap) file ops.  Offloaded jobs go to one FIFO
    # deferred-apply worker per executor (``repro.plan.pipeline``):
    # window reads prefetch into job-local buffers published at
    # DrainOp; assemble-mode writes capture their payload views at
    # submit time and assemble + write at the next drain.  Jobs call
    # the file's raw ``pread_into``/``pwrite`` with the file delta
    # captured at submit — the counted shims and all shared counters
    # are only updated when a drain absorbs the finished jobs.
    # ------------------------------------------------------------------
    @staticmethod
    def _can_offload(op) -> bool:
        """Deferred (``blocks=None``) pieces stream through the engine
        codec's live view state, which a job applied later, at a drain,
        may find changed — keep those synchronous.  Round plans always
        materialize blocks, so this never fires for them."""
        return all(p.blocks is not None for p in op.pieces)

    def _ensure_worker(self):
        if self._worker is None:
            self._worker = DeferredWorker()
        return self._worker

    def _device_cost(self, kind: str, offset: int, nbytes: int) -> float:
        """Simulated device seconds one offloaded file op will cost (0
        on a real file, whose device model charges nothing — real
        devices are measured, not modelled)."""
        f = self.file
        streams = f.striping.streams_for(offset, nbytes)
        if kind == "read":
            return f.device.read_time(nbytes, streams)
        return f.device.write_time(nbytes, streams)

    @staticmethod
    def _prepare_blocks(blocks) -> None:
        """Force the block spec's memoized artifacts into existence at
        submit, so the job applied at drain only ever reads them."""
        if isinstance(blocks, Blocks):
            blockprog.program_for_blocks(blocks)
        elif isinstance(blocks, TupleBlocks):
            tuple_arrays(blocks)

    def _submit_file_read(self, plan, op: FileReadOp, cur_round,
                          bufs) -> None:
        worker = self._ensure_worker()
        pread = self.file.pread_into
        fdelta = self._fdelta
        lo, hi = op.lo, op.hi
        publishes = []
        targets = []
        for piece in op.pieces:
            self._prepare_blocks(piece.blocks)
            buf = _Buf(piece.d_lo, piece.d_hi,
                       np.empty(piece.d_hi - piece.d_lo, dtype=np.uint8))
            publishes.append((piece.slot, buf))
            targets.append((piece, buf))
        dense = (
            len(op.pieces) == 1
            and isinstance(op.pieces[0].blocks, Blocks)
            and op.pieces[0].blocks.count == 1
            and op.pieces[0].blocks.nbytes == hi - lo
        )

        def job_read():
            # Zero only past the bytes read (EOF), never the whole window.
            if dense:
                fb = targets[0][1].arr
            else:
                fb = np.empty(hi - lo, dtype=np.uint8)
            got = pread(lo + fdelta, fb)
            fb[got:] = 0
            if dense:
                return
            for piece, buf in targets:
                DataPlane.gather(fb, lo, piece.blocks, buf.arr,
                                 piece.d_lo - buf.d_lo)

        rnd = op.round
        if rnd < 0:
            rnd = cur_round[0] if cur_round is not None else -1
        worker.submit(FileJob(
            job_read, "read", rnd,
            hi - lo, publishes=publishes, nreads=1,
            dev_seconds=self._device_cost("read", lo + fdelta, hi - lo),
        ))
        self.stats.pipelined_file_ops += 1

    def _submit_file_write(self, plan, op: FileWriteOp, cur_round,
                           bufs) -> None:
        worker = self._ensure_worker()
        # Double buffer: at most one window in flight behind this one.
        self._drain_worker(plan, 1, cur_round, bufs)
        pwrite = self.file.pwrite
        fdelta = self._fdelta
        lo, hi = op.lo, op.hi
        views = []
        for piece in op.pieces:
            self._prepare_blocks(piece.blocks)
            arr, base, _zc = self._payload_view(bufs, piece)
            views.append((piece, arr, base))

        def job_write():
            fb = np.empty(hi - lo, dtype=np.uint8)
            for piece, arr, base in views:
                DataPlane.scatter(fb, lo, piece.blocks, arr,
                                  piece.d_lo - base)
            pwrite(lo + fdelta, fb)

        worker.submit(FileJob(
            job_write, "write",
            cur_round[0] if cur_round is not None else -1,
            hi - lo, nwrites=1,
            dev_seconds=self._device_cost("write", lo + fdelta, hi - lo),
        ))
        self.stats.pipelined_file_ops += 1

    def _drain_worker(self, plan, keep: int, cur_round, bufs) -> None:
        worker = self._worker
        if worker is None:
            return
        t0 = time.perf_counter()
        done = worker.drain(keep)
        self.stats.pipeline_wait_seconds += time.perf_counter() - t0
        self._absorb_jobs(plan, done,
                          cur_round[0] if cur_round is not None else None,
                          bufs, complete=keep == 0)

    def _absorb_jobs(self, plan, done, cur_index, bufs,
                     complete: bool = False) -> None:
        """Merge completed jobs' accounting and publish their buffers.

        Publication is held back for jobs of rounds *after* the current
        one (a prefetch that finished early): their buffers reuse the
        per-peer slot keys, so publishing before the current round's
        exchange has read those slots would clobber its payloads.

        ``complete`` marks a drain whose caller needs the absorbed ops
        *finished* (published reads, a drain-to-zero before ordered
        writes, the end-of-plan drain): any simulated device time still
        outstanding at that point was not hidden and is charged to
        ``device_stall_seconds``.
        """
        stats = self.stats
        for job in done:
            stats.pipeline_file_seconds += job.seconds
            # Worker file time gets its own phase bucket.  The jobs ran
            # on this thread inside a ``file_io``-bucketed drain, so
            # their seconds are *moved* there via ``_inline_comp``.
            self.phases.add("pipeline_io", job.seconds)
            self._inline_comp += job.seconds
            stats.executed_file_reads += job.nreads
            stats.executed_file_writes += job.nwrites
            if job.dev_seconds:
                # The device starts an offloaded op when it is issued
                # (no earlier than the previous op finishing) and works
                # it off concurrently with main-thread CPU.
                start = job.t_issue if job.t_issue > self._dev_free_at \
                    else self._dev_free_at
                self._dev_free_at = start + job.dev_seconds
                stats.device_async_seconds += job.dev_seconds
            row = self._round_rows.get(job.round_index)
            if row is not None:
                row["file_io_async"] += job.seconds
            elif job.round_index >= 0:
                self._pending_async[job.round_index] = (
                    self._pending_async.get(job.round_index, 0.0)
                    + job.seconds
                )
            if trace.TRACE_ON:
                trace.TRACER.add(
                    f"exec.async.{job.kind}", job.t0, job.t1,
                    round=job.round_index, plan=plan.kind,
                )
        pending = self._unpublished + [j for j in done if j.publishes]
        self._unpublished = []
        published = False
        for job in pending:
            if cur_index is not None and job.round_index > cur_index:
                self._unpublished.append(job)
                continue
            for slot, buf in job.publishes:
                bufs[slot] = buf
                published = True
        if published:
            self._note_staging(bufs)
        if complete or published:
            now_t = time.perf_counter()
            if self._dev_free_at > now_t:
                stats.device_stall_seconds += self._dev_free_at - now_t
                self._dev_free_at = now_t
        if self._worker is not None:
            peak = self._worker.peak_inflight_bytes
            if peak > stats.pipeline_inflight_peak_bytes:
                stats.pipeline_inflight_peak_bytes = peak

    def _finish_worker(self, plan, bufs) -> None:
        """Settle the worker at run end (from ``run``'s ``finally``).

        On the normal path the plan's final ``DrainOp(0)`` already
        drained everything, so this is a cheap no-op drain — the worker
        is kept for the next plan run (see :meth:`close`).  On the abort
        path (an exception is propagating, or the drain itself surfaces
        a worker error) the worker is closed and discarded so a broken
        pipeline never leaks into the next run; its error is swallowed
        when another exception is already propagating, so it cannot mask
        the primary failure.  The close drops queued jobs, so no
        deferred write lands after the failure.
        """
        worker = self._worker
        if sys.exc_info()[0] is not None:
            self._worker = None
            done = worker.close(raise_error=False)
        else:
            try:
                done = worker.drain(0)
            except BaseException:
                self._worker = None
                worker.close(raise_error=False)
                raise
        self._absorb_jobs(plan, done, None, bufs, complete=True)
        peak = worker.peak_inflight_bytes
        if peak > self.stats.pipeline_inflight_peak_bytes:
            self.stats.pipeline_inflight_peak_bytes = peak
        self._unpublished = []
        # Jobs absorbed here ran outside any op's timed window, so there
        # is no double-counted ``file_io`` to compensate — drop it.
        self._inline_comp = 0.0

    def close(self) -> None:
        """Release the worker, dropping any queued (unapplied) jobs.

        Called when the owning file handle closes; safe to call more
        than once or without a worker ever having been created."""
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.close(raise_error=False)

    # ------------------------------------------------------------------
    # Op implementations
    # ------------------------------------------------------------------
    def _do_gather(self, plan, op: GatherOp, mem, bufs) -> None:
        if mem is None:
            raise IOEngineError("gather op in a plan run without memory")
        n = op.d_hi - op.d_lo
        rel = op.d_lo - plan.d0
        if op.slot == STAGE and mem.is_contiguous:
            bufs[op.slot] = _Buf(
                op.d_lo, op.d_hi, mem.contiguous_slice(rel, n),
                zero_copy=True,
            )
            return
        arr = np.empty(n, dtype=np.uint8)
        self.codec.pack_mem(mem, rel, rel + n, arr)
        bufs[op.slot] = _Buf(op.d_lo, op.d_hi, arr)

    def _do_scatter(self, plan, op: ScatterOp, mem, bufs) -> None:
        if mem is None:
            raise IOEngineError("scatter op in a plan run without memory")
        buf = bufs.get(op.slot)
        if isinstance(buf, _Buf):
            if buf.zero_copy:
                return  # data already landed in the user buffer
            arr, base = buf.arr, buf.d_lo
        elif isinstance(buf, tuple) and len(buf) == 3:
            base, _d_hi, arr = buf
        else:
            raise IOEngineError(
                f"scatter from slot {op.slot!r} with no usable buffer"
            )
        rel = op.d_lo - plan.d0
        data = arr[op.d_lo - base : op.d_hi - base]
        self.codec.unpack_mem(mem, rel, rel + (op.d_hi - op.d_lo), data)

    # -- file reads ----------------------------------------------------
    def _do_file_read(self, plan, op: FileReadOp, mem, bufs) -> None:
        if op.mode == "direct":
            for piece in op.pieces:
                self._read_piece_direct(plan, op, piece, mem, bufs)
            return
        # Window mode: one file buffer per coalesced window.  A single
        # piece whose blocks are one full-window run reads straight into
        # its staging buffer — or, for a MEM piece, into contiguous user
        # memory (the dense fast path: no extra copy).
        if (
            len(op.pieces) == 1
            and isinstance(op.pieces[0].blocks, Blocks)
            and op.pieces[0].blocks.count == 1
            and op.pieces[0].blocks.nbytes == op.hi - op.lo
            and (op.pieces[0].slot != MEM
                 or (mem is not None and mem.is_contiguous))
        ):
            self._read_piece_direct(plan, op, op.pieces[0], mem, bufs)
            return
        fb = read_window(self, op.lo, op.hi)
        for piece in op.pieces:
            if piece.slot == MEM:
                self._mem_copy(plan, fb, op.lo, piece, mem, False)
                continue
            buf = self._ensure_buf(
                plan, piece.slot, piece.d_lo, piece.d_hi, mem, bufs
            )
            pos = piece.d_lo - buf.d_lo
            if piece.blocks is not None:
                DataPlane.gather(fb, op.lo, piece.blocks, buf.arr, pos)
            else:
                self.codec.stream_gather_window(
                    fb, op.lo, op.hi, buf.arr, buf.d_lo, buf.d_hi
                )

    def _read_piece_direct(self, plan, op, piece: Piece, mem, bufs) -> None:
        buf = self._ensure_buf(
            plan, piece.slot, piece.d_lo, piece.d_hi, mem, bufs
        )
        blocks = piece.blocks
        if blocks is None:
            self.codec.stream_read_blocks(
                self, op.lo, op.hi, buf.arr, buf.d_lo, buf.d_hi
            )
            return
        # One vectored backend call for the whole block list; it
        # zero-fills past-EOF bytes and reports the first short block.
        offs, lens = block_arrays(blocks)
        short, secs = self.file.preadv_blocks(
            offs + self._fdelta if self._fdelta else offs, lens, buf.arr,
            piece.d_lo - buf.d_lo,
        )
        self.stats.executed_file_reads += offs.size
        self.stats.device_sync_seconds += secs
        if short is not None and op.strict:
            i, got = short
            raise IOEngineError(
                f"short read: {got} of {lens[i]} bytes at {offs[i]}"
            )

    def _mem_copy(self, plan, fb: np.ndarray, wlo: int, piece: Piece,
                  mem, write: bool) -> int:
        """Copy a MEM piece between window buffer ``fb`` and user memory
        in one pair-program call; returns bytes copied.  Billed to the
        ``pack`` (write) or ``unpack`` (read) phase and taken back out
        of ``file_io``, the bucket the enclosing file op charges."""
        if mem is None:
            raise IOEngineError("memory piece in a plan run without memory")
        now = time.perf_counter
        t0 = now()
        if self._note_mem is not None:
            self._note_mem(mem)
        rel = piece.d_lo - plan.d0
        phases = self.phases
        if write:
            n = DataPlane.scatter(fb, wlo, piece.blocks, mem, rel)
            el = now() - t0
            phases.pack += el
        else:
            n = DataPlane.gather(fb, wlo, piece.blocks, mem, rel)
            el = now() - t0
            phases.unpack += el
        phases.file_io -= el
        return n

    # -- file writes ---------------------------------------------------
    def _do_file_write(self, plan, op: FileWriteOp, mem, bufs) -> None:
        if op.mode == "direct":
            for piece in op.pieces:
                self._write_piece_direct(op, piece, bufs)
            return
        if op.mode == "assemble":
            fb = np.empty(op.hi - op.lo, dtype=np.uint8)
        else:  # rmw: pre-read the window, overlay, write back
            fb = read_window(self, op.lo, op.hi)
        scattered = 0
        for piece in op.pieces:
            if piece.slot == MEM:
                scattered += self._mem_copy(plan, fb, op.lo, piece, mem,
                                            True)
                continue
            arr, base, _zc = self._payload_view(bufs, piece)
            pos = piece.d_lo - base
            if piece.blocks is not None:
                scattered += DataPlane.scatter(
                    fb, op.lo, piece.blocks, arr, pos
                )
            else:
                scattered += self.codec.stream_scatter_window(
                    fb, op.lo, op.hi, arr, base, piece.d_hi
                )
        if scattered or op.mode == "assemble":
            self.pwrite(op.lo, fb)

    def _write_piece_direct(self, op, piece: Piece, bufs) -> None:
        arr, base, _zc = self._payload_view(bufs, piece)
        blocks = piece.blocks
        if blocks is None:
            self.codec.stream_write_blocks(
                self, op.lo, op.hi, arr, base, piece.d_hi
            )
            return
        offs, lens = block_arrays(blocks)
        _n, secs = self.file.pwritev_blocks(
            offs + self._fdelta if self._fdelta else offs, lens, arr,
            piece.d_lo - base,
        )
        self.stats.executed_file_writes += offs.size
        self.stats.device_sync_seconds += secs

    # -- exchange ------------------------------------------------------
    def _do_exchange(self, plan, op: ExchangeOp, bufs,
                     in_round: bool = False) -> None:
        if op.mode == "p2p":
            # Relaxed round synchronization: only the (AP, IOP) pairs the
            # metadata proves move bytes communicate; a round with nothing
            # to send or receive skips the network entirely.
            if not op.sends and not op.recvs:
                return
            if self.comm is None:
                raise IOEngineError(
                    "plan contains an exchange op but the executor has no "
                    "communicator"
                )
            from repro.io.two_phase import exchange_p2p

            outbound = {}
            for send in op.sends:
                outbound[send.rank] = self._payload_for(send, bufs)
            inbound = exchange_p2p(self.comm, outbound, op.recvs, op.tag)
            for src, item in inbound.items():
                if item is not None:
                    bufs[in_slot(src)] = item
            return
        if self.comm is None:
            raise IOEngineError(
                "plan contains an exchange op but the executor has no "
                "communicator"
            )
        from repro.io.two_phase import exchange

        outbound = [None] * self.comm.size
        for send in op.sends:
            outbound[send.rank] = self._payload_for(send, bufs)
        inbound = exchange(self.comm, outbound)
        if (in_round and not op.sends
                and all(item is None for item in inbound)):
            # This rank synchronized a round it moved no bytes in — the
            # cost the relaxed p2p exchange exists to eliminate.
            self.stats.rounds_idle_synced += 1
        for src, item in enumerate(inbound):
            if item is not None:
                bufs[in_slot(src)] = item

    def _payload_for(self, send: Send, bufs):
        if send.slot is not None:
            buf = bufs.get(send.slot)
            if isinstance(buf, _Buf):
                return (buf.d_lo, buf.d_hi, buf.arr)
            return buf
        return (send.ol, send.d_lo)

    # ------------------------------------------------------------------
    # Counted one-extent file access shims.  ``pread_into`` doubles as
    # the SimFile interface expected by
    # :func:`repro.io.sieving.read_window`, and deferred-piece codecs
    # call them to stream blocks (``file.pwrite`` in
    # ``stream_write_blocks``, for example).  The running plan's
    # ``file_delta`` applies here, so windows and streamed blocks of a
    # replayed plan land translated; direct block lists are translated
    # once per vectored call (``_read_piece_direct``).
    # ------------------------------------------------------------------
    def pread_into(self, offset: int, out: np.ndarray) -> int:
        n = self.file.pread_into(offset + self._fdelta, out)
        self.stats.executed_file_reads += 1
        self.stats.device_sync_seconds += self._charged()
        return n

    def pwrite(self, offset: int, data: np.ndarray):
        self.stats.executed_file_writes += 1
        n = self.file.pwrite(offset + self._fdelta, data)
        self.stats.device_sync_seconds += self._charged()
        return n

