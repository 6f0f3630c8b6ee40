"""The plan executor: run an :class:`~repro.plan.plan.IOPlan` against a file.

The executor is the only place where plan ops touch bytes.  It is
deliberately dumb — every decision (windows, coalescing, sieving, pre-read
skipping, exchange schedule) was already taken by the planner and is
encoded in the ops.  It compiles: :meth:`PlanExecutor.lower` turns a
plan, once, into a tuple of steps — each op with its pre-chosen handler,
phase bucket and span name — memoized on the plan, and :meth:`~
PlanExecutor.run` is one pass over them, one ``perf_counter`` stamp per
op boundary.  A replayed plan therefore costs one call per op.

One executor serves every backend.  It calls the file's primitives
directly — ``pread_into``, ``pwrite``, ``preadv_blocks``,
``pwritev_blocks``, ``lock_range``, ``unlock_range`` — and reads its
``stats``, ``device`` and ``striping``: :class:`~repro.fs.simfile.
SimFile`, :class:`~repro.fs.posix.OsFile`, :class:`~repro.fs.sharded.
ShardedFile` and the cursor-based :class:`~repro.fs.posix.PosixFile`
all provide that surface.

The *memory* side of gather/scatter ops is delegated to a ``codec``
(normally the emitting engine), so each engine keeps its characteristic
representation costs; the *file* side goes through the batched
:class:`~repro.plan.dataplane.DataPlane`.  :data:`~repro.plan.ops.MEM`
pieces (mapped accesses, sieved windows) skip staging: one pair-program
call copies between the file buffer and user memory, billed to
``pack``/``unpack``.  A ``"mapped"`` file op runs that copy against the
file buffer itself (:meth:`~repro.fs.simfile.FileBuffer.map_access`);
a plan of one such op binds, per memory layout, into a
:class:`BoundCall` that runs the whole access as one call.
A replayed plan runs with a ``file_delta`` that translates every file
offset it names (windows, blocks, lock ranges).
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from repro._ctx import SESSION
from repro.core import blockprog
from repro.core.ff_pack import ff_pack, ff_unpack
from repro.errors import IOEngineError
from repro.io.fileview import MemDescriptor
from repro.io.sieving import read_window
from repro.obs import flight, trace
from repro.obs.phases import PhaseAccumulator, RoundLog
from repro.plan.dataplane import (DataPlane, block_arrays, pair_program,
                                  tuple_arrays)
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
from repro.tally import Tally

__all__ = ["MemCodec", "KernelCodec", "PlanExecutor", "BoundCall"]

_U8 = np.dtype(np.uint8)
_ND = np.ndarray


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

    # Optional: ``counts_mem_copies = True`` counts each MEM-piece copy
    # of strided memory in ``codec.stats.ff_kernel_calls``.


class KernelCodec:
    """Standalone codec using the flattening-on-the-fly kernels."""

    def pack_mem(self, mem, d_lo, d_hi, out):
        if mem.is_contiguous:
            out[: d_hi - d_lo] = mem.contiguous_slice(d_lo, d_hi - d_lo)
            return
        ff_pack(mem.buf, mem.count, mem.memtype, d_lo, out, d_hi - d_lo,
                origin=mem.origin)

    def unpack_mem(self, mem, d_lo, d_hi, data):
        if mem.is_contiguous:
            mem.contiguous_slice(d_lo, d_hi - d_lo)[...] = data[: d_hi - d_lo]
            return
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


def _held_bytes(buf) -> int:
    """Staging bytes a buffer-table entry holds: zero-copy views of the
    user buffer are free; everything else — gather outputs, inbound
    exchange payloads, reply buffers — is real staging memory."""
    if isinstance(buf, _Buf):
        return 0 if buf.zero_copy else buf.arr.nbytes
    if isinstance(buf, tuple) and len(buf) == 3 \
            and isinstance(buf[2], np.ndarray):
        return buf[2].nbytes
    return 0


class PlanExecutor:
    """Runs plans against ``file``: any backend with the file primitive
    surface (see the module docstring)."""

    def __init__(self, file, codec=None, comm=None,
                 stats: Optional[PlanStats] = None,
                 phases: Optional[PhaseAccumulator] = None,
                 rounds: Optional[RoundLog] = None) -> None:
        self.file = file
        #: Per-thread device seconds of the file's last one-extent op.
        self._last = file.stats.last
        self.codec = codec if codec is not None else KernelCodec()
        self.comm = comm
        self.stats = stats if stats is not None else PlanStats()
        #: Per-phase wall-time buckets (normally the owning engine's).
        self.phases = phases if phases is not None else PhaseAccumulator()
        #: Per-round exchange/file_io decomposition of collectives.
        self.rounds = rounds if rounds is not None else RoundLog()
        #: Per-run state: the file-offset translation, the translated
        #: lock ranges held (released if an op fails), and the live
        #: staging bytes, total and per slot (:meth:`_put`).
        self._fdelta = 0
        self._held = []
        self._live = 0
        self._sizes: Dict[object, int] = {}
        #: ``(index, total, t0, exchange0, file_io0)`` of the open round.
        self._cur_round = None
        #: Deferred-apply worker for ``overlap`` file ops: created on the
        #: first one, reused across runs, closed by :meth:`close`.
        self._worker = None
        #: Device-overlap model: when the simulated device finishes the
        #: offloaded ops absorbed so far.  Seconds still outstanding when
        #: a drain needs completion are ``device_stall_seconds``.
        self._dev_free_at = 0.0
        #: Collective per-run state (set up only for plans that need
        #: it): prefetch jobs not yet published (their round has not
        #: drained), async file seconds of rounds not yet closed, live
        #: RoundLog rows to back-fill, and worker seconds to move out of
        #: ``file_io`` into ``pipeline_io`` at the next op boundary (the
        #: deferred worker runs jobs on this thread inside a drain).
        self._unpublished = []
        self._pending_async: Dict[int, float] = {}
        self._round_rows: Dict[int, dict] = {}
        self._inline_comp = 0.0
        #: Where MEM-piece copies count (see :class:`MemCodec`), or None.
        self._ff = (self.codec.stats if getattr(
            self.codec, "counts_mem_copies", False) else None)

    # ------------------------------------------------------------------
    # Lowering: each op becomes one step ``(handler, op, bucket, span)``
    # ------------------------------------------------------------------
    def lower(self, plan: IOPlan) -> Tuple[bool, tuple]:
        """``(collective, steps)`` of ``plan``, built once and memoized
        on the plan (as ``Blocks.prog`` is).  A step is ``(handler, op,
        bucket, span)``: the function called as ``handler(executor,
        plan, op, mem, bufs)``, the phase bucket billed (``None`` for
        round markers) and the trace span.  Every choice the op alone
        decides — file-op mode, dense window, offloading — is taken
        here.  ``collective`` marks plans with rounds, exchanges or
        pipelined ops: only their runs set up that bookkeeping.
        """
        low = plan.lowered
        if low is None:
            steps = tuple(map(_lower_op, plan.ops))
            low = (any(s[0] in _COLLECTIVE_STEPS for s in steps), steps)
            object.__setattr__(plan, "lowered", low)
        return low

    def bind(self, plan: IOPlan, mem: MemDescriptor):
        """The :class:`BoundCall` of a plan of one mapped :data:`MEM`
        op on layout ``mem``, else ``None``.  Looks the piece's pair
        program up once; everything a replay of the plan on this layout
        needs is resolved here."""
        ops = plan.ops
        if len(ops) != 1:
            return None
        op = ops[0]
        if (type(op) not in (FileReadOp, FileWriteOp)
                or op.mode != "mapped" or op.pieces[0].slot != MEM):
            return None
        piece = op.pieces[0]
        kernel = pair_program(piece.blocks, mem, piece.d_lo - plan.d0).kernel
        return BoundCall(self, plan, op, mem, kernel)

    def run(self, plan: IOPlan, mem: Optional[MemDescriptor] = None,
            buffers: Optional[dict] = None, file_delta: int = 0,
            bound: Optional["BoundCall"] = None) -> dict:
        """Execute ``plan``; returns the final staging-buffer table.

        ``mem`` is required when the plan contains gather/scatter ops
        or :data:`~repro.plan.ops.MEM` pieces.
        ``buffers`` seeds the staging table (used to hand the inbound
        payloads of one plan's exchange to a follow-up plan).
        ``file_delta`` translates every file offset the plan names —
        the replay fast path re-binds a cached relocatable plan to a
        period-translated access this way.  Each step is billed the
        time since the previous op boundary (chained stamps).
        ``bound`` — ``plan``'s :class:`BoundCall` on ``mem`` — runs the
        plan as that call, billed as a cold access (the planner billed
        the plan, :meth:`bind` the pair-program lookup).
        """
        coll, steps = plan.lowered or self.lower(plan)
        if bound is not None:
            bound.run(mem.as_bytes, file_delta)
            return {}
        bufs: Dict[object, object] = {}
        self._sizes = {}
        self._live = 0
        if buffers:
            for slot, buf in buffers.items():
                self._put(bufs, slot, buf, _held_bytes(buf))
        self._fdelta = file_delta
        if coll:
            self._unpublished = []
            self._pending_async = {}
            self._round_rows = {}
            self._inline_comp = 0.0
        stats = self.stats
        phases = self.phases
        t0 = perf_counter()
        try:
            for fn, op, bucket, span in steps:
                fn(self, plan, op, mem, bufs)
                stats._executed_ops += 1
                t1 = perf_counter()
                if bucket is not None:
                    setattr(phases, bucket,
                            getattr(phases, bucket) + (t1 - t0))
                    comp = self._inline_comp
                    if comp:
                        # Worker seconds credited to ``pipeline_io`` ran
                        # inside this op: take them out of ``file_io``.
                        self._inline_comp = 0.0
                        phases.file_io -= min(comp, phases.file_io)
                    if trace.TRACE_ON:
                        trace.TRACER.add(span, t0, t1, plan=plan.kind)
                t0 = t1
        finally:
            self._fdelta = 0
            if self._cur_round is not None:
                self._close_round(plan, perf_counter())
            if self._worker is not None:
                self._finish_worker(plan, bufs)
            if self._held:
                # A failing op must never leave byte-range locks behind
                # (other ranks would deadlock on their next sieved write).
                held, self._held = self._held, []
                for lo, hi in reversed(held):
                    self.file.unlock_range(lo, hi)
        return bufs

    # -- collective steps ----------------------------------------------
    def _round(self, plan, op: RoundOp, mem, bufs) -> None:
        """Round marker: close the previous round's record, open the
        next.  The deltas of the exchange/file_io buckets over the
        round's span are its per-phase decomposition."""
        t0 = perf_counter()
        self._close_round(plan, t0)
        phases = self.phases
        self._cur_round = (op.index, op.total, t0, phases.exchange,
                           phases.file_io)
        self.stats.executed_rounds += 1

    def _drain(self, plan, op: DrainOp, mem, bufs) -> None:
        self._drain_worker(plan, op.keep, bufs)

    def _ship(self, plan, op: ShipOp, mem, bufs) -> None:
        from repro.io import shipping

        if op.write and self._worker is not None:
            # Same ordering contract as synchronous writes: offloaded
            # ops land before the shipped write.
            self._drain_worker(plan, 0, bufs)
        shipping.execute_ship(self, plan, op, mem, bufs,
                              self._round_index())
        self._note_staging()

    # -- locks -----------------------------------------------------------
    def _lock(self, plan, op: LockOp, mem, bufs) -> None:
        lo, hi = op.lo + self._fdelta, op.hi + self._fdelta
        self.file.lock_range(lo, hi)
        self._held.append((lo, hi))
        self.stats.executed_locks += 1

    def _unlock(self, plan, op: UnlockOp, mem, bufs) -> None:
        lo, hi = op.lo + self._fdelta, op.hi + self._fdelta
        self.file.unlock_range(lo, hi)
        self._held.remove((lo, hi))

    def _close_round(self, plan, t_end: float) -> None:
        if self._cur_round is None:
            return
        index, total, t0, ex0, io0 = self._cur_round
        self._cur_round = None
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

    def _note_staging(self) -> None:
        """Raise ``peak_staging_bytes`` to the live staging bytes (called
        after the ops that allocate: gathers, reads, exchanges, shipped
        ops, published prefetches).  The round-based collective keeps
        this bounded by O(cb_buffer_size × participating APs)."""
        if self._live > self.stats.peak_staging_bytes:
            self.stats.peak_staging_bytes = self._live

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------
    def _put(self, bufs, slot, buf, nbytes: int) -> None:
        """Install ``buf``, holding ``nbytes`` of staging, under
        ``slot``; the entry it replaces is released."""
        bufs[slot] = buf
        sizes = self._sizes
        self._live += nbytes - sizes.get(slot, 0)
        sizes[slot] = nbytes

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
            n = 0
        else:
            buf = _Buf(d_lo, d_hi, np.empty(n, dtype=np.uint8))
        self._put(bufs, slot, buf, n)
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
    # Pipelined (overlap) file ops go to the FIFO deferred-apply worker
    # (``repro.plan.pipeline``): reads prefetch into job buffers
    # published at a DrainOp; assemble writes capture their payload
    # views at submit and write at the next drain.  Jobs call the raw
    # file primitives with the delta captured at submit; counters are
    # updated when a drain absorbs them.
    # ------------------------------------------------------------------
    @staticmethod
    def _can_offload(op) -> bool:
        """Deferred (``blocks=None``) pieces stream through the codec's
        live view state, which may change before a drain applies the
        job — keep those synchronous (round plans never have them)."""
        return all(p.blocks is not None for p in op.pieces)

    def _round_index(self) -> int:
        cur = self._cur_round
        return cur[0] if cur is not None else -1

    def _device_cost(self, kind: str, offset: int, nbytes: int) -> float:
        """Simulated device seconds one offloaded file op will cost (0
        on a real file: real devices are measured, not modelled)."""
        f = self.file
        cost = f.device.read_time if kind == "read" else f.device.write_time
        return cost(nbytes, f.striping.streams_for(offset, nbytes))

    @staticmethod
    def _prepare_blocks(blocks) -> None:
        """Force the block spec's memoized artifacts into existence at
        submit, so the job applied at drain only ever reads them."""
        if isinstance(blocks, Blocks):
            blockprog.program_for_blocks(blocks)
        elif isinstance(blocks, TupleBlocks):
            tuple_arrays(blocks)

    def _submit_file_read(self, plan, op: FileReadOp, mem, bufs) -> None:
        # No sync fallback: an overlap read was hoisted ahead of the
        # previous round's exchange, whose buffers it would clobber.
        if not self._can_offload(op):
            raise IOEngineError(
                "overlap read op carries deferred pieces — planner "
                "contract violation"
            )
        if self._worker is None:
            self._worker = DeferredWorker()
        pread = self.file.pread_into
        fdelta = self._fdelta
        lo, hi = op.lo, op.hi
        targets = []
        for piece in op.pieces:
            self._prepare_blocks(piece.blocks)
            targets.append((piece, _Buf(piece.d_lo, piece.d_hi, np.empty(
                piece.d_hi - piece.d_lo, dtype=np.uint8))))
        dense = _dense_window(op)

        def job_read():
            fb = (targets[0][1].arr if dense
                  else np.empty(hi - lo, dtype=np.uint8))
            # Zero only past the bytes read (EOF), never the whole window.
            fb[pread(lo + fdelta, fb):] = 0
            if not dense:
                for piece, buf in targets:
                    DataPlane.gather(fb, lo, piece.blocks, buf.arr,
                                     piece.d_lo - buf.d_lo)

        rnd = op.round if op.round >= 0 else self._round_index()
        self._worker.submit(FileJob(
            job_read, "read", rnd, hi - lo, nreads=1,
            publishes=[(piece.slot, buf) for piece, buf in targets],
            dev_seconds=self._device_cost("read", lo + fdelta, hi - lo),
        ))
        self.stats.pipelined_file_ops += 1

    def _submit_file_write(self, plan, op: FileWriteOp, mem,
                           bufs) -> None:
        if self._worker is None:
            self._worker = DeferredWorker()
        # Double buffer: at most one window in flight behind this one.
        self._drain_worker(plan, 1, bufs)
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

        self._worker.submit(FileJob(
            job_write, "write", self._round_index(), hi - lo, nwrites=1,
            dev_seconds=self._device_cost("write", lo + fdelta, hi - lo),
        ))
        self.stats.pipelined_file_ops += 1

    def _drain_worker(self, plan, keep: int, bufs) -> None:
        worker = self._worker
        if worker is None:
            return
        t0 = perf_counter()
        done = worker.drain(keep)
        self.stats.pipeline_wait_seconds += perf_counter() - t0
        cur = self._cur_round
        self._absorb_jobs(plan, done, cur[0] if cur is not None else None,
                          bufs, complete=keep == 0)

    def _absorb_jobs(self, plan, done, cur_index, bufs,
                     complete: bool = False) -> None:
        """Merge completed jobs' accounting and publish their buffers —
        except for jobs of rounds *after* the current one (an early
        prefetch), whose buffers reuse per-peer slot keys the current
        round's exchange still reads.  ``complete`` marks a drain that
        needs the ops *finished*: device time still outstanding then
        was not hidden and is charged to ``device_stall_seconds``.
        """
        stats = self.stats
        for job in done:
            stats.pipeline_file_seconds += job.seconds
            # Worker file time gets its own phase bucket.  The jobs ran
            # on this thread inside a ``file_io``-bucketed drain, so
            # their seconds are *moved* there via ``_inline_comp``.
            self.phases.pipeline_io += job.seconds
            self._inline_comp += job.seconds
            stats._executed_file_reads += job.nreads
            stats._executed_file_writes += job.nwrites
            if job.dev_seconds:
                # The device starts an offloaded op when it is issued
                # (no earlier than the previous op finishing) and works
                # it off concurrently with main-thread CPU.
                start = max(job.t_issue, self._dev_free_at)
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
                self._put(bufs, slot, buf, buf.arr.nbytes)
                published = True
        if published:
            self._note_staging()
        if complete or published:
            now_t = perf_counter()
            if self._dev_free_at > now_t:
                stats.device_stall_seconds += self._dev_free_at - now_t
                self._dev_free_at = now_t
        if self._worker is not None:
            peak = self._worker.peak_inflight_bytes
            if peak > stats.pipeline_inflight_peak_bytes:
                stats.pipeline_inflight_peak_bytes = peak

    def _finish_worker(self, plan, bufs) -> None:
        """Settle the worker at run end (from ``run``'s ``finally``).

        Normally the plan's final ``DrainOp(0)`` drained everything and
        the worker is kept for the next run.  On the abort path (an
        exception propagating, or the drain surfacing a worker error)
        it is closed — dropping queued jobs, so no deferred write lands
        after the failure — and discarded; its own error never masks an
        exception already propagating.
        """
        worker = self._worker
        aborting = sys.exc_info()[0] is not None
        try:
            done = (worker.close(raise_error=False) if aborting
                    else worker.drain(0))
        except BaseException:
            self._worker = None
            worker.close(raise_error=False)
            raise
        self._absorb_jobs(plan, done, None, bufs, complete=True)
        if aborting:
            self._worker = None
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
    # Op steps: ``step(self, plan, op, mem, bufs)``
    # ------------------------------------------------------------------
    def _gather(self, plan, op: GatherOp, mem, bufs) -> None:
        if mem is None:
            raise IOEngineError("gather op in a plan run without memory")
        n = op.d_hi - op.d_lo
        rel = op.d_lo - plan.d0
        if op.slot == STAGE and mem.is_contiguous:
            buf = _Buf(op.d_lo, op.d_hi, mem.contiguous_slice(rel, n),
                       zero_copy=True)
            n = 0
        else:
            buf = _Buf(op.d_lo, op.d_hi, np.empty(n, dtype=np.uint8))
            self.codec.pack_mem(mem, rel, rel + n, buf.arr)
        self._put(bufs, op.slot, buf, n)
        self._note_staging()

    def _scatter(self, plan, op: ScatterOp, mem, bufs) -> None:
        if mem is None:
            raise IOEngineError("scatter op in a plan run without memory")
        arr, base, zero_copy = self._payload_view(bufs, op)
        if zero_copy:
            return  # data already landed in the user buffer
        rel = op.d_lo - plan.d0
        data = arr[op.d_lo - base : op.d_hi - base]
        self.codec.unpack_mem(mem, rel, rel + (op.d_hi - op.d_lo), data)

    # -- file reads ----------------------------------------------------
    def _read_direct(self, plan, op: FileReadOp, mem, bufs) -> None:
        """Direct mode, or a window whose one piece is one full-window
        run: read straight into the staging buffer — or, for a MEM
        piece, into contiguous user memory (no extra copy)."""
        if op.pieces[0].slot == MEM and (mem is None
                                         or not mem.is_contiguous):
            self._read_window(plan, op, mem, bufs)
            return
        for piece in op.pieces:
            self._read_piece_direct(plan, op, piece, mem, bufs)
        self._note_staging()

    def _read_window(self, plan, op: FileReadOp, mem, bufs) -> None:
        """Window mode: one file buffer per coalesced window."""
        fb = read_window(self.file, op.lo + self._fdelta,
                         op.hi + self._fdelta)
        self.stats._executed_file_reads += 1
        self.stats._device_sync_seconds += self._last.seconds
        for piece in op.pieces:
            if piece.slot == MEM:
                self._mem_copy(fb, -op.lo, piece.blocks, mem,
                               piece.d_lo - plan.d0, False, perf_counter())
                continue
            buf = self._ensure_buf(
                plan, piece.slot, piece.d_lo, piece.d_hi, mem, bufs
            )
            if piece.blocks is not None:
                DataPlane.gather(fb, op.lo, piece.blocks, buf.arr,
                                 piece.d_lo - buf.d_lo)
            else:
                self.codec.stream_gather_window(
                    fb, op.lo, op.hi, buf.arr, buf.d_lo, buf.d_hi
                )
        self._note_staging()

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
        self.stats._executed_file_reads += offs.size
        self.stats._device_sync_seconds += secs
        if short is not None and op.strict:
            i, got = short
            raise IOEngineError(
                f"short read: {got} of {lens[i]} bytes at {offs[i]}"
            )

    def _mem_copy(self, fb: np.ndarray, base: int, blocks, mem, rel: int,
                  write: bool, t0: float) -> int:
        """Copy a MEM piece (``blocks``, data bytes from ``rel`` of the
        access) between ``fb`` — a window buffer, or the file buffer
        itself — and user memory in one pair-program call; plan file
        offset ``f`` is ``fb[base + f]``.  Returns bytes copied.  Billed
        to ``pack`` (write) or ``unpack`` (read) from ``t0``, out of
        ``file_io``."""
        if mem is None:
            raise IOEngineError("memory piece in a plan run without memory")
        ff = self._ff
        if ff is not None and not mem.is_contiguous:
            ff._ff_kernel_calls += 1
        phases = self.phases
        if write:
            n = DataPlane.scatter(fb, -base, blocks, mem, rel)
            el = perf_counter() - t0
            phases.pack += el
        else:
            n = DataPlane.gather(fb, -base, blocks, mem, rel)
            el = perf_counter() - t0
            phases.unpack += el
        phases.file_io -= el
        return n

    def _check_strict(self, op_lo: int, lo: int, hi: int, nbytes: int):
        """A strict read of file bytes ``[lo, hi)`` fails short of EOF."""
        size = self.file.size
        if hi > size:
            raise IOEngineError(f"short read: {max(size - lo, 0)} of "
                                f"{nbytes} bytes at {op_lo}")

    # -- mapped access (reads and writes) ------------------------------
    def _mapped(self, plan, op, mem, bufs) -> None:
        """Mapped mode: the piece copies straight into or out of the
        file buffer, in one :meth:`~repro.fs.simfile.FileBuffer.
        map_access` call (one device op, no lock), by :meth:`_map_stage`."""
        write = type(op) is FileWriteOp
        d = self._fdelta
        lo, hi = op.lo + d, op.hi + d
        if not write and op.strict:
            self._check_strict(op.lo, lo, hi, plan.nbytes)
        f, stats, n = self.file, self.stats, plan.nbytes
        secs = f.map_access(lo, hi, n, write, None, d, self._map_stage,
                            (plan, op, mem, bufs), None, write)[0]
        stats._device_sync_seconds += secs
        if write:
            stats._executed_file_writes += 1
            f.stats.record_write(n, secs)
        else:
            stats._executed_file_reads += 1
            f.stats.record_read(n, secs)

    def _map_stage(self, buf, fbase, ctx, _pos, write) -> None:
        """``map_access``'s copy: between the file buffer ``buf`` (plan
        file offset ``f`` is ``buf[fbase + f]``) and user memory for a
        :data:`MEM` piece, else the piece's staging slot — by its
        blocks, or, deferred, through the engine's view walk.  ``ctx``
        is ``(plan, op, mem, bufs)``."""
        plan, op, mem, bufs = ctx
        piece = op.pieces[0]
        if piece.slot == MEM:
            self._mem_copy(buf, fbase, piece.blocks, mem,
                           piece.d_lo - plan.d0, write, perf_counter())
            return
        wlo = -fbase
        if write:
            arr, base, _zc = self._payload_view(bufs, piece)
        else:
            sb = self._ensure_buf(plan, piece.slot, piece.d_lo, piece.d_hi,
                                  mem, bufs)
            arr, base = sb.arr, sb.d_lo
            self._note_staging()
        if piece.blocks is not None:
            if write:
                DataPlane.scatter(buf, wlo, piece.blocks, arr,
                                  piece.d_lo - base)
            else:
                DataPlane.gather(buf, wlo, piece.blocks, arr,
                                 piece.d_lo - base)
            return
        win = buf[op.lo - wlo:op.hi - wlo]
        if write:
            self.codec.stream_scatter_window(win, op.lo, op.hi, arr, base,
                                             piece.d_hi)
        else:
            self.codec.stream_gather_window(win, op.lo, op.hi, arr, base,
                                            sb.d_hi)

    # -- file writes ---------------------------------------------------
    def _write(self, plan, op: FileWriteOp, mem, bufs) -> None:
        # Ordered path (rmw windows): every offloaded op must land
        # before a synchronous file op runs.
        if self._worker is not None:
            self._drain_worker(plan, 0, bufs)
        if op.mode == "direct":
            for piece in op.pieces:
                self._write_piece_direct(op, piece, bufs)
            return
        stats = self.stats
        lo = op.lo + self._fdelta
        if op.mode == "assemble":
            fb = np.empty(op.hi - op.lo, dtype=np.uint8)
        else:  # rmw: pre-read the window, overlay, write back
            fb = read_window(self.file, lo, op.hi + self._fdelta)
            stats._executed_file_reads += 1
            stats._device_sync_seconds += self._last.seconds
        scattered = 0
        for piece in op.pieces:
            if piece.slot == MEM:
                scattered += self._mem_copy(
                    fb, -op.lo, piece.blocks, mem, piece.d_lo - plan.d0,
                    True, perf_counter())
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
            stats._executed_file_writes += 1
            self.file.pwrite(lo, fb)
            stats._device_sync_seconds += self._last.seconds

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
        self.stats._executed_file_writes += offs.size
        self.stats._device_sync_seconds += secs

    # -- exchange ------------------------------------------------------
    def _exchange(self, plan, op: ExchangeOp, mem, bufs) -> None:
        p2p = op.mode == "p2p"
        # Relaxed round synchronization (p2p): only the (AP, IOP) pairs
        # the metadata proves move bytes communicate; a round with
        # nothing to send or receive skips the network entirely.
        if op.sends or op.recvs or not p2p:
            if self.comm is None:
                raise IOEngineError(
                    "plan contains an exchange op but the executor has "
                    "no communicator"
                )
            from repro.io.two_phase import exchange, exchange_p2p

            outbound = {} if p2p else [None] * self.comm.size
            for send in op.sends:
                outbound[send.rank] = self._payload_for(send, bufs)
            if p2p:
                inbound = exchange_p2p(self.comm, outbound, op.recvs,
                                       op.tag).items()
            else:
                inbound = exchange(self.comm, outbound)
                if (self._cur_round is not None and not op.sends
                        and all(item is None for item in inbound)):
                    # This rank synchronized a round it moved no bytes
                    # in — the cost the relaxed p2p exchange avoids.
                    self.stats.rounds_idle_synced += 1
                inbound = enumerate(inbound)
            for src, item in inbound:
                if item is not None:
                    self._put(bufs, in_slot(src), item, _held_bytes(item))
        self._note_staging()
        self.stats.executed_exchanges += 1

    def _payload_for(self, send: Send, bufs):
        if send.slot is None:
            return (send.ol, send.d_lo)
        buf = bufs.get(send.slot)
        return (buf.d_lo, buf.d_hi, buf.arr) if isinstance(buf, _Buf) else buf

    # ------------------------------------------------------------------
    # Counted one-extent file access shims for deferred-piece codecs,
    # which stream blocks through them (``file.pwrite`` in
    # ``stream_write_blocks``, for example).  The running plan's
    # ``file_delta`` applies here, so streamed blocks of a replayed plan
    # land translated.
    # ------------------------------------------------------------------
    def pread_into(self, offset: int, out: np.ndarray) -> int:
        n = self.file.pread_into(offset + self._fdelta, out)
        self.stats._executed_file_reads += 1
        self.stats._device_sync_seconds += self._last.seconds
        return n

    def pwrite(self, offset: int, data: np.ndarray):
        self.stats._executed_file_writes += 1
        n = self.file.pwrite(offset + self._fdelta, data)
        self.stats._device_sync_seconds += self._last.seconds
        return n


class BoundCall:
    """A plan of one mapped :data:`MEM` op bound to one memory layout
    (``memtype`` x ``count``): the whole access as one call, which
    :meth:`IOEngine.run_independent <repro.io.engines.base.IOEngine.
    run_independent>` makes on every replay and :meth:`PlanExecutor.
    run` on the cold access that bound it.

    Built by :meth:`PlanExecutor.bind` and kept in the plan's replay
    entry.  It holds the layout, the op's file span and bytes, the
    device seconds on one disk (else ``None``: ``map_access`` prices
    the stripes), and the pair kernel's unchecked copy core
    (:attr:`Kernel.core <repro.core.gather.Kernel>`), which it runs
    under :meth:`~repro.fs.simfile.FileBuffer.map_access` with no span
    check: both spans are proved here.  The user side: the layout's
    bytes end at ``end`` (what a :class:`MemDescriptor` of it checks),
    so a buffer of at least ``end`` bytes holds them.  The file side:
    ``map_access`` copies within ``[lo, hi)`` of a buffer it has
    grown, or zero-padded, to ``hi``.  The file buffer itself is not
    bound: ``SimFile`` reallocates to grow and ``OsFile`` remaps.

    It bills its counters on its :class:`~repro.tally.Tally`, which it
    registers with their owners when built — the executor's
    ``PlanStats``, the file's ``FileStats``, the binding session's
    block-program and kernel-path counters, and the engine's
    ``EngineStats`` when the copy counts in ``ff_kernel_calls`` — and
    which :meth:`fold` moves into their bases when the call leaves its
    replay entry.
    """

    __slots__ = ("memtype", "count", "end", "origin", "write", "to_b",
                 "lo", "hi", "nbytes", "strict", "secs", "core", "kind",
                 "map", "executor", "phases", "plan_kind", "span", "tally",
                 "owners")

    def __init__(self, executor: PlanExecutor, plan: IOPlan, op,
                 mem: MemDescriptor, kernel) -> None:
        write = type(op) is FileWriteOp
        file, n = executor.file, plan.nbytes
        dev = file.device
        self.memtype, self.count = mem.memtype, mem.count
        self.end, self.origin = mem.end, mem.origin
        self.write, self.to_b = write, not write
        self.lo, self.hi, self.nbytes = op.lo, op.hi, n
        self.strict = not write and op.strict
        self.secs = ((dev.write_time if write else dev.read_time)(n)
                     if file.striping.ndisks == 1 else None)
        self.core, self.kind = kernel.core, kernel.kind
        self.map, self.executor = file.map_access, executor
        self.phases = executor.phases
        self.plan_kind, self.span = plan.kind, f"exec.{type(op).__name__}"
        self.tally = tally = Tally(write, n, self.secs, self.kind)
        sess = SESSION.get()
        owners = (executor.stats, file.stats, sess.prog_stats,
                  sess.kernel_paths)
        if not mem.is_contiguous and executor._ff is not None:
            owners += (executor._ff,)
        self.owners = owners
        for owner in owners:
            owner.add_tally(tally)

    def fold(self) -> None:
        """Move the tally into its owners' bases: the call left its
        replay entry, and is not run again."""
        for owner in self.owners:
            owner.fold(self.tally)
        self.owners = ()

    def run(self, buf, delta: int, t0: Optional[float] = None):
        """Run the access translated ``delta`` bytes into the file, with
        ``buf`` as the user buffer; returns the bytes moved — or
        ``None``, moving nothing, when ``buf`` is not a C-contiguous
        ``ndarray`` of at least ``end`` bytes, writeable for a read:
        the caller then validates it (:class:`MemDescriptor`) and calls
        again with its byte view.  Any such buffer is used through its
        flat byte view, an O(1) reshape.

        ``t0``, the ``perf_counter()`` at the access's start, marks a
        replay: one replay on the tally (a planner hit and a
        pair-program hit) and the ``plan`` phase since ``t0``.  ``None``
        is a cold access, whose plan and lookup are billed already.
        Either way, once the copy returned, the call bills what the
        executor's mapped op would — the copy (kernel path,
        ``ff_kernel_calls``), the device seconds, one executed op and
        one file read or write — as one run on its tally, and the
        ``pack``/``unpack`` and ``file_io`` phases.
        """
        if type(buf) is not _ND:
            return None
        write = self.write
        fl = buf.flags
        if (not fl.c_contiguous or buf.nbytes < self.end
                or not (write or fl.writeable)):
            return None
        if buf.dtype is not _U8 or buf.ndim != 1:
            buf = (buf if buf.ndim == 1 else buf.reshape(-1)).view(_U8)
        n, secs, tally = self.nbytes, self.secs, self.tally
        lo, hi = self.lo + delta, self.hi + delta
        if t0 is not None:
            tally.replays += 1
        if self.strict:
            self.executor._check_strict(self.lo, lo, hi, n)
        phases = self.phases
        t1 = perf_counter()
        if t0 is not None:
            phases.plan += t1 - t0
        sec, t2 = self.map(lo, hi, n, write, secs, delta, self.core, buf,
                           self.origin, self.to_b)
        tally.runs += 1
        if secs is None:
            tally.secsum += sec
        if write:
            phases.pack += t2 - t1
        else:
            phases.unpack += t2 - t1
        t3 = perf_counter()
        phases.file_io += t3 - t2
        if trace.TRACE_ON:
            if t0 is not None:
                trace.TRACER.add("plan.independent", t0, t1, write=write,
                                 nbytes=n)
            trace.TRACER.add(self.span, t1, t3, plan=self.plan_kind)
        return n


def _dense_window(op) -> bool:
    """One piece whose blocks are one run spanning the whole window."""
    if len(op.pieces) != 1:
        return False
    blocks = op.pieces[0].blocks
    return (isinstance(blocks, Blocks) and blocks.count == 1
            and blocks.nbytes == op.hi - op.lo)


_X = PlanExecutor
#: Handlers of the steps that need the round/pipeline bookkeeping.
_COLLECTIVE_STEPS = frozenset((_X._round, _X._drain, _X._exchange,
                               _X._submit_file_read, _X._submit_file_write))


def _lower_op(op) -> tuple:
    """One op as a step ``(handler, op, bucket, span)`` (see
    :meth:`PlanExecutor.lower`)."""
    t = type(op)
    if (t is FileReadOp or t is FileWriteOp) and op.mode == "mapped":
        return _X._mapped, op, "file_io", f"exec.{t.__name__}"
    if t is FileReadOp:
        if op.overlap:
            fn = _X._submit_file_read
        elif op.mode == "direct":
            fn = _X._read_direct
        else:
            fn = _X._read_direct if _dense_window(op) else _X._read_window
        return fn, op, "file_io", "exec.FileReadOp"
    if t is FileWriteOp:
        fn = (_X._submit_file_write
              if op.overlap and _X._can_offload(op) else _X._write)
        return fn, op, "file_io", "exec.FileWriteOp"
    step = _STEPS.get(t)
    if step is None:
        raise IOEngineError(f"unknown plan op {op!r}")
    fn, bucket = step
    return fn, op, bucket, f"exec.{t.__name__}"


_STEPS = {
    LockOp: (_X._lock, "lock"),
    UnlockOp: (_X._unlock, "lock"),
    GatherOp: (_X._gather, "pack"),
    ScatterOp: (_X._scatter, "unpack"),
    DrainOp: (_X._drain, "file_io"),
    ExchangeOp: (_X._exchange, "exchange"),
    ShipOp: (_X._ship, "ship"),
    RoundOp: (_X._round, None),
}
