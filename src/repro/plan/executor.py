"""The plan executor: run an :class:`~repro.plan.plan.IOPlan` against a file.

The executor is the only place where plan ops touch bytes.  It is
deliberately dumb — every decision (windows, coalescing, sieving, pre-read
skipping, exchange schedule) was already taken by the planner and is
encoded in the ops.  It compiles: :meth:`PlanExecutor.lower` turns a
plan, once, into a tuple of steps — each op with its pre-chosen handler,
phase bucket and span name — memoized on the plan, and :meth:`~
PlanExecutor.run` is one pass over them, one ``perf_counter`` stamp per
op boundary.  A replayed plan therefore costs one call per op.  Round
markers and pipelined file ops lower to :mod:`repro.plan.pipeline`.

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
``pack``/``unpack``.  A ``"mapped"`` file op of a :data:`MEM` piece
runs that copy against the file buffer itself (:meth:`~repro.fs.
simfile.FileBuffer.map_access`) as a :class:`BoundCall`, always: a
plan of one such op binds, per memory layout, into the call that runs
the whole access, and a run that was handed no call binds one and
folds it once it ran.
A replayed plan runs with a ``file_delta`` that translates every file
offset it names (windows, blocks, lock ranges).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from repro._ctx import SESSION
from repro.core.ff_pack import ff_pack, ff_unpack
from repro.errors import IOEngineError
from repro.io.fileview import MemDescriptor
from repro.io.sieving import read_window
from repro.obs import trace
from repro.obs.phases import PhaseAccumulator, RoundLog
from repro.plan import pipeline
from repro.plan.dataplane import (DataPlane, StageBuf, block_arrays,
                                  dense_window, pair_program)
from repro.plan.ops import (
    MEM,
    STAGE,
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
    UnlockOp,
    in_slot,
)
from repro.plan.plan import IOPlan
from repro.plan.stats import PlanStats
from repro.tally import Tally

__all__ = ["MemCodec", "KernelCodec", "PlanExecutor", "BoundCall"]

_U8 = np.dtype(np.uint8)
_ND = np.ndarray


class MemCodec(Protocol):
    """Memory-side pack/unpack used by gather/scatter ops.

    Offsets are relative to the start of the access (the plan's ``d0``).
    The file side of every piece is its own block spec, copied by the
    :class:`~repro.plan.dataplane.DataPlane`: a codec never sees a view.
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


def _held_bytes(buf) -> int:
    """Staging bytes a buffer-table entry holds: zero-copy views of the
    user buffer are free; everything else — gather outputs, inbound
    exchange payloads, reply buffers — is real staging memory."""
    if isinstance(buf, StageBuf):
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
        #: The two-phase round driver's state (:class:`~repro.plan.
        #: pipeline.RoundState`), created by the first round or overlap
        #: op; an independent run never touches it.
        self.round_state = None
        #: Where MEM-piece copies count (see :class:`MemCodec`), or None.
        self._ff = (self.codec.stats if getattr(
            self.codec, "counts_mem_copies", False) else None)

    # ------------------------------------------------------------------
    # Lowering: each op becomes one step ``(handler, op, bucket, span)``
    # ------------------------------------------------------------------
    def lower(self, plan: IOPlan) -> tuple:
        """The steps of ``plan``, built once and memoized on the plan
        (as ``Blocks.prog`` is): ``(handler, op, bucket, span)``, run as
        ``handler(executor, plan, op, mem, bufs)`` and billed to phase
        ``bucket`` and trace ``span`` — or, with no bucket, billing
        itself (a round marker, a bound call).  Every choice the op
        alone decides — mode, dense window, offloading — is made here.
        """
        low = plan.lowered
        if low is None:
            low = tuple(map(_lower_op, plan.ops))
            object.__setattr__(plan, "lowered", low)
        return low

    def bind(self, plan: IOPlan, mem: MemDescriptor):
        """The :class:`BoundCall` of a plan of one mapped :data:`MEM`
        op on layout ``mem``, else ``None``: everything a replay of the
        plan on this layout needs is resolved here."""
        steps = plan.lowered or self.lower(plan)
        if len(steps) != 1 or steps[0][0] is not _call:
            return None
        return BoundCall(self, plan, steps[0][1], mem)

    def run(self, plan: IOPlan, mem: Optional[MemDescriptor] = None,
            file_delta: int = 0,
            bound: Optional["BoundCall"] = None) -> dict:
        """Execute ``plan``; returns the final staging-buffer table.

        ``mem`` is required when the plan contains gather/scatter ops
        or :data:`~repro.plan.ops.MEM` pieces.
        ``file_delta`` translates every file offset the plan names —
        the replay fast path re-binds a cached relocatable plan to a
        period-translated access this way.  Each step is billed the
        time since the previous op boundary (chained stamps).
        ``bound`` — ``plan``'s :class:`BoundCall` on ``mem`` — runs the
        plan as that call, billed as a cold access (the planner billed
        the plan, :meth:`bind` the pair-program lookup).
        """
        steps = plan.lowered or self.lower(plan)
        if bound is not None:
            bound.run(mem.as_bytes, file_delta)
            return {}
        bufs: Dict[object, object] = {}
        self._sizes = {}
        self._live = 0
        self._fdelta = file_delta
        stats = self.stats
        phases = self.phases
        t0 = perf_counter()
        try:
            for fn, op, bucket, span in steps:
                fn(self, plan, op, mem, bufs)
                t1 = perf_counter()
                if bucket is not None:
                    stats._executed_ops += 1
                    setattr(phases, bucket,
                            getattr(phases, bucket) + (t1 - t0))
                    state = self.round_state
                    if state is not None and state.comp:
                        # Worker seconds credited to ``pipeline_io`` ran
                        # inside this op: take them out of ``file_io``.
                        comp, state.comp = state.comp, 0.0
                        phases.file_io -= min(comp, phases.file_io)
                    if trace.TRACE_ON:
                        trace.TRACER.add(span, t0, t1, plan=plan.kind)
                t0 = t1
        finally:
            self._fdelta = 0
            state = self.round_state
            if state is not None and state.cur is not None:
                pipeline.finish(self, plan, bufs)
            if self._held:
                # A failing op must never leave byte-range locks behind
                # (other ranks would deadlock on their next sieved write).
                held, self._held = self._held, []
                for lo, hi in reversed(held):
                    self.file.unlock_range(lo, hi)
        return bufs

    # -- shipped file ops (sharded files) --------------------------------
    def _ship(self, plan, op: ShipOp, mem, bufs) -> None:
        from repro.io import shipping

        if op.write:
            # Same ordering contract as synchronous writes: offloaded
            # ops land before the shipped write.
            pipeline.drain(self, plan, 0, bufs)
        shipping.execute_ship(self, plan, op, mem, bufs,
                              pipeline.round_index(self))
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

    def _ensure_buf(self, plan, slot, d_lo, d_hi, mem, bufs) -> StageBuf:
        """Staging buffer covering ``[d_lo, d_hi)``, allocating if needed.

        The default ``STAGE`` slot — and a ``MEM`` piece — of a
        contiguous memory descriptor is a zero-copy view of the user
        buffer itself.
        """
        buf = bufs.get(slot)
        if isinstance(buf, StageBuf) and buf.d_lo <= d_lo and buf.d_hi >= d_hi:
            return buf
        if slot in plan.slots:
            d_lo, d_hi = plan.slots[slot]
        n = d_hi - d_lo
        if (slot == STAGE or slot == MEM) and mem is not None \
                and mem.is_contiguous:
            arr = mem.contiguous_slice(d_lo - plan.d0, n)
            buf = StageBuf(d_lo, d_hi, arr, zero_copy=True)
            n = 0
        else:
            buf = StageBuf(d_lo, d_hi, np.empty(n, dtype=np.uint8))
        self._put(bufs, slot, buf, n)
        return buf

    @staticmethod
    def _payload_view(bufs, piece: Piece) -> Tuple[np.ndarray, int, bool]:
        """``(array, base_data_offset, zero_copy)`` of a piece's slot."""
        buf = bufs.get(piece.slot)
        if isinstance(buf, StageBuf):
            return buf.arr, buf.d_lo, buf.zero_copy
        if isinstance(buf, tuple) and len(buf) == 3:
            d_lo, _d_hi, arr = buf
            return arr, d_lo, False
        raise IOEngineError(
            f"plan references slot {piece.slot!r} with no usable buffer"
        )

    def close(self) -> None:
        """Release the pipeline worker, dropping any queued (unapplied)
        jobs: the owning file handle closes.  Safe to call more than
        once or without a worker ever having been created."""
        state = self.round_state
        worker = state.worker if state is not None else None
        if worker is not None:
            state.worker = None
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
            buf = StageBuf(op.d_lo, op.d_hi, mem.contiguous_slice(rel, n),
                           zero_copy=True)
            n = 0
        else:
            buf = StageBuf(op.d_lo, op.d_hi, np.empty(n, dtype=np.uint8))
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
        stats = self.stats
        for piece in op.pieces:
            buf = self._ensure_buf(plan, piece.slot, piece.d_lo,
                                   piece.d_hi, mem, bufs)
            short, secs, calls = DataPlane.direct(
                self.file, piece.blocks, buf.arr, piece.d_lo - buf.d_lo,
                self._fdelta, False)
            stats._executed_file_reads += calls
            stats._device_sync_seconds += secs
            if short is not None and op.strict:
                i, got = short
                offs, lens = block_arrays(piece.blocks)
                raise IOEngineError(
                    f"short read: {got} of {lens[i]} bytes at {offs[i]}")
        self._note_staging()

    def _read_window(self, plan, op: FileReadOp, mem, bufs) -> None:
        """Window mode: one file buffer per coalesced window."""
        fb = read_window(self.file, op.lo + self._fdelta,
                         op.hi + self._fdelta)
        self.stats._executed_file_reads += 1
        self.stats._device_sync_seconds += self._last.seconds
        for piece in op.pieces:
            if piece.slot == MEM:
                self._mem_copy(fb, op.lo, piece, mem, plan, False)
                continue
            buf = self._ensure_buf(
                plan, piece.slot, piece.d_lo, piece.d_hi, mem, bufs
            )
            DataPlane.gather(fb, op.lo, piece.blocks, buf.arr,
                             piece.d_lo - buf.d_lo)
        self._note_staging()

    def _mem_copy(self, fb: np.ndarray, wlo: int, piece, mem, plan,
                  write: bool) -> int:
        """Copy a sieved window's MEM piece between window buffer ``fb``
        (file offset ``wlo`` at ``fb[0]``) and user memory in one
        pair-program call.  Returns bytes copied.  Billed to ``pack``
        (write) or ``unpack`` (read), out of ``file_io``."""
        t0 = perf_counter()
        if mem is None:
            raise IOEngineError("memory piece in a plan run without memory")
        ff = self._ff
        if ff is not None and not mem.is_contiguous:
            ff._ff_kernel_calls += 1
        n = (DataPlane.scatter if write else DataPlane.gather)(
            fb, wlo, piece.blocks, mem, piece.d_lo - plan.d0)
        el = perf_counter() - t0
        phases = self.phases
        if write:
            phases.pack += el
        else:
            phases.unpack += el
        phases.file_io -= el
        return n

    # -- mapped access (reads and writes) ------------------------------
    def _mapped(self, plan, op, mem, bufs) -> None:
        """Mapped mode of the list-based engine's staged piece: one
        :meth:`~repro.fs.simfile.FileBuffer.map_access` call (one device
        op, no lock) copies the staging slot, by :meth:`_map_stage`."""
        write = type(op) is FileWriteOp
        d = self._fdelta
        f, stats, n = self.file, self.stats, plan.nbytes
        secs = f.map_access(op.lo + d, op.hi + d, n, write, None, d,
                            self._map_stage, (plan, op, mem, bufs), None,
                            not write and op.strict)[0]
        stats._device_sync_seconds += secs
        if write:
            stats._executed_file_writes += 1
            f.stats.record_write(n, secs)
        else:
            stats._executed_file_reads += 1
            f.stats.record_read(n, secs)

    def _map_stage(self, buf, fbase, ctx, _pos, to_b) -> None:
        """``map_access``'s copy: between the file buffer ``buf`` (plan
        file offset ``f`` is ``buf[fbase + f]``), as the window of the
        op's span, and the piece's staging slot, by its blocks.
        ``ctx`` is ``(plan, op, mem, bufs)``."""
        plan, op, mem, bufs = ctx
        piece = op.pieces[0]
        if to_b:
            sb = self._ensure_buf(plan, piece.slot, piece.d_lo, piece.d_hi,
                                  mem, bufs)
            arr, base = sb.arr, sb.d_lo
            self._note_staging()
        else:
            arr, base, _zc = self._payload_view(bufs, piece)
        copy = DataPlane.gather if to_b else DataPlane.scatter
        copy(buf[fbase + op.lo:fbase + op.hi], op.lo, piece.blocks, arr,
             piece.d_lo - base)

    # -- file writes ---------------------------------------------------
    def _write(self, plan, op: FileWriteOp, mem, bufs) -> None:
        # Ordered path (rmw windows): every offloaded op must land
        # before a synchronous file op runs.
        state = self.round_state
        if (state is not None and state.cur is not None
                and state.worker is not None):
            pipeline.drain(self, plan, 0, bufs)
        stats = self.stats
        if op.mode == "direct":
            for piece in op.pieces:
                arr, base, _zc = self._payload_view(bufs, piece)
                _s, secs, calls = DataPlane.direct(
                    self.file, piece.blocks, arr, piece.d_lo - base,
                    self._fdelta, True)
                stats._executed_file_writes += calls
                stats._device_sync_seconds += secs
            return
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
                scattered += self._mem_copy(fb, op.lo, piece, mem, plan,
                                            True)
                continue
            arr, base, _zc = self._payload_view(bufs, piece)
            scattered += DataPlane.scatter(fb, op.lo, piece.blocks, arr,
                                           piece.d_lo - base)
        if scattered or op.mode == "assemble":
            stats._executed_file_writes += 1
            self.file.pwrite(lo, fb)
            stats._device_sync_seconds += self._last.seconds

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
                if (pipeline.round_index(self) >= 0 and not op.sends
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
        if isinstance(buf, StageBuf):
            return (buf.d_lo, buf.d_hi, buf.arr)
        return buf


class BoundCall:
    """A mapped :data:`MEM` op bound to one memory layout (``memtype``
    x ``count``): for a plan of that one op, the whole access as one
    call, which :meth:`IOEngine.run_independent <repro.io.engines.base.
    IOEngine.run_independent>` makes on every replay and
    :meth:`PlanExecutor.run` on the cold access that bound it.

    Built by :meth:`PlanExecutor.bind` and kept in the plan's replay
    entry — or by the op's step (:func:`_call`) for a run with no
    call, and folded once it ran.  It looks the pair program up once,
    and holds the layout, the op's file span and bytes, the
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

    __slots__ = ("memtype", "count", "end", "origin", "write", "lo", "hi",
                 "nbytes", "strict", "secs", "core", "kind", "map",
                 "phases", "plan_kind", "span", "tally", "owners")

    def __init__(self, executor: PlanExecutor, plan: IOPlan, op,
                 mem: MemDescriptor) -> None:
        piece = op.pieces[0]
        kernel = pair_program(piece.blocks, mem, piece.d_lo - plan.d0).kernel
        write = type(op) is FileWriteOp
        file, n = executor.file, piece.d_hi - piece.d_lo
        dev = file.device
        self.memtype, self.count = mem.memtype, mem.count
        self.end, self.origin = mem.end, mem.origin
        self.write = write
        self.lo, self.hi, self.nbytes = op.lo, op.hi, n
        self.strict = not write and op.strict
        self.secs = ((dev.write_time if write else dev.read_time)(n)
                     if file.striping.ndisks == 1 else None)
        self.core, self.kind = kernel.core, kernel.kind
        self.map = file.map_access
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
        phases = self.phases
        t1 = perf_counter()
        if t0 is not None:
            phases.plan += t1 - t0
        sec, t2 = self.map(lo, hi, n, write, secs, delta, self.core, buf,
                           self.origin, self.strict)
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


def _call(ex, plan, op, mem, bufs) -> None:
    """Mapped :data:`MEM` op step of a run with no call (a deferred
    access, a plan too big to cache): a :class:`BoundCall` bound here,
    which bills its op, phases and span, and folded once it ran."""
    call = BoundCall(ex, plan, op, mem)
    try:
        call.run(mem.as_bytes, ex._fdelta)
    finally:
        call.fold()


_X = PlanExecutor


def _lower_op(op) -> tuple:
    """One op as a step ``(handler, op, bucket, span)`` (see
    :meth:`PlanExecutor.lower`)."""
    t = type(op)
    if t is not FileReadOp and t is not FileWriteOp:
        step = _STEPS.get(t)
        if step is None:
            raise IOEngineError(f"unknown plan op {op!r}")
        return step[0], op, step[1], f"exec.{t.__name__}"
    read, span = t is FileReadOp, f"exec.{t.__name__}"
    if op.mode == "mapped":
        if op.pieces[0].slot == MEM:
            return _call, op, None, span
        return _X._mapped, op, "file_io", span
    if op.overlap:
        fn = pipeline.submit_read if read else pipeline.submit_write
        return fn, op, "file_io", span
    if not read:
        fn = _X._write
    elif op.mode == "direct" or dense_window(op):
        fn = _X._read_direct
    else:
        fn = _X._read_window
    return fn, op, "file_io", span


_STEPS = {
    LockOp: (_X._lock, "lock"),
    UnlockOp: (_X._unlock, "lock"),
    GatherOp: (_X._gather, "pack"),
    ScatterOp: (_X._scatter, "unpack"),
    DrainOp: (pipeline.drain_op, "file_io"),
    ExchangeOp: (_X._exchange, "exchange"),
    ShipOp: (_X._ship, "ship"),
    RoundOp: (pipeline.open_round, None),
}
