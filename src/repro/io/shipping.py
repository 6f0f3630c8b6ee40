"""Request shipping — whole noncontiguous accesses over the wire.

Against a striped multi-server backend (:mod:`repro.fs.sharded`), the
plain execution path is wasteful twice over: every direct-mode block
becomes its own wire round trip, and every byte crosses the wire next
to a fresh request header.  "Noncontiguous I/O through PVFS" shows the
fix — describe the *whole* noncontiguous access to each storage server
in one request — and compares the two ways of describing it:

list I/O (``ship_protocol=list``)
    the client flattens the access into per-shard offset/length lists
    and ships the exploded lists (16 bytes of descriptor per extent);
datatype I/O (``ship_protocol=dtype``)
    the client ships each rank's *compact fileview* once per (shard,
    view) and afterwards only ``(view id, data range, file delta)`` —
    constant descriptor bytes per access; the server flattens on the
    fly through the very same :func:`repro.fs.striping.split_blocks`
    kernel the client-side list path uses, which is what makes the two
    protocols byte-identical by construction.

The module has two halves, matching the plan architecture:

:func:`maybe_rewrite`
    a plan→plan rewrite hooked into :meth:`IOEngine.run_plan` that
    replaces eligible :class:`~repro.plan.ops.FileReadOp` /
    :class:`~repro.plan.ops.FileWriteOp` instances with
    :class:`~repro.plan.ops.ShipOp`; ineligible ops (sieved windows,
    read-modify-write, pipelined overlap ops) keep the local path —
    sieving and locking semantics are exactly the point of those;
:func:`execute_ship`
    the executor-side interpreter for a ``ShipOp``: post one request
    per (piece, involved shard) in ascending shard order, then collect
    the replies in the same order (the per-connection FIFO makes that
    deterministic), scattering read payloads into staging buffers by
    the client's own extent arithmetic.

Coordinates inside a ``ShipOp`` stay plan-relative; the running plan's
``file_delta`` is applied at ship time (client-side for lists, by the
server for datatype I/O), so cached and replayed plans rewrite once
and re-ship anywhere — same contract as the local file primitives.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.fileview_cache import CompactFileview
from repro.core.gather import gather_blocks, scatter_blocks
from repro.errors import FFError, IOEngineError
from repro.fs.striping import split_blocks, to_global
from repro.obs import trace
from repro.plan.dataplane import block_arrays
from repro.plan.ops import (
    Blocks,
    FileReadOp,
    FileWriteOp,
    Piece,
    ShipOp,
    in_slot,
    out_slot,
    STAGE,
)

__all__ = ["maybe_rewrite", "execute_ship"]

#: Rewritten-plan memo entries kept per engine (plans are cached by the
#: planner, so the same object comes back access after access; the memo
#: holds a strong reference to the source plan, which keeps ``id()``
#: keys valid).
_MEMO_CAP = 64


# ----------------------------------------------------------------------
# Plan rewriting
# ----------------------------------------------------------------------
def maybe_rewrite(engine, plan):
    """``plan`` with eligible file ops replaced by ShipOps — or ``plan``
    itself when nothing is eligible or the backend is not sharded.

    Memoized per engine on plan identity: planner-cached plans rewrite
    once and replay the rewritten program.
    """
    from repro.fs.sharded import ShardedFile

    fh = engine.fh
    protocol = fh.hints.ship_protocol
    if protocol is None or not isinstance(fh.simfile, ShardedFile):
        return plan
    memo = getattr(engine, "_ship_memo", None)
    if memo is None:
        memo = engine._ship_memo = {}
    hit = memo.get(id(plan))
    if hit is not None and hit[0] is plan:
        return hit[1]
    t0 = time.perf_counter()
    rewritten = _rewrite(engine, plan, protocol)
    engine.stats.phases.add("plan", time.perf_counter() - t0)
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[id(plan)] = (plan, rewritten)
    if trace.TRACE_ON:
        trace.TRACER.add("shipping.rewrite", t0, plan=plan.kind,
                         shipped=sum(isinstance(o, ShipOp)
                                     for o in rewritten.ops))
    return rewritten


def _rewrite(engine, plan, protocol):
    import dataclasses

    ops = []
    changed = False
    for op in plan.ops:
        ship = None
        if isinstance(op, (FileReadOp, FileWriteOp)):
            ship = _ship_op(engine, plan, op, protocol)
        if ship is not None:
            ops.append(ship)
            changed = True
        else:
            ops.append(op)
    if not changed:
        return plan
    return dataclasses.replace(plan, ops=tuple(ops))


def _ship_op(engine, plan, op, protocol) -> Optional[ShipOp]:
    """The ShipOp replacing ``op``, or ``None`` if it must stay local.

    Eligible are direct-mode ops and fully-covered (``assemble``)
    writes — the ones whose byte movement is exactly "these blocks,
    these data bytes", with no window pre-read, no sieving and no
    locking.  Sieved windows and rmw writes keep the local path: their
    read-modify-write and lock semantics already go through the
    :class:`~repro.fs.sharded.ShardedFile` surface per primitive.
    Pipelined (``overlap``) ops also stay local — their buffers must
    not be published before their round drains.
    """
    write = isinstance(op, FileWriteOp)
    if write:
        if op.mode not in ("direct", "assemble") or op.overlap:
            return None
    else:
        if op.mode != "direct" or op.overlap:
            return None
    if not op.pieces:
        return None
    pieces = []
    views = []
    for piece in op.pieces:
        if piece.blocks is None:
            blocks = _materialize(engine, op, piece)
            if blocks is None:
                return None
            piece = Piece(piece.slot, piece.d_lo, piece.d_hi, blocks)
        pieces.append(piece)
        views.append(
            _piece_view(engine, piece) if protocol == "dtype" else None
        )
    return ShipOp(
        op.lo, op.hi, write, protocol, tuple(pieces), tuple(views),
        strict=bool(getattr(op, "strict", False)),
    )


def _materialize(engine, op, piece) -> Optional[Blocks]:
    """Blocks of a deferred piece, via the engine's linear view walk
    (the list-based engine's independent direct ops carry these).

    Only the single-piece shape the planner actually emits is handled;
    the walked blocks must enumerate the piece's data bytes exactly and
    in order, else the op stays local.
    """
    walk = getattr(engine, "_view_blocks", None)
    if walk is None or len(op.pieces) != 1:
        return None
    offs, lens = [], []
    total = 0
    for a, ln, doff in walk(op.lo, op.hi):
        if doff >= piece.d_hi:
            break
        if doff != piece.d_lo + total:
            return None  # non-sequential data order: keep local
        ln = min(ln, piece.d_hi - doff)
        offs.append(a)
        lens.append(ln)
        total += ln
    if total != piece.d_hi - piece.d_lo:
        return None
    engine.stats.list_tuples_built += len(offs)
    return Blocks(np.asarray(offs, dtype=np.int64),
                  np.asarray(lens, dtype=np.int64))


def _piece_view(engine, piece) -> Optional[tuple]:
    """``(vid, cview, data_base)`` for the datatype protocol, or
    ``None`` → this piece falls back to list shipping.

    ``data_base`` translates the piece's plan-data coordinates into the
    *owning view's* data coordinates (an IOP serves pieces whose data
    range is another rank's); it is verified by round-tripping both
    ends of the piece through the compact view's navigation, so a
    mismatched or non-monotone block layout can never ship a wrong
    description — it degrades to the (always exact) list protocol.
    """
    resolved = _resolve_view(engine, piece.slot)
    if resolved is None:
        return None
    vid, cv = resolved
    blocks = piece.blocks
    offs, lens = block_arrays(blocks)
    if offs.size == 0:
        return None
    if offs.size > 1 and not np.all(offs[1:] >= offs[:-1] + lens[:-1]):
        return None  # overlapping/unsorted blocks: data order != file order
    try:
        base = cv.data_of_abs(int(offs[0])) - piece.d_lo
        lo_ok = cv.abs_of_data(piece.d_lo + base) == int(offs[0])
        hi_ok = (
            cv.abs_of_data(piece.d_hi + base, end=True)
            == int(offs[-1] + lens[-1])
        )
        span_ok = int(lens.sum()) == piece.d_hi - piece.d_lo
    except (FFError, ValueError, ZeroDivisionError):
        return None
    if not (lo_ok and hi_ok and span_ok):
        return None
    return (vid, cv, base)


def _resolve_view(engine, slot) -> Optional[tuple]:
    """``(vid, CompactFileview)`` of the rank whose view describes
    ``slot``'s data bytes, or ``None`` when no compact view is at hand.

    Engines with a fileview cache (listless) resolve any rank's view;
    engines without one (list-based) can still describe their *own*
    accesses by compacting the live fileview on first use.
    """
    fh = engine.fh
    path = fh.simfile.name
    src = fh.comm.rank
    if slot is not STAGE:
        if not (isinstance(slot, tuple) and len(slot) == 2
                and slot[0] in ("in", "out")):
            return None
        src = slot[1]
        if slot != in_slot(src) and slot != out_slot(src):
            return None
    cache = getattr(engine, "cache", None)
    if cache is not None:
        try:
            cv = cache.view_of(src)
        except FFError:
            return None
        return (path, src, cache.epoch), cv
    if src != fh.comm.rank:
        return None
    view = fh.view
    memo = getattr(engine, "_ship_view_memo", None)
    if memo is not None and memo[0] is view:
        _v, seq, cv = memo
    else:
        seq = memo[1] + 1 if memo is not None else 0
        cv = CompactFileview.from_view(view.disp, view.etype,
                                       view.filetype)
        engine._ship_view_memo = (view, seq, cv)
    return (path, src, ("local", seq)), cv


# ----------------------------------------------------------------------
# ShipOp execution
# ----------------------------------------------------------------------
def execute_ship(executor, plan, op: ShipOp, mem, bufs, rnd: int) -> None:
    """Run one ShipOp against the executor's :class:`ShardedFile`.

    Requests post per (piece, shard) in piece order then ascending
    shard order, and replies collect in exactly that order — each
    client connection is served FIFO by one handler thread, so the
    posts pipeline across shards without reordering hazards.
    """
    fh = executor.file
    stats = executor.stats
    fdelta = executor._fdelta
    ss = fh.fs.stripe_size
    nd = fh.fs.nshards
    stats.ship_ops += 1
    work = []  # (piece index, piece, view | None, per-shard parts)
    for i, piece in enumerate(op.pieces):
        if piece.d_hi <= piece.d_lo:
            continue
        offs, lens = block_arrays(piece.blocks)
        if offs.size == 0:
            continue
        if fdelta:
            offs = offs + fdelta
        parts = split_blocks(offs, lens, ss, nd)
        view = op.views[i] if i < len(op.views) else None
        if op.protocol == "dtype" and view is None:
            stats.ship_dtype_fallbacks += 1
        work.append((i, piece, view, parts))
    # Install every compact view this op names BEFORE posting any data
    # request: the install is a synchronous round trip on the same FIFO
    # connection the data requests ride, so it must never interleave
    # with posted-but-uncollected requests.
    for _i, _piece, view, parts in work:
        if view is None:
            continue
        vid, cv, _base = view
        for k in sorted(parts):
            stats.ship_view_bytes += fh.ship_view(k, vid, cv)
    posted = []  # (piece index, shard, (loffs, lens, doffs), seq)
    for i, piece, view, parts in work:
        for k in sorted(parts):
            t0 = time.perf_counter()
            if view is not None:
                vid, cv, base = view
                if op.write:
                    payload = _gather_payload(
                        executor, bufs, piece, parts[k]
                    )
                    req = fh.ship_post_dt_write(
                        k, vid, piece.d_lo + base, piece.d_hi + base,
                        fdelta, payload, rnd,
                    )
                    stats.ship_wire_payload_bytes += payload.nbytes
                else:
                    req = fh.ship_post_dt_read(
                        k, vid, piece.d_lo + base, piece.d_hi + base,
                        fdelta, rnd,
                    )
            else:
                loffs, llens, _doffs = parts[k]
                if op.write:
                    payload = _gather_payload(
                        executor, bufs, piece, parts[k]
                    )
                    req = fh.ship_post_write(k, loffs, llens, payload,
                                             rnd)
                    stats.ship_wire_payload_bytes += payload.nbytes
                else:
                    req = fh.ship_post_read(k, loffs, llens, rnd)
            stats.ship_requests += 1
            stats.ship_wire_request_bytes += req
            if op.write:
                stats._executed_file_writes += 1
            else:
                stats._executed_file_reads += 1
            seq = fh.wire[k]["requests"]
            posted.append((i, k, parts[k], seq))
            if trace.TRACE_ON:
                trace.TRACER.add(
                    "shipping.post", t0, shard=k,
                    protocol=op.protocol if view is not None else "list",
                    write=op.write,
                )
            trace.add_edge("send", key=("ship", fh.name, k, seq),
                           peer=-1)
    for i, k, (loffs, llens, doffs), seq in posted:
        piece = op.pieces[i]
        t0 = time.perf_counter()
        if op.write:
            fh.ship_collect_write(k)
        else:
            buf = executor._ensure_buf(
                plan, piece.slot, piece.d_lo, piece.d_hi, mem, bufs
            )
            payload, short = fh.ship_collect_read(k)
            stats.ship_wire_payload_bytes += payload.nbytes
            if short is not None and op.strict:
                _pos, o, ln, got = short
                raise IOEngineError(
                    f"short read: {got} of {ln} bytes at "
                    f"{to_global(k, o, ss, nd) - fdelta}"
                )
            scatter_blocks(
                buf.arr, (piece.d_lo - buf.d_lo) + doffs, llens,
                payload, 0,
            )
        if trace.TRACE_ON:
            trace.TRACER.add("shipping.collect", t0, shard=k,
                             write=op.write)
        trace.add_edge("recv", key=("ship", fh.name, k, seq), peer=-1)


def _gather_payload(executor, bufs, piece, part) -> np.ndarray:
    """One shard's write payload: the piece's bytes for that shard's
    extents, concatenated in file order — the order both the list and
    the datatype server paths write them back out in."""
    _loffs, llens, doffs = part
    arr, base, _zc = executor._payload_view(bufs, piece)
    payload = np.empty(int(llens.sum()), dtype=np.uint8)
    gather_blocks(arr, (piece.d_lo - base) + doffs, llens, payload, 0)
    return payload
