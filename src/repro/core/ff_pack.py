"""``ff_pack`` / ``ff_unpack`` — flattening-on-the-fly (paper §3.1).

The two functions mirror the MPI/SX internal interface::

    MPIR_ff_pack(srcbuf, count, datatype, skipbytes, packbuf, packsize, copied)
    MPIR_ff_unpack(packbuf, packsize, dstbuf, count, datatype, skipbytes, copied)

Both move data between a (possibly) non-contiguous typed buffer and a
contiguous pack buffer, supporting *partial* operation: ``skipbytes`` data
bytes (counted in the contiguous representation) are skipped before the
operation, and at most ``packsize`` bytes are moved.  The returned byte
count lets the caller iterate over bounded segments when the pack buffer
cannot hold the whole message — the situation that always arises for file
buffers (paper §3.2.2).

Both functions are "efficient" in the paper's sense: the time is
proportional to the bytes moved plus a low-order term in the depth of the
datatype tree; it does not depend on ``skipbytes`` or on any repetition
counts inside the datatype.  All copying happens in the NumPy
gather/scatter kernels of :mod:`repro.core.gather`, outside any traversal.
"""

from __future__ import annotations

import numpy as np

from repro.core import blockprog
from repro.core.dataloop import Dataloop, _vector, compile_dataloop
from repro.core.gather import gather_blocks, scatter_blocks
from repro.datatypes.base import Datatype
from repro.errors import FFError
from repro.obs import trace

__all__ = ["ff_pack", "ff_unpack", "top_dataloop"]


def top_dataloop(dt: Datatype, count: int) -> Dataloop | None:
    """Dataloop of ``count`` tiled instances of ``dt``.

    The count dimension is one more vector level; for ``count == 1`` the
    instance loop is returned directly.  O(1) beyond the cached instance
    compilation.  Memoized per ``(datatype, count)``: the block-program
    store keys on the loop's value, so a rebuild would be correct, but
    the memo saves the rebuild's calls on every pack of a two-phase
    round.
    """
    loop = compile_dataloop(dt)
    if loop is None or count == 0:
        return None
    if count == 1:
        return loop
    cache = getattr(dt, "_top_loop_cache", None)
    if cache is None:
        cache = {}
        dt._top_loop_cache = cache
    top = cache.get(count)
    if top is None:
        # _vector applies the standard normalizations (contiguous
        # collapse, perfect-nesting fusion), so e.g. count x contiguous
        # stays a single memcpy-able leaf.
        top = _vector(count, dt.extent, loop)
        if len(cache) >= 8:  # a handful of counts per type in practice
            cache.clear()
        cache[count] = top
    return top


def _as_bytes(buf: np.ndarray, writeable: bool) -> np.ndarray:
    """Flat uint8 view of a buffer.  A destination must be C-contiguous
    (a flat view of any other layout is a copy the kernel would fill and
    drop); a source in another layout is copied once."""
    if not buf.flags.c_contiguous:
        if writeable:
            raise FFError(
                f"destination buffer of shape {buf.shape} with strides "
                f"{buf.strides} is not C-contiguous"
            )
        buf = np.ascontiguousarray(buf)
    b = buf.view(np.uint8).reshape(-1)
    if writeable and not b.flags.writeable:
        raise FFError("destination buffer is read-only")
    return b


def ff_pack(
    srcbuf: np.ndarray,
    count: int,
    datatype: Datatype,
    skipbytes: int,
    packbuf: np.ndarray,
    packsize: int,
    origin: int = 0,
) -> int:
    """Pack typed data from ``srcbuf`` into contiguous ``packbuf``.

    Parameters
    ----------
    srcbuf
        the user buffer; byte offset ``origin`` corresponds to the
        datatype origin (offsets of the type map are relative to it).
    count, datatype
        the data is ``count`` tiled instances of ``datatype``.
    skipbytes
        data bytes (contiguous representation) to skip before packing.
    packbuf, packsize
        destination and its capacity; at most ``packsize`` bytes are
        written, starting at ``packbuf[0]``.

    Returns the number of bytes actually copied (0 at end of data).
    """
    if skipbytes < 0 or packsize < 0:
        raise FFError("skipbytes and packsize must be non-negative")
    loop = top_dataloop(datatype, count)
    if loop is None:
        return 0
    total = loop.size
    n = min(packsize, total - skipbytes)
    if n <= 0:
        return 0
    # Manual trace stamps: this is the regression-sensitive hot loop, so
    # the off path must cost one global read, nothing more — and a
    # category filter excluding ``ff`` must cost only the set probe.
    on = trace.TRACE_ON
    if on is not True and on:
        on = "ff" in on
    t0 = trace.now() if on else 0.0
    src = _as_bytes(srcbuf, writeable=False)
    dst = _as_bytes(packbuf, writeable=True)
    hit = blockprog.program_for(loop, skipbytes, skipbytes + n)
    if hit is not None:
        prog, base = hit
        copied = prog.gather(src, base + origin, dst, 0)
    else:
        offs, lens = loop.blocks_range(skipbytes, skipbytes + n)
        copied = gather_blocks(src, offs + origin, lens, dst, 0)
    if copied != n:
        raise FFError(
            f"ff_pack traversal corruption: copied {copied} of {n} bytes "
            f"(skipbytes={skipbytes}, count={count})"
        )
    if on:
        trace.TRACER.add("ff.pack", t0, bytes=n,
                         program=hit is not None)
    return n


def ff_unpack(
    packbuf: np.ndarray,
    packsize: int,
    dstbuf: np.ndarray,
    count: int,
    datatype: Datatype,
    skipbytes: int,
    origin: int = 0,
) -> int:
    """Unpack contiguous ``packbuf`` into typed ``dstbuf``.

    The inverse of :func:`ff_pack`; at most ``packsize`` bytes are read
    from ``packbuf`` and placed at the type-map positions following
    ``skipbytes`` skipped data bytes.  Returns bytes copied.
    """
    if skipbytes < 0 or packsize < 0:
        raise FFError("skipbytes and packsize must be non-negative")
    loop = top_dataloop(datatype, count)
    if loop is None:
        return 0
    total = loop.size
    n = min(packsize, total - skipbytes)
    if n <= 0:
        return 0
    on = trace.TRACE_ON
    if on is not True and on:
        on = "ff" in on
    t0 = trace.now() if on else 0.0
    src = _as_bytes(packbuf, writeable=False)
    dst = _as_bytes(dstbuf, writeable=True)
    hit = blockprog.program_for(loop, skipbytes, skipbytes + n)
    if hit is not None:
        prog, base = hit
        copied = prog.scatter(dst, base + origin, src, 0)
    else:
        offs, lens = loop.blocks_range(skipbytes, skipbytes + n)
        copied = scatter_blocks(dst, offs + origin, lens, src, 0)
    if copied != n:
        raise FFError(
            f"ff_unpack traversal corruption: copied {copied} of {n} "
            f"bytes (skipbytes={skipbytes}, count={count})"
        )
    if on:
        trace.TRACER.add("ff.unpack", t0, bytes=n,
                         program=hit is not None)
    return n
