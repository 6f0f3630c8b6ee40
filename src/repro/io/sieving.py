"""Data-sieving helpers shared by both engines.

Data sieving (Thakur et al., the paper's [11]) turns many small
non-contiguous file accesses into few large contiguous ones: a *file
buffer* is read covering a whole window of the file, the useful pieces
are copied between it and the user buffer, and — for writes — the window
is written back under a byte-range lock so the untouched gap bytes do not
clobber concurrent writers.

The engines differ only in how the "copy the useful pieces" step works,
so this module provides just the window geometry and the file-buffer
read/write operations with their locking discipline.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.fs.simfile import SimFile
from repro.obs import trace

__all__ = ["windows", "read_window", "write_window_locked",
           "coalesce_blocks"]


def windows(lo: int, hi: int, bufsize: int) -> Iterator[Tuple[int, int]]:
    """Yield file-buffer windows ``(wlo, whi)`` covering ``[lo, hi)``."""
    pos = lo
    while pos < hi:
        end = min(pos + bufsize, hi)
        yield (pos, end)
        pos = end


def coalesce_blocks(
    offsets: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Merge adjacent file blocks into single runs.

    Returns ``(offsets, lengths, merged_bytes)`` where ``merged_bytes``
    counts the bytes of blocks that were absorbed into a predecessor —
    the planner's ``coalesced_bytes`` statistic.  Blocks must be sorted
    and non-overlapping (as produced by ``blocks_range`` walks).
    """
    if offsets.size <= 1:
        return offsets, lengths, 0
    adjacent = offsets[1:] == offsets[:-1] + lengths[:-1]
    if not adjacent.any():
        return offsets, lengths, 0
    starts = np.concatenate(([True], ~adjacent))
    idx = np.flatnonzero(starts)
    groups = np.cumsum(starts) - 1
    new_lens = np.zeros(idx.size, dtype=np.int64)
    np.add.at(new_lens, groups, lengths)
    merged = int(lengths[1:][adjacent].sum())
    return offsets[idx], new_lens, merged


def read_window(simfile: SimFile, wlo: int, whi: int) -> np.ndarray:
    """Read ``[wlo, whi)`` into a fresh file buffer (zero-padded past EOF,
    so sieved writes extend files deterministically)."""
    # Manual stamps: one window per sieved access, so the off path must
    # not pay for a context manager.
    t0 = trace.now() if trace.TRACE_ON else 0.0
    fb = np.empty(whi - wlo, dtype=np.uint8)
    n = simfile.pread_into(wlo, fb)
    if n < fb.size:
        fb[n:] = 0
    if trace.TRACE_ON:
        trace.add_span("sieve.read_window", t0, bytes=whi - wlo)
    return fb


def write_window_locked(
    simfile: SimFile,
    wlo: int,
    fb: np.ndarray,
    already_locked: bool = False,
) -> None:
    """Write a file buffer back (lock already held by caller when
    ``already_locked``)."""
    if already_locked:
        simfile.pwrite(wlo, fb)
        return
    whi = wlo + fb.size
    simfile.lock_range(wlo, whi)
    try:
        simfile.pwrite(wlo, fb)
    finally:
        simfile.unlock_range(wlo, whi)
