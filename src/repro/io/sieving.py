"""Data-sieving helpers shared by both engines.

Data sieving (Thakur et al., the paper's [11]) turns many small
non-contiguous file accesses into few large contiguous ones: a *file
buffer* is read covering a whole window of the file, the useful pieces
are copied between it and the user buffer, and — for writes — the window
is written back under a byte-range lock so the untouched gap bytes do not
clobber concurrent writers.

The engines differ only in how the "copy the useful pieces" step works,
so this module provides just the window read (the plan executor locks,
overlays and writes back); the window geometry is
:func:`repro.intervals.tile`.
"""

from __future__ import annotations

import numpy as np

from repro.fs.simfile import SimFile
from repro.obs import trace

__all__ = ["read_window"]


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
