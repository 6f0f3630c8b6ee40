"""Round-robin stripe geometry.

A file's bytes are distributed round-robin over ``ndisks`` devices in
units of ``stripe_size``: stripe ``s`` lives on device ``s % ndisks`` at
local offset ``(s // ndisks) * stripe_size + (off % stripe_size)``.
This module is the one home of that mapping.  The simulated device
model uses it to charge an access by how many devices it engages (a
large access striped over all disks enjoys the aggregated bandwidth, a
small one pays single-disk bandwidth — the "suitable striping
configuration" effect the paper notes for parallel file access, §4.2,
"Number of processes"), and :mod:`repro.fs.sharded` uses the pure
functions below to route bytes to shard servers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "StripingConfig",
    "global_size",
    "local_size",
    "split_blocks",
    "to_global",
    "to_local",
]


@dataclass(frozen=True)
class StripingConfig:
    """Round-robin striping over simulated disks."""

    ndisks: int = 1
    stripe_size: int = 1 << 20

    def __post_init__(self) -> None:
        if self.ndisks < 1:
            raise ValueError(f"ndisks must be >= 1, got {self.ndisks}")
        if self.stripe_size < 1:
            raise ValueError(
                f"stripe_size must be >= 1, got {self.stripe_size}"
            )

    def streams_for(self, offset: int, nbytes: int) -> int:
        """Number of distinct disks an access ``[offset, offset+nbytes)``
        touches (bounds the bandwidth aggregation)."""
        if nbytes <= 0:
            return 1
        first = offset // self.stripe_size
        last = (offset + nbytes - 1) // self.stripe_size
        return min(self.ndisks, last - first + 1)


def to_local(offset: int, stripe_size: int, ndisks: int) -> Tuple[int, int]:
    """Map a global byte ``offset`` to ``(shard, local_offset)``."""
    s = offset // stripe_size
    return s % ndisks, (s // ndisks) * stripe_size + (offset - s * stripe_size)


def to_global(shard: int, local: int, stripe_size: int, ndisks: int) -> int:
    """Inverse of :func:`to_local`."""
    row = local // stripe_size
    return (row * ndisks + shard) * stripe_size + (local - row * stripe_size)


def local_size(shard: int, gsize: int, stripe_size: int, ndisks: int) -> int:
    """Bytes shard ``shard`` holds of a file of global size ``gsize``."""
    if gsize <= 0:
        return 0
    full, rem = divmod(gsize, stripe_size)
    q, r = divmod(full, ndisks)
    n = (q + (1 if shard < r else 0)) * stripe_size
    if rem and shard == full % ndisks:
        n += rem
    return n


def global_size(sizes, stripe_size: int, ndisks: int) -> int:
    """Global file size implied by per-shard local sizes (the inverse of
    :func:`local_size` over the shard that holds the last byte)."""
    g = 0
    for k, loc in enumerate(sizes):
        if loc <= 0:
            continue
        row, w = divmod(loc - 1, stripe_size)
        g = max(g, (row * ndisks + k) * stripe_size + w + 1)
    return g


def split_blocks(offsets, lengths, stripe_size: int, ndisks: int
                 ) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Split absolute file blocks at stripe boundaries and group by shard.

    Returns ``{shard: (local_offs, local_lens, data_offs)}`` with each
    shard's sub-extents in ascending file order.  ``data_offs`` index
    the concatenated data stream of the input blocks, so a payload built
    (or scattered) per shard in this order is exactly the shard's bytes
    of the access.  Client and server both flatten through this one
    kernel, which is what makes the two shipping protocols byte-
    equivalent regardless of how either side coalesced its block list.
    """
    offs = np.asarray(offsets, dtype=np.int64).reshape(-1)
    lens = np.asarray(lengths, dtype=np.int64).reshape(-1)
    keep = lens > 0
    if not keep.all():
        offs, lens = offs[keep], lens[keep]
    if offs.size == 0:
        return {}
    first = offs // stripe_size
    counts = (offs + lens - 1) // stripe_size - first + 1
    total = int(counts.sum())
    idx = np.repeat(np.arange(offs.size, dtype=np.int64), counts)
    base = np.repeat(np.cumsum(counts) - counts, counts)
    stripe = first[idx] + (np.arange(total, dtype=np.int64) - base)
    ext_lo = np.maximum(offs[idx], stripe * stripe_size)
    ext_len = (np.minimum(offs[idx] + lens[idx], (stripe + 1) * stripe_size)
               - ext_lo)
    dstart = np.repeat(np.cumsum(lens) - lens, counts)
    d_off = dstart + (ext_lo - offs[idx])
    shard = stripe % ndisks
    local = (stripe // ndisks) * stripe_size + (ext_lo - stripe * stripe_size)
    out = {}
    for k in np.unique(shard):
        m = shard == k
        out[int(k)] = (local[m], ext_len[m], d_off[m])
    return out
