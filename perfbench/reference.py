"""Yardsticks that never go through ``repro``.

:class:`Ceiling` is the contiguous reference a typed non-contiguous
access should approach (Hunold/Carpen-Amarie/Träff: typed access should
cost no more than an explicit pack plus a contiguous access).  It moves
the same user bytes per access with plain NumPy copies and, for the OS
backend, one raw ``os.pwrite``/``os.preadv`` on a separate file.

:class:`Plain` is the host-speed yardstick: the same typed accesses done
the plain way, so that a change in host speed moves it in step with the
program while a change to the program cannot move it.

:func:`oracle_file` rebuilds the expected file from the type-map oracle
(:mod:`repro.datatypes.packing`), the slow element-by-element reference
the test suite also trusts.
"""

from __future__ import annotations

import os
from typing import List, Sequence

import numpy as np

from repro.datatypes.packing import typemap_blocks


class Ceiling:
    """Pack + one contiguous copy (or syscall) per access, per rank."""

    def __init__(self, spec, patterns: List[np.ndarray],
                 ospath: str | None) -> None:
        self.spec = spec
        self.patterns = patterns
        A = spec.access_bytes
        self.packed = np.empty(A, dtype=np.uint8)
        self.rbuf = np.zeros(spec.buf_bytes, dtype=np.uint8)
        self.fd = None
        self.region = None
        if ospath is not None:
            self.fd = os.open(ospath, os.O_RDWR | os.O_CREAT, 0o644)
            os.ftruncate(self.fd, spec.slots * A)
        else:
            self.region = np.zeros(spec.slots * A, dtype=np.uint8)
        self.pos = 0

    def _packed_view(self) -> np.ndarray:
        spec = self.spec
        if spec.mem == "nc":
            return self.packed.reshape(spec.blockcount, spec.blocklen)
        return self.packed

    def batch(self, write: bool, n: int) -> None:
        spec = self.spec
        A = spec.access_bytes
        pv = self._packed_view()
        for i in range(n):
            off = ((self.pos + i) % spec.slots) * A
            if write:
                src = spec.data_view(self.patterns[(self.pos + i) & 1])
                if spec.mem == "nc":
                    pv[...] = src  # explicit pack
                    data = self.packed
                else:
                    data = src
                if self.fd is not None:
                    os.pwrite(self.fd, data, off)
                else:
                    self.region[off: off + A] = data
            else:
                dst = self.packed if spec.mem == "nc" else self.rbuf
                if self.fd is not None:
                    os.preadv(self.fd, [dst], off)
                else:
                    dst[...] = self.region[off: off + A]
                if spec.mem == "nc":
                    spec.data_view(self.rbuf)[...] = pv  # explicit unpack
        self.pos += n

    def close(self) -> None:
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None


class Plain:
    """Every rank's typed accesses done the plain way, from one thread.

    In-memory workloads: one NumPy strided copy per access and rank,
    between the user buffer and a region laid out like the file.  OS
    file: one raw ``os.pwrite``/``os.preadv`` per file block, on a
    separate file.  This is the program's own work by the most direct
    means, so a host that slows down (a busy neighbour, a shared core)
    slows both alike: over 150 s on a shared 2-vCPU VM the program's
    rate moved by up to 40 % while its ratio to this yardstick moved by
    1-4 %.  ``run.py`` scales the end-to-end times by it.

    It cycles over two slots only, so it adds little to the process's
    resident set; every working set here is cache- or page-cache-sized.
    """

    SLOTS = 2

    def __init__(self, spec, patterns: List[List[np.ndarray]],
                 ospath: str | None) -> None:
        self.spec = spec
        self.patterns = patterns  # [rank][pattern index]
        b = spec.blocklen
        self.step = spec.stride or 2 * b  # file bytes between blocks
        self.mstep = 2 * b if spec.mem == "nc" else b  # memory bytes
        # Offset of each rank's blocks in a step (see Workload.filetype).
        self.offs = [0 if spec.stride else r * b
                     for r in range(spec.nprocs)]
        self.rbuf = np.zeros(spec.buf_bytes, dtype=np.uint8)
        self.fd = None
        self.region = None
        size = self.SLOTS * spec.span()
        if ospath is not None:
            self.fd = os.open(ospath, os.O_RDWR | os.O_CREAT, 0o644)
            os.ftruncate(self.fd, size)
        else:
            self.region = np.zeros(size, dtype=np.uint8)
        self.pos = 0
        # First touch of every page, outside any timing.
        self.batch(True, self.SLOTS)
        self.batch(False, self.SLOTS)

    def batch(self, write: bool, n: int) -> None:
        spec = self.spec
        b, nb, span = spec.blocklen, spec.blockcount, spec.span()
        step, mstep = self.step, self.mstep
        for i in range(n):
            base = ((self.pos + i) % self.SLOTS) * span
            for pats, off in zip(self.patterns, self.offs):
                buf = pats[(self.pos + i) & 1] if write else self.rbuf
                if self.fd is None:
                    f = self.region[base: base + span].reshape(nb, step)
                    f = f[:, off: off + b]
                    m = buf.reshape(nb, mstep)[:, :b]
                    if write:
                        f[...] = m
                    else:
                        m[...] = f
                    continue
                mv = memoryview(buf)
                at = base + off
                for k in range(nb):
                    blk = mv[k * mstep: k * mstep + b]
                    if write:
                        os.pwrite(self.fd, blk, at + k * step)
                    else:
                        os.preadv(self.fd, [blk], at + k * step)
        self.pos += n

    def close(self) -> None:
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None


def _byte_index(blocks: Sequence[tuple]) -> np.ndarray:
    """Byte positions covered by ``(offset, length)`` runs, in order."""
    offs = np.array([o for o, _ in blocks], dtype=np.int64)
    lens = np.array([ln for _, ln in blocks], dtype=np.int64)
    starts = np.cumsum(lens) - lens
    return np.repeat(offs - starts, lens) + np.arange(int(lens.sum()))


def oracle_file(spec, patterns: List[List[np.ndarray]],
                written: List[List[int]]) -> np.ndarray:
    """Expected file bytes after rank ``r`` wrote pattern
    ``written[r][slot]`` into every slot; bytes in no rank's view stay 0
    (the region is pre-sized with zeros and never written there)."""
    expected = np.zeros(spec.region_bytes, dtype=np.uint8)
    count, memtype = spec.memtype()
    mem_idx = _byte_index(typemap_blocks(memtype, count))
    ext = spec.span()
    for rank in range(spec.nprocs):
        file_idx = _byte_index(typemap_blocks(spec.filetype(rank), 1))
        for slot, p in enumerate(written[rank]):
            expected[file_idx + slot * ext] = patterns[rank][p][mem_idx]
    return expected
