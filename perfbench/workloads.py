"""Workload definitions and the per-rank rig that drives them.

Every workload cycles a fixed number of accesses ("slots") over a file
region that set-up pre-sizes and warms, so the timed phase never grows
the file and never first-touches a page.  Each slot is written with one
of two seed-generated patterns; the pattern alternates per pass over the
region, so a write that silently does nothing is caught by the next
read of that slot.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import datatypes as dt
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.hints import Hints

#: Seed-generated write patterns per rank.  Two suffice: consecutive
#: passes over a slot alternate between them.
NPATTERNS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (README.md says why each exists)."""

    name: str
    nprocs: int
    blocklen: int  # Sblock, bytes
    blockcount: int  # Nblock, blocks per access
    slots: int  # accesses in the cycled region
    batch: int  # accesses per timed batch
    #: Reference rate of the plain yardstick (reference.Plain), user
    #: MB/s of write + read: the host speed end-to-end times are scaled to.
    plain_MBps: float
    collective: bool = False
    backend: str = "sim"  # "sim" (SimFileSystem) or "os" (OsFileSystem)
    mem: str = "nc"  # "nc": memtype with equal-size holes; "c": contiguous
    stride: int = 0  # 0: Fig. 4 view of a 2-process layout; else vector stride
    hints: Dict[str, str] = field(default_factory=dict)

    @property
    def access_bytes(self) -> int:
        """User data bytes one rank moves per access."""
        return self.blocklen * self.blockcount

    @property
    def buf_bytes(self) -> int:
        """Size of one rank's user buffer, memtype holes included."""
        return self.access_bytes * (2 if self.mem == "nc" else 1)

    def filetype(self, rank: int):
        """A freshly built filetype (new objects, so no datatype-level
        cache survives from a previous set-up)."""
        b, n = self.blocklen, self.blockcount
        if self.stride:
            vec = dt.vector(n, b, self.stride, dt.BYTE)
            return dt.struct([1, 1, 1], [0, 0, n * self.stride],
                             [dt.LB, vec, dt.UB])
        # Fig. 4: rank r of a 2-process layout, blocks at stride 2*b.
        vec = dt.vector(n, b, 2 * b, dt.BYTE)
        return dt.struct([1, 1, 1], [0, rank * b, 2 * n * b],
                         [dt.LB, vec, dt.UB])

    def memtype(self):
        """``(count, memtype)`` describing one user buffer."""
        if self.mem == "nc":
            b, n = self.blocklen, self.blockcount
            return 1, dt.vector(n, b, 2 * b, dt.BYTE)
        return self.access_bytes, dt.BYTE

    def data_view(self, buf: np.ndarray) -> np.ndarray:
        """The data bytes of a user buffer (memtype holes excluded)."""
        if self.mem == "nc":
            b, n = self.blocklen, self.blockcount
            return buf.reshape(n, 2 * b)[:, :b]
        return buf

    def span(self) -> int:
        """File bytes one access spans (the filetype extent)."""
        if self.stride:
            return self.blockcount * self.stride
        return 2 * self.blockcount * self.blocklen

    @property
    def region_bytes(self) -> int:
        return self.slots * self.span()


KIB = 1024

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small_indep",
            nprocs=1, blocklen=8, blockcount=8, slots=256, batch=256,
            plain_MBps=40.0,
        ),
        Workload(
            name="fine_indep",
            nprocs=1, blocklen=8, blockcount=64 * KIB, slots=32, batch=8,
            plain_MBps=1600.0,
        ),
        Workload(
            name="coll_interleaved",
            nprocs=2, blocklen=64, blockcount=16 * KIB, slots=8, batch=4,
            plain_MBps=5100.0,
            collective=True, hints={"cb_buffer_size": str(256 * KIB)},
        ),
        Workload(
            name="sparse_os",
            nprocs=1, blocklen=KIB, blockcount=256, slots=2, batch=8,
            plain_MBps=1250.0,
            backend="os", mem="c", stride=64 * KIB,
        ),
    )
}


def make_patterns(spec: Workload, seed: int, rank: int) -> List[np.ndarray]:
    """The seed-generated user buffers rank ``rank`` writes."""
    rng = np.random.default_rng([seed, rank])
    return [rng.integers(0, 256, spec.buf_bytes, dtype=np.uint8)
            for _ in range(NPATTERNS)]


class Tally:
    """Operations attempted and failed (exception or byte mismatch)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_error: Optional[str] = None
        self._mu = threading.Lock()  # rank threads share one tally

    def ok(self, n: int) -> None:
        with self._mu:
            self.attempted += n

    def fail(self, msg: str, attempted: int = 0) -> None:
        with self._mu:
            self.attempted += attempted
            self.failed += 1
            if self.first_error is None:
                self.first_error = msg


class Rig:
    """One rank's open file, buffers and cursors for one set-up.

    Write cursor ``wpos`` and read cursor ``rpos`` count accesses; the
    slot is ``pos % slots`` and a write uses pattern
    ``(pos // slots) % NPATTERNS``, so every pass over the region
    rewrites each slot with the other pattern.
    """

    def __init__(self, spec: Workload, comm, fs, path: str,
                 patterns: List[np.ndarray], start: int,
                 tally: Tally) -> None:
        self.spec = spec
        self.comm = comm
        self.path = path
        self.patterns = patterns
        self.tally = tally
        self.count, self.memtype = spec.memtype()
        self.fh = File.open(comm, fs, path, MODE_CREATE | MODE_RDWR,
                            hints=Hints.from_mapping(spec.hints))
        self.fh.set_view(0, dt.BYTE, spec.filetype(comm.rank))
        self.fh.preallocate(spec.region_bytes)
        if spec.collective:
            self._write, self._read = self.fh.write_at_all, self.fh.read_at_all
        else:
            self._write, self._read = self.fh.write_at, self.fh.read_at
        self.written = [-1] * spec.slots  # pattern index per slot
        self.wpos = start
        self.rpos = start
        self._rbufs: List[np.ndarray] = []

    # ------------------------------------------------------------------
    def warm(self) -> None:
        """The set-up pass: write, then read back, every slot once."""
        n = self.spec.slots
        self.batch(True, n)
        self.batch(False, n)

    def batch(self, write: bool, n: int, tracer=None):
        """Run ``n`` accesses; returns rank-local ``(elapsed, latencies)``.

        Buffers are prepared before and reads verified after the timed
        loop, each side of a barrier, so neither leaks into this rank's
        timing nor into a peer's collective wait.  With ``tracer``, each
        access is a traced root span.
        """
        spec = self.spec
        A = spec.access_bytes
        S = spec.slots
        if write:
            pos = self.wpos
            self.wpos += n
            bufs = [self.patterns[((pos + i) // S) % NPATTERNS]
                    for i in range(n)]
            call = self._write
        else:
            pos = self.rpos
            self.rpos += n
            while len(self._rbufs) < n:
                self._rbufs.append(np.empty(spec.buf_bytes, dtype=np.uint8))
            bufs = self._rbufs[:n]
            for b in bufs:
                b.fill(0)
            call = self._read
        count, memtype = self.count, self.memtype
        lat = [0.0] * n
        self.comm.barrier()
        now = time.perf_counter
        t_start = now()
        i = 0
        try:
            if tracer is None:
                for i in range(n):
                    t0 = now()
                    call(((pos + i) % S) * A, bufs[i], count, memtype)
                    lat[i] = now() - t0
            else:
                rank, d = self.comm.rank, "write" if write else "read"
                for i in range(n):
                    with tracer.access(rank, d):
                        call(((pos + i) % S) * A, bufs[i], count, memtype)
        except Exception as exc:  # counted, then the run aborts
            self.tally.fail(f"{'write' if write else 'read'} slot "
                            f"{(pos + i) % S}: {exc!r}", attempted=i + 1)
            raise
        elapsed = now() - t_start
        self.tally.ok(n)
        self.comm.barrier()
        for i in range(n):
            slot = (pos + i) % S
            if write:
                self.written[slot] = ((pos + i) // S) % NPATTERNS
                continue
            want = self.patterns[self.written[slot]]
            if not np.array_equal(spec.data_view(bufs[i]),
                                  spec.data_view(want)):
                self.tally.fail(f"rank {self.comm.rank} read slot {slot}: "
                                f"bytes differ from pattern "
                                f"{self.written[slot]}")
        return elapsed, lat

    def close(self) -> None:
        self.fh.close()


def file_contents(fs, path: str) -> np.ndarray:
    """The whole file as bytes, read outside the program's I/O stack for
    the OS backend (a plain ``open``) and via the namespace object for
    the in-memory one."""
    f = fs.lookup(path)
    ospath = getattr(f, "path", None)
    if ospath is not None and os.path.isfile(ospath):
        with open(ospath, "rb") as fd:
            return np.frombuffer(fd.read(), dtype=np.uint8)
    return f.contents()
