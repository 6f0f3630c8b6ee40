"""The ``noncontig`` synthetic benchmark (paper §4.1, Figs. 5–8).

The fileview of process *p* out of *P* is the Fig. 4 datatype::

    MPI_Struct { MPI_LB @ 0,
                 MPI_Vector(blockcount, blocklen, stride = P·blocklen),
                 MPI_UB @ extent }          with disp = p · blocklen

so the P views interleave to tile the file completely without overlap —
"the file accesses of all processes are not overlapping".  The benchmark
writes and subsequently reads back the data through one of the Fig. 1
layout combinations:

``c-nc``
    contiguous user buffer, non-contiguous fileview;
``nc-c``
    non-contiguous user buffer (the same vector geometry), each process
    writing a contiguous region of the file;
``nc-nc``
    non-contiguous on both sides.

Bandwidth per process is reported over the combined measured + simulated
elapsed time (see :mod:`repro.bench.timing`).

The collective configurations (Figs. 6 and 8) measure two-phase I/O, so
they run on :func:`~repro.fs.unmapped.unmapped` file systems: on a
``SimFile`` a collective access is otherwise one barrier and one mapped
copy, with no exchange to compare.  Independent configurations access
the file system as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro import datatypes as dt
from repro.bench.timing import PhaseClock, PhaseTime
from repro.datatypes.base import Datatype
from repro.fs.filesystem import SimFileSystem
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.hints import Hints
from repro.mpi.runtime import run_spmd

__all__ = [
    "NoncontigConfig",
    "NoncontigResult",
    "build_noncontig_filetype",
    "build_noncontig_memtype",
    "run_noncontig",
]

PATTERNS = ("c-nc", "nc-c", "nc-nc")


def build_noncontig_filetype(
    nprocs: int, rank: int, blocklen: int, blockcount: int
) -> Datatype:
    """The Fig. 4 filetype of process ``rank``: ``blockcount`` blocks of
    ``blocklen`` bytes, stride ``nprocs * blocklen``, displaced by
    ``rank * blocklen`` inside an extent that tiles the whole pattern."""
    vec = dt.vector(blockcount, blocklen, nprocs * blocklen, dt.BYTE)
    extent = blockcount * nprocs * blocklen
    return dt.struct(
        [1, 1, 1],
        [0, rank * blocklen, extent],
        [dt.LB, vec, dt.UB],
    )


def build_noncontig_memtype(blocklen: int, blockcount: int) -> Datatype:
    """Non-contiguous memtype with the same granularity: ``blockcount``
    blocks of ``blocklen`` bytes separated by equal-size gaps."""
    return dt.vector(blockcount, blocklen, 2 * blocklen, dt.BYTE)


@dataclass(frozen=True)
class NoncontigConfig:
    """One benchmark configuration (one point of a paper figure)."""

    nprocs: int
    blocklen: int  # Sblock in bytes
    blockcount: int  # Nblock
    pattern: str = "c-nc"
    collective: bool = False
    nreps: int = 4  # accesses per phase (file grows accordingly)
    hints: Optional[Hints] = None
    verify: bool = False  # re-check the read data against the written data

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"pattern must be one of {PATTERNS}, got {self.pattern!r}"
            )

    @property
    def bytes_per_access(self) -> int:
        """Data bytes per process per access."""
        return self.blocklen * self.blockcount

    @property
    def bytes_per_proc(self) -> int:
        """Data bytes per process per phase."""
        return self.bytes_per_access * self.nreps

    @property
    def file_bytes(self) -> int:
        """Total file size after the write phase."""
        return self.bytes_per_proc * self.nprocs


@dataclass
class NoncontigResult:
    """Timings and bandwidths of one run."""

    config: NoncontigConfig
    engine: str
    write_time: PhaseTime = None  # type: ignore[assignment]
    read_time: PhaseTime = None  # type: ignore[assignment]
    comm_bytes: int = 0
    fs_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def write_bpp(self) -> float:
        """Write bandwidth per process (bytes/s)."""
        return self.write_time.bandwidth(self.config.bytes_per_proc)

    @property
    def read_bpp(self) -> float:
        """Read bandwidth per process (bytes/s)."""
        return self.read_time.bandwidth(self.config.bytes_per_proc)


def run_noncontig(
    engine: str,
    config: NoncontigConfig,
    fs: Optional[SimFileSystem] = None,
) -> NoncontigResult:
    """Run the benchmark with the given engine; returns timings.

    Write phase then read phase, each barrier-bracketed; file view and
    handles are established outside the timed regions (as the benchmark
    intends — ``set_view`` cost is a separate, one-time quantity the
    ablation bench measures).  A collective ``config`` runs on
    ``unmapped(fs)``, the two-phase path.
    """
    fs = fs or SimFileSystem()
    cfg = config
    if cfg.collective:
        fs = unmapped(fs)
    P = cfg.nprocs
    worlds: list = []
    clock_box: dict = {}
    result = NoncontigResult(config=cfg, engine=engine)

    noncontig_file = cfg.pattern in ("c-nc", "nc-nc")
    noncontig_mem = cfg.pattern in ("nc-c", "nc-nc")
    A = cfg.bytes_per_access

    def worker(comm) -> None:
        rank = comm.rank
        fh = File.open(
            comm, fs, "/noncontig", MODE_CREATE | MODE_RDWR,
            engine=engine, hints=cfg.hints,
        )
        if noncontig_file:
            ft = build_noncontig_filetype(P, rank, cfg.blocklen,
                                          cfg.blockcount)
            fh.set_view(0, dt.BYTE, ft)
        else:
            # nc-c / c-c: each process owns a contiguous file region.
            fh.set_view(rank * cfg.bytes_per_proc, dt.BYTE, dt.BYTE)

        rng = np.random.default_rng(7 + rank)
        if noncontig_mem:
            mt = build_noncontig_memtype(cfg.blocklen, cfg.blockcount)
            wbuf = rng.integers(0, 256, size=2 * A, dtype=np.uint8)
            rbuf = np.zeros(2 * A, dtype=np.uint8)
            count, memtype = 1, mt
        else:
            wbuf = rng.integers(0, 256, size=A, dtype=np.uint8)
            rbuf = np.zeros(A, dtype=np.uint8)
            count, memtype = A, dt.BYTE

        write = fh.write_at_all if cfg.collective else fh.write_at
        read = fh.read_at_all if cfg.collective else fh.read_at

        # ---------------- write phase ----------------
        comm.barrier()
        if rank == 0:
            clk = PhaseClock(fs, worlds[0])
            clock_box["clk"] = clk
            clk.start()
        comm.barrier()
        for rep in range(cfg.nreps):
            write(rep * A, wbuf, count, memtype)
        comm.barrier()
        if rank == 0:
            result.write_time = clock_box["clk"].stop()
            clock_box["clk"].start()
        comm.barrier()
        # ---------------- read phase ----------------
        for rep in range(cfg.nreps):
            read(rep * A, rbuf, count, memtype)
        comm.barrier()
        if rank == 0:
            result.read_time = clock_box["clk"].stop()
        if cfg.verify:
            if noncontig_mem:
                mask = np.zeros(2 * A, dtype=bool)
                for b in range(cfg.blockcount):
                    mask[2 * b * cfg.blocklen :
                         2 * b * cfg.blocklen + cfg.blocklen] = True
                assert (rbuf[mask] == wbuf[mask]).all()
            else:
                assert (rbuf == wbuf).all()
        fh.close()

    run_spmd(P, worker, world_out=worlds)
    result.comm_bytes = worlds[0].total_bytes_sent()
    result.fs_stats = fs.lookup("/noncontig").stats.snapshot()
    return result
