"""The NAS BTIO application kernel (paper §4.2, Tables 1–3).

BT solves a block-tridiagonal system on a cubic grid of ``N³`` points with
5 solution components per point, distributed over ``P = q²`` processes by
*diagonal multi-partitioning*: the grid is cut into ``q³`` cells of
``(N/q)³`` points and each process owns ``q`` cells, one per k-slab,
shifted diagonally so every slab is fully partitioned.

BTIO (the "full" MPI-IO version) appends the complete solution to a shared
file after each time step with a **single collective call**:

* the memtype of each cell is a subarray selecting the interior of the
  process' ghost-padded cell array,
* the filetype is the struct of the process' cell subarrays within the
  global grid,
* one ``MPI_File_write_at_all`` per step moves everything.

The I/O pattern characterization matches the paper exactly (Table 2):
``Nblock = q · (N/q)²`` contiguous blocks of ``Sblock = (N/q) · 40`` bytes
per process and step, ``Dstep = P · Nblock · Sblock = 5·8·N³`` bytes.

The BT *solver* is replaced by a calibrated synthetic compute phase (the
paper's own analysis treats ``t_no-io`` as an external baseline — only
``Δt_io`` between the two engines matters for Table 3); the decomposition,
datatypes and I/O are implemented for real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import datatypes as dt
from repro.bench.timing import PhaseClock, PhaseTime
from repro.datatypes.base import Datatype
from repro.fs.filesystem import SimFileSystem
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.hints import Hints
from repro.mpi.runtime import Runtime
from repro.obs.phases import RoundLog

__all__ = [
    "BTIO_CLASSES",
    "BTIOConfig",
    "BTIOResult",
    "btio_characterize",
    "cell_coords",
    "build_cell_filetype",
    "build_cell_memtype",
    "run_btio",
]

#: Problem classes: grid edge length N (NPB 2.4 I/O version).
BTIO_CLASSES: Dict[str, int] = {
    "S": 12,
    "W": 24,
    "A": 64,
    "B": 102,
    "C": 162,
    "D": 408,
}

#: Solution components per grid point.
NCOMP = 5
#: Bytes per grid point (5 doubles).
POINT_BYTES = NCOMP * 8
#: Ghost-cell padding per side of a cell array in memory (BT uses a
#: 2-deep halo).
GHOST = 2


def _q_of(nprocs: int) -> int:
    q = int(round(nprocs ** 0.5))
    if q * q != nprocs:
        raise ValueError(
            f"BTIO requires a square number of processes, got {nprocs}"
        )
    return q


def cell_coords(rank: int, q: int) -> List[Tuple[int, int, int]]:
    """Cell coordinates (kcell, jcell, icell) owned by ``rank``.

    Diagonal multi-partitioning: cell ``c`` of process ``(i, j) = (rank %
    q, rank // q)`` sits at ``((i + c) % q, (j + c) % q)`` of k-slab
    ``c`` — each slab is partitioned by exactly the P processes.
    """
    i = rank % q
    j = rank // q
    return [((c), (j + c) % q, (i + c) % q) for c in range(q)]


def cell_splits(n: int, q: int) -> Tuple[List[int], List[int]]:
    """NPB-style uneven split of ``n`` grid points over ``q`` cells.

    Returns ``(sizes, starts)``; the first ``n % q`` cells are one point
    larger, so classes like B (102) run on P = 16 (q = 4).
    """
    base, rem = divmod(n, q)
    sizes = [base + (1 if c < rem else 0) for c in range(q)]
    starts = [sum(sizes[:c]) for c in range(q)]
    return sizes, starts


def build_cell_filetype(n: int, coords: Tuple[int, int, int],
                        q: int) -> Datatype:
    """Subarray filetype of one cell within the global ``n³`` grid.

    The file stores the solution as ``u[k][j][i][5]`` doubles (the
    linearization of the Fortran ``u(5, i, j, k)`` array), so the grid is
    a C-ordered ``[n, n, n]`` array of 5-double points.
    """
    point = dt.contiguous(NCOMP, dt.DOUBLE)
    sizes, starts = cell_splits(n, q)
    kc, jc, ic = coords
    return dt.subarray(
        sizes=[n, n, n],
        subsizes=[sizes[kc], sizes[jc], sizes[ic]],
        starts=[starts[kc], starts[jc], starts[ic]],
        base=point,
    )


def max_cell_size(n: int, q: int) -> int:
    """Largest cell edge length (memory arrays are uniformly padded to
    this, as NPB allocates them)."""
    return n // q + (1 if n % q else 0)


def build_cell_memtype(n: int, coords: Tuple[int, int, int],
                       q: int) -> Datatype:
    """Subarray memtype selecting this cell's interior from a uniformly
    ghost-padded cell array of edge ``max_cell_size + 2·GHOST``."""
    point = dt.contiguous(NCOMP, dt.DOUBLE)
    sizes, _ = cell_splits(n, q)
    kc, jc, ic = coords
    m = max_cell_size(n, q) + 2 * GHOST
    return dt.subarray(
        sizes=[m, m, m],
        subsizes=[sizes[kc], sizes[jc], sizes[ic]],
        starts=[GHOST, GHOST, GHOST],
        base=point,
    )


def build_process_filetype(n: int, nprocs: int, rank: int) -> Datatype:
    """Struct of the rank's cell subarrays — the BTIO fileview."""
    q = _q_of(nprocs)
    cells = [build_cell_filetype(n, c, q) for c in cell_coords(rank, q)]
    if len(cells) == 1:
        return cells[0]
    return dt.struct([1] * len(cells), [0] * len(cells), cells)


def build_process_memtype(n: int, nprocs: int, rank: int) -> Datatype:
    """Struct of the rank's cell interiors over one packed buffer holding
    the ``q`` ghost-padded cell arrays back to back."""
    q = _q_of(nprocs)
    coords = cell_coords(rank, q)
    cells = [build_cell_memtype(n, c, q) for c in coords]
    cell_bytes = (max_cell_size(n, q) + 2 * GHOST) ** 3 * POINT_BYTES
    if q == 1:
        return cells[0]
    t = dt.struct(
        [1] * q, [c * cell_bytes for c in range(q)], cells
    )
    return dt.resized(t, 0, q * cell_bytes)


# ----------------------------------------------------------------------
# Characterization (Tables 1 and 2)
# ----------------------------------------------------------------------
def btio_characterize(cls: str, nprocs: int, nsteps: int = 40) -> Dict:
    """Analytic I/O characterization of a BTIO run (paper Tables 1–2).

    ``nblock`` and ``sblock`` are the nominal per-process values the paper
    tabulates (``N²/q`` blocks of ``N/q`` points — exact when ``q | N``,
    rounded otherwise since NPB's uneven split makes them vary by ±1
    point across cells); ``dstep``/``drun`` are exact (``40·N³`` bytes
    per step).
    """
    n = BTIO_CLASSES[cls]
    q = _q_of(nprocs)
    nblock = n * n // q  # truncated, as the paper tabulates
    sblock = n * POINT_BYTES // q
    dstep = n ** 3 * POINT_BYTES
    return {
        "class": cls,
        "grid": n,
        "nprocs": nprocs,
        "ncells": q,
        "cell_size": n / q,
        "nblock": nblock,
        "sblock": sblock,
        "dstep": dstep,
        "drun": nsteps * dstep,
        "nsteps": nsteps,
    }


def btio_exact_pattern(cls: str, nprocs: int, rank: int) -> Dict:
    """Exact per-rank block statistics from the real decomposition."""
    n = BTIO_CLASSES[cls]
    q = _q_of(nprocs)
    sizes, _ = cell_splits(n, q)
    nblock = 0
    data_bytes = 0
    for kc, jc, ic in cell_coords(rank, q):
        nblock += sizes[kc] * sizes[jc]
        data_bytes += sizes[kc] * sizes[jc] * sizes[ic] * POINT_BYTES
    return {
        "nblock": nblock,
        "data_bytes": data_bytes,
        "mean_sblock": data_bytes / nblock,
    }


# ----------------------------------------------------------------------
# Timed runs (Table 3)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BTIOConfig:
    """One BTIO run configuration.

    ``nsteps`` defaults far below the paper's 40 so that laptop-scale
    runs stay fast; ``compute_sweeps`` controls the synthetic solver
    stand-in (vectorized stencil sweeps per step, 0 disables).
    """

    cls: str = "S"
    nprocs: int = 4
    nsteps: int = 5
    compute_sweeps: int = 2
    hints: Optional[Hints] = None
    verify: bool = False

    @property
    def grid(self) -> int:
        return BTIO_CLASSES[self.cls]


@dataclass
class BTIOResult:
    """Timings of one BTIO run."""

    config: BTIOConfig
    engine: str
    io_time: PhaseTime = None  # type: ignore[assignment]
    compute_time: PhaseTime = None  # type: ignore[assignment]
    comm_bytes: int = 0
    fs_stats: Dict[str, int] = field(default_factory=dict)
    #: Per-phase wall time (``phase_<bucket>`` keys, seconds) summed over
    #: ranks — the Table-3-style overhead decomposition of the run.
    phases: Dict[str, float] = field(default_factory=dict)
    #: The same snapshots, one per rank (index == rank).
    phases_by_rank: List[Dict[str, float]] = field(default_factory=list)
    #: Per-round exchange/file_io decomposition of the run's collective
    #: accesses, merged across ranks by round index (seconds summed,
    #: see :meth:`repro.obs.phases.RoundLog.merge_by_index`).
    rounds: List[Dict[str, float]] = field(default_factory=list)
    #: The unmerged per-rank round logs (index == rank).
    rounds_by_rank: List[List[Dict[str, float]]] = field(
        default_factory=list
    )

    @property
    def drun(self) -> int:
        c = btio_characterize(
            self.config.cls, self.config.nprocs, self.config.nsteps
        )
        return c["drun"]

    @property
    def io_bandwidth(self) -> float:
        """Effective I/O bandwidth over the run (bytes/s)."""
        return self.io_time.bandwidth(self.drun)


def _compute_standin(cells: List[np.ndarray], sweeps: int) -> None:
    """Calibrated stand-in for one BT time step: vectorized Jacobi-style
    relaxation sweeps over each cell's interior (k-direction halo)."""
    for _ in range(sweeps):
        for u in cells:
            interior = u[GHOST:-GHOST, GHOST:-GHOST, GHOST:-GHOST, :]
            lo = u[GHOST - 1 : -GHOST - 1, GHOST:-GHOST, GHOST:-GHOST, :]
            hi = u[GHOST + 1 : (-GHOST + 1) or None,
                   GHOST:-GHOST, GHOST:-GHOST, :]
            interior *= 0.9
            interior += 0.05 * (lo + hi)
            interior += 1e-9


def run_btio(
    engine: str,
    config: BTIOConfig,
    fs: Optional[SimFileSystem] = None,
    runtime: "str | Runtime | None" = None,
) -> BTIOResult:
    """Run the BTIO kernel with the given engine.

    Per step: the compute stand-in, then one collective ``write_at_all``
    of the full solution through the subarray fileview.  I/O time and
    compute time are accumulated separately (the paper reports
    ``Δt_io = t_btio − t_no-io``; here we time the I/O directly).

    ``runtime`` selects the execution backend (``"sim"``/``"proc"`` or a
    ready :class:`~repro.mpi.runtime.Runtime`; ``None`` honours
    ``REPRO_RUNTIME``).  The proc backend defaults ``fs`` to an
    :class:`~repro.fs.filesystem.OsFileSystem` over a temporary
    directory — each rank process accesses the output file through its
    own descriptor, so the measured wall time includes real device and
    lock contention and the simulated components are zero.

    Tables 1–3 measure the paper's two-phase collective, so the run
    goes through ``unmapped(fs)`` (:mod:`repro.fs.unmapped`): on a
    ``SimFile``/``OsFile`` a collective is otherwise one barrier and one
    mapped copy per rank.
    """
    rt = Runtime.resolve(runtime)
    cleanup_dir = None
    if fs is None:
        if rt.backend == "sim":
            fs = SimFileSystem()
        else:
            import tempfile

            from repro.fs.filesystem import OsFileSystem

            cleanup_dir = tempfile.mkdtemp(prefix="btio-")
            fs = OsFileSystem(cleanup_dir)
    try:
        return _run_btio(engine, config, unmapped(fs), rt)
    finally:
        if cleanup_dir is not None:
            import shutil

            fs.close()
            shutil.rmtree(cleanup_dir, ignore_errors=True)


def _run_btio(engine: str, config: BTIOConfig, fs, rt: "Runtime",
              ) -> BTIOResult:
    cfg = config
    n = cfg.grid
    P = cfg.nprocs
    q = _q_of(P)
    worlds: list = []
    result = BTIOResult(config=cfg, engine=engine)
    step_doubles = n * n * n * NCOMP
    sizes, _starts = cell_splits(n, q)
    m = max_cell_size(n, q) + 2 * GHOST

    def cell_interior(u: np.ndarray, coords: Tuple[int, int, int]):
        kc, jc, ic = coords
        return u[
            GHOST : GHOST + sizes[kc],
            GHOST : GHOST + sizes[jc],
            GHOST : GHOST + sizes[ic],
            :,
        ]

    def worker(comm) -> Dict:
        rank = comm.rank
        coords = cell_coords(rank, q)
        ftype = build_process_filetype(n, P, rank)
        mtype = build_process_memtype(n, P, rank)
        cells = [
            np.zeros((m, m, m, NCOMP), dtype=np.float64) for _ in range(q)
        ]
        for c, u in enumerate(cells):
            cell_interior(u, coords[c])[...] = rank * 1000.0 + c
        membuf = (
            np.concatenate([u.reshape(-1) for u in cells])
            if q > 1
            else cells[0].reshape(-1)
        )
        cell_views = [
            membuf[i * m ** 3 * NCOMP : (i + 1) * m ** 3 * NCOMP].reshape(
                m, m, m, NCOMP
            )
            for i in range(q)
        ]

        fh = File.open(
            comm, fs, "/btio.out", MODE_CREATE | MODE_RDWR,
            engine=engine, hints=cfg.hints,
        )
        fh.set_view(0, dt.DOUBLE, ftype)

        # Rank 0 times the barrier-bracketed phases.  ``worlds`` is only
        # populated inside the sim backend (the proc world report is
        # parent-side, assembled after the ranks exit); the clock's
        # simulated components are zero without it, as they should be —
        # on the proc backend the real device and wire are inside wall.
        io_clock = compute_clock = None
        io_acc = [0.0, 0.0, 0.0]
        comp_acc = [0.0, 0.0, 0.0]
        comm.barrier()
        if rank == 0:
            world = worlds[0] if worlds else None
            io_clock = PhaseClock(fs, world)
            compute_clock = PhaseClock(fs, world)
        comm.barrier()

        for step in range(cfg.nsteps):
            if rank == 0:
                compute_clock.start()
            _compute_standin(cell_views, cfg.compute_sweeps)
            comm.barrier()
            if rank == 0:
                t = compute_clock.stop()
                comp_acc[0] += t.wall
                comp_acc[1] += t.fs_sim
                comp_acc[2] += t.net_sim
                io_clock.start()
            comm.barrier()
            fh.write_at_all(step * step_doubles, membuf, 1, mtype)
            comm.barrier()
            if rank == 0:
                t = io_clock.stop()
                io_acc[0] += t.wall
                io_acc[1] += t.fs_sim
                io_acc[2] += t.net_sim
            comm.barrier()

        if cfg.verify:
            out = np.zeros_like(membuf)
            fh.read_at_all(
                (cfg.nsteps - 1) * step_doubles, out, 1, mtype
            )
            ok = True
            for c in range(q):
                v = out[c * m ** 3 * NCOMP : (c + 1) * m ** 3 * NCOMP].reshape(
                    m, m, m, NCOMP
                )
                got = cell_interior(v, coords[c])
                want = cell_interior(cell_views[c], coords[c])
                ok = ok and np.allclose(got, want)
            assert ok, f"rank {rank}: BTIO verification failed"
        ret = {
            "phases": fh.engine.stats.phases.snapshot(),
            "rounds": fh.engine.stats.rounds.snapshot(),
            "fs_stats": fs.lookup("/btio.out").stats.snapshot(),
            "io_acc": io_acc if rank == 0 else None,
            "comp_acc": comp_acc if rank == 0 else None,
        }
        fh.close()
        return ret

    rows = rt.run(P, worker, world_out=worlds)
    result.io_time = PhaseTime(*rows[0]["io_acc"])
    result.compute_time = PhaseTime(*rows[0]["comp_acc"])
    result.comm_bytes = worlds[0].total_bytes_sent()
    if rt.backend == "sim":
        # One shared file object: its stats already aggregate every rank.
        result.fs_stats = fs.lookup("/btio.out").stats.snapshot()
    else:
        # Per-process descriptors count independently: sum the rows.
        merged: Dict[str, float] = {}
        for row in rows:
            for k, v in row["fs_stats"].items():
                merged[k] = merged.get(k, 0) + v
        result.fs_stats = merged
    result.phases_by_rank = [row["phases"] for row in rows]
    result.phases = {
        k: sum(row[k] for row in result.phases_by_rank)
        for k in (result.phases_by_rank[0] if result.phases_by_rank else {})
    }
    result.rounds_by_rank = [row.get("rounds", []) for row in rows]
    result.rounds = RoundLog.merge_by_index(result.rounds_by_rank)
    return result
