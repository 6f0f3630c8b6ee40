"""SPMD MPI runtime with two execution backends.

Runs *P* ranks SPMD-style with tagged point-to-point messaging, barriers
and the collectives the MPI-IO layer needs (bcast, gather/allgather,
alltoall, allreduce).  A :class:`~repro.mpi.cost_model.NetworkModel`
charges every message with simulated wire time and counts payload bytes,
so the benchmark harness can attribute the communication volume
difference between ol-list exchange (list-based collective I/O) and
data-only exchange (listless I/O with fileview caching).

Two backends share one communicator API (see ``docs/runtime.md``):
``sim`` runs ranks as threads in one address space (deterministic,
default), ``proc`` runs them as real OS processes exchanging payloads
through shared memory (:mod:`repro.mpi.proc`).

Entry point::

    from repro.mpi import Runtime, run_spmd

    def worker(comm):
        ...

    results = run_spmd(nprocs, worker)            # sim (REPRO_RUNTIME)
    results = Runtime("proc").run(nprocs, worker)  # real processes
"""

from repro.mpi.cost_model import NetworkModel, payload_nbytes
from repro.mpi.status import Status
from repro.mpi.reduce_ops import MAX, MIN, SUM, PROD, LAND, LOR
from repro.mpi.communicator import ANY_TAG, Comm, PendingOp
from repro.mpi.runtime import Runtime, World, run_spmd

__all__ = [
    "NetworkModel",
    "payload_nbytes",
    "Status",
    "Comm",
    "PendingOp",
    "Runtime",
    "World",
    "run_spmd",
    "ANY_TAG",
    "MAX",
    "MIN",
    "SUM",
    "PROD",
    "LAND",
    "LOR",
]
