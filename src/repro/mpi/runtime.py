"""The SPMD world, thread harness, and runtime selection.

:func:`run_spmd` launches one thread per rank, runs the worker function
SPMD-style, propagates the first failure (aborting barriers and waking
blocked receivers so no rank deadlocks), and returns the per-rank results.

:class:`Runtime` selects between the two SPMD execution backends:

``sim`` (default)
    ranks as threads in this process — deterministic, fast to start,
    with simulated device/wire time (this module);
``proc``
    ranks as real OS processes exchanging payloads through shared
    memory (:mod:`repro.mpi.proc`) — real parallelism, real ``fcntl``
    locks, for measurement runs and conformance testing.

Selection: ``Runtime(backend="proc")`` explicitly, or the
``REPRO_RUNTIME`` environment variable.  Both backends run the *same*
worker function with the same communicator API; see ``docs/runtime.md``.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, List, Optional

from repro.deadline import recv_timeout
from repro.errors import MPIRuntimeError
from repro.mpi.communicator import Comm, _Barrier, _Group, _Mailbox
from repro.mpi.cost_model import NetworkModel, Traffic

__all__ = ["Runtime", "World", "run_spmd"]

#: Valid backend names (the Runtime facade validates against this).
BACKENDS = ("sim", "proc")


class World(Traffic):
    """Shared state of one SPMD execution: the ranks' mailboxes, the
    world group, the failure flag and the traffic accounts."""

    def __init__(self, size: int, network: NetworkModel | None = None):
        if size < 1:
            raise MPIRuntimeError(f"world size must be >= 1, got {size}")
        super().__init__(size, network)
        # The one blocking-wait deadline, read once per world.
        self.timeout = recv_timeout()
        self.mailboxes = [_Mailbox(self, r) for r in range(size)]
        self.failure: Optional[BaseException] = None
        self._failure_mu = threading.Lock()
        self._barriers: List[_Barrier] = []
        self.group = self.new_group(range(size), cid="w")

    def new_group(self, members, cid: Optional[str] = None) -> _Group:
        """The shared state of a communicator over world ranks
        ``members``; a failure anywhere in the world breaks its
        barrier."""
        group = _Group(members, _Barrier(len(members), self.timeout), cid)
        with self._failure_mu:
            self._barriers.append(group.barrier)
            failed = self.failure is not None
        if failed:
            group.barrier.abort()
        return group

    def fail(self, exc: BaseException) -> None:
        """Record the first failure and unblock everyone."""
        with self._failure_mu:
            if self.failure is None:
                self.failure = exc
            barriers = list(self._barriers)
        for b in barriers:
            b.abort()
        for mb in self.mailboxes:
            with mb.cond:
                mb.cond.notify_all()

    def comm(self, rank: int) -> Comm:
        return Comm(self, self.group, rank, self.mailboxes[rank])


def run_spmd(
    size: int,
    fn: Callable[..., Any],
    *args: Any,
    network: NetworkModel | None = None,
    world_out: Optional[list] = None,
    backend: "str | Runtime | None" = None,
    session=None,
) -> List[Any]:
    """Run ``fn(comm, *args)`` on ``size`` ranks; returns per-rank results.

    The first exception raised by any rank is re-raised in the caller
    (other ranks are unblocked and terminated).  Pass a list as
    ``world_out`` to receive the :class:`World` (for cost inspection).

    ``backend`` routes the run through a non-default execution backend
    (see :class:`Runtime`); ``None`` honours ``REPRO_RUNTIME``.

    ``session`` scopes the world to an :class:`~repro.session.IOSession`
    (default: the caller's current one).  On the sim backend it is
    activated inside every rank thread — rank threads start with an
    empty context, so the caller's active session would otherwise not
    carry over — and only *its* flight recorder is cleared at launch,
    which is what lets several sim worlds run concurrently in one
    process without wiping each other's records.  The proc backend runs
    with it active, so the world's flight record lands in its recorder.
    """
    from repro._ctx import SESSION

    rt = Runtime.resolve(backend)
    sess = session if session is not None else SESSION.get()
    if rt.backend != "sim":
        with sess:
            return rt.run(size, fn, *args, network=network,
                          world_out=world_out)
    world = World(size, network=network)
    if world_out is not None:
        world_out.append(world)
    from repro.obs import flight

    # One world, one flight record: drop breadcrumbs and round markers
    # left behind by previous worlds in this session.
    sess.flight.clear()
    results: List[Any] = [None] * size

    def runner(rank: int) -> None:
        from repro.obs import trace

        SESSION.set(sess)
        try:
            with trace.span("spmd.rank", rank=rank):
                results[rank] = fn(world.comm(rank), *args)
        except MPIRuntimeError as exc:
            # Secondary failures (broken barrier after another rank died)
            # still mark the world, but the primary failure wins.
            world.fail(exc)
        except BaseException as exc:  # noqa: BLE001 - must propagate all
            world.fail(exc)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"rank-{r}")
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if world.failure is not None:
        flight.dump_on_abort(world.failure, backend="sim",
                             world_size=size, recorder=sess.flight)
        raise world.failure
    return results


class Runtime:
    """Facade selecting the SPMD execution backend.

    ``Runtime()`` resolves the backend from ``REPRO_RUNTIME`` (default
    ``sim``); ``Runtime(backend="proc")`` picks explicitly.  ``run``
    has the :func:`run_spmd` contract on every backend.
    """

    def __init__(self, backend: Optional[str] = None, *,
                 timeout: Optional[float] = None) -> None:
        name = backend or os.environ.get("REPRO_RUNTIME", "sim")
        name = name.strip().lower()
        if name not in BACKENDS:
            raise MPIRuntimeError(
                f"unknown runtime backend {name!r} "
                f"(expected one of {', '.join(BACKENDS)})"
            )
        self.backend = name
        self.timeout = timeout

    @classmethod
    def resolve(cls, backend: "str | Runtime | None") -> "Runtime":
        """Coerce a backend name / Runtime / None to a Runtime."""
        if isinstance(backend, cls):
            return backend
        return cls(backend)

    def run(
        self,
        size: int,
        fn: Callable[..., Any],
        *args: Any,
        network: NetworkModel | None = None,
        world_out: Optional[list] = None,
    ) -> List[Any]:
        """Run ``fn(comm, *args)`` on ``size`` ranks of this backend."""
        if self.backend == "proc":
            from repro.mpi.proc import run_spmd_proc

            return run_spmd_proc(
                size, fn, *args, network=network, world_out=world_out,
                timeout=self.timeout,
            )
        return run_spmd(size, fn, *args, network=network,
                        world_out=world_out, backend="sim")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Runtime backend={self.backend!r}>"
