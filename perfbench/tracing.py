"""Timing shims installed around each layer's public entry points.

The program is not modified: :class:`Tracer` replaces the listed
attributes with wrappers for the duration of a traced batch and puts the
originals back afterwards, so untraced batches run pristine code.  A
wrapper records a span only on a thread that opened a traced access
(:meth:`Tracer.access`); elsewhere it just calls through.

Self time is a span's duration minus the time its child spans cover.
Spans are kept in memory (bounded) and written out by :meth:`dump`.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

#: Spans kept for :meth:`Tracer.dump`; later ones are only aggregated.
MAX_SPANS = 200_000


def _targets():
    """``(layer, owner, attribute)`` of every shimmed entry point."""
    import repro.io.engines.listless as listless
    from repro.fs.posix import OsFile
    from repro.fs.simfile import SimFile
    from repro.mpi.communicator import Comm, PendingOp
    from repro.plan.dataplane import DataPlane
    from repro.plan.executor import PlanExecutor
    from repro.plan.planner import Planner

    # ``repro.core`` re-exports the function under the submodule's name.
    ffp = sys.modules["repro.core.ff_pack"]
    out = [
        ("plan", Planner, "plan_independent"),
        ("plan", Planner, "plan_independent_bound"),
        ("plan", Planner, "plan_collective"),
        ("exec", PlanExecutor, "run"),
        ("core", ffp, "ff_pack"),
        ("core", ffp, "ff_unpack"),
        # The listless engine binds the kernels by name at import.
        ("core", listless, "ff_pack"),
        ("core", listless, "ff_unpack"),
        ("core", DataPlane, "gather"),
        ("core", DataPlane, "scatter"),
    ]
    for cls in (SimFile, OsFile):
        for name in ("pread_into", "pwrite", "lock_range", "unlock_range"):
            out.append(("fs", cls, name))
    for name in ("send", "recv", "recv_any", "sendrecv", "isend", "irecv",
                 "barrier", "bcast", "gather", "allgather", "alltoall",
                 "allreduce", "reduce", "scatter"):
        out.append(("mpi", Comm, name))
    out.append(("mpi", PendingOp, "wait"))
    return out


class Tracer:
    """Span recorder with per-thread stacks and per-layer self time."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._mu = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []
        #: (layer, direction) -> summed self seconds
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.spans: List[tuple] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        for layer, owner, name in _targets():
            raw = owner.__dict__[name]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            shim = self._wrap(layer, name, fn)
            self._saved.append((owner, name, raw))
            setattr(owner, name, staticmethod(shim) if static else shim)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def _wrap(self, layer: str, name: str, fn):
        tls = self._tls
        rec = self._record
        now = time.perf_counter

        def shim(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                child = stack.pop()
                dur = t1 - t0
                stack[-1] += dur
                rec(layer, name, t0, t1, dur - child)

        shim.__wrapped__ = fn
        return shim

    def _record(self, layer, name, t0, t1, self_s) -> None:
        tls = self._tls
        with self._mu:
            self.self_s[(layer, tls.direction)] += self_s
            if len(self.spans) < MAX_SPANS:
                self.spans.append((layer, name, tls.rank, tls.direction,
                                   t0, t1, self_s))

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def access(self, rank: int, direction: str):
        """Record spans on this thread while open; the access itself is
        the root ``io`` span."""
        tls = self._tls
        tls.rank = rank
        tls.direction = direction
        tls.stack = [0.0]
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            child = tls.stack[0]
            tls.stack = None
            self._record("io", "access", t0, t1, t1 - t0 - child)

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines (times in seconds)."""
        with open(path, "w") as f:
            for layer, name, rank, d, t0, t1, s in self.spans:
                f.write(json.dumps({"layer": layer, "fn": name,
                                    "rank": rank, "dir": d, "t0": t0,
                                    "t1": t1, "self": s}) + "\n")
