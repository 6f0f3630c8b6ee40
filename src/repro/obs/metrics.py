"""Unified metrics: one labeled surface over every stats struct.

The counters quantifying the paper's overheads live in four unrelated
places — :class:`~repro.io.engines.base.EngineStats` (per engine
instance), :class:`~repro.plan.stats.PlanStats` (nested inside it),
:class:`~repro.fs.stats.FileStats` (per simulated file), and the
session-wide block-program / kernel-path counters of
:mod:`repro.core.blockprog` and :mod:`repro.core.gather`.  Each
:class:`~repro.session.IOSession` owns one :class:`MetricsRegistry`,
which absorbs them all as *labeled* metrics:

* ``engines`` — one entry per registered engine, labeled
  ``(path, engine, rank)``, carrying the engine's counter snapshot plus
  its ``phase_*`` buckets;
* ``files`` — one entry per simulated file, labeled by path, carrying
  its :class:`FileStats` snapshot;
* ``global`` — the session's block-program and kernel-path counters,
  reported **once** (they used to be merged into every per-engine
  snapshot, so two open files double-reported and per-engine reset
  could not clear them — that scoping bug is fixed by homing them here).

Registration is by weak reference: an engine closed with its file, or a
simulated file dropped with its filesystem, silently leaves the registry
— no unregister calls threaded through close paths, no leak when a test
opens hundreds of files.

``snapshot()`` output is deterministic (entries sorted by label, counter
keys sorted) so snapshots diff cleanly in tests and CI artifacts, and
``metric_schema()`` reduces a snapshot to its key structure for the
golden-schema drift check (``benchmarks/check_metrics_schema.py``).
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Tuple

from repro._ctx import SESSION

__all__ = [
    "MetricsRegistry",
    "snapshot",
    "reset",
    "metric_schema",
]


class MetricsRegistry:
    """Weak registry of stats producers with one snapshot/reset surface.

    One instance per :class:`~repro.session.IOSession`.  It reports
    and resets *its session's* block-program and kernel-path counters
    (``prog_stats``, ``kernel_paths``) under the ``global`` key — the
    key name is kept for snapshot-schema compatibility, but it means
    "session-wide", so two concurrent tenants' snapshots never absorb
    each other's counts.
    """

    def __init__(self, prog_stats, kernel_paths) -> None:
        self._mu = threading.Lock()
        self._prog_stats = prog_stats
        self._kernel_paths = kernel_paths
        # label -> weakref to the stats-bearing object.  Engine labels are
        # (path, engine_name, rank); file labels are (path,).
        self._engines: Dict[Tuple[str, str, int], weakref.ref] = {}
        self._files: Dict[str, weakref.ref] = {}
        # tenant label -> weakref to a ServiceStats (repro.server).
        self._services: Dict[str, weakref.ref] = {}

    # ------------------------------------------------------------------
    # Registration (weak; dead entries pruned on snapshot)
    # ------------------------------------------------------------------
    def register_engine(self, engine) -> None:
        """Register an engine instance under (path, engine, rank)."""
        fh = engine.fh
        label = (str(fh.shared.path), engine.name, int(fh.comm.rank))
        with self._mu:
            self._engines[label] = weakref.ref(engine)

    def register_file(self, path: str, stats) -> None:
        """Register a file's :class:`FileStats` under its path."""
        with self._mu:
            self._files[str(path)] = weakref.ref(stats)

    def register_service(self, tenant: str, stats) -> None:
        """Register a tenant's :class:`~repro.server.admission.
        ServiceStats` under its tenant label."""
        with self._mu:
            self._services[str(tenant)] = weakref.ref(stats)

    def _live(self):
        """(engine, file, service entries) with dead weakrefs pruned."""
        with self._mu:
            engines, dead = [], []
            for label, ref in self._engines.items():
                obj = ref()
                if obj is None:
                    dead.append(label)
                else:
                    engines.append((label, obj))
            for label in dead:
                del self._engines[label]
            files, dead = [], []
            for path, ref in self._files.items():
                obj = ref()
                if obj is None:
                    dead.append(path)
                else:
                    files.append((path, obj))
            for path in dead:
                del self._files[path]
            services, dead = [], []
            for tenant, ref in self._services.items():
                obj = ref()
                if obj is None:
                    dead.append(tenant)
                else:
                    services.append((tenant, obj))
            for tenant in dead:
                del self._services[tenant]
        return engines, files, services

    # ------------------------------------------------------------------
    # The unified surface
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every live metric, deterministically ordered.

        ``{"engines": [...], "files": [...], "service": [...],
        "global": {...}}`` where each engine entry is ``{"path",
        "engine", "rank", "counters", "phases"}``, each file entry
        ``{"path", "counters"}``, and each service entry ``{"tenant",
        "counters"}`` (one per registered tenant).
        """
        engines, files, services = self._live()
        eng_out: List[dict] = []
        for (path, name, rank), eng in sorted(engines, key=lambda e: e[0]):
            eng_out.append({
                "path": path,
                "engine": name,
                "rank": rank,
                "counters": dict(sorted(eng.stats.snapshot().items())),
                "phases": eng.stats.phases.snapshot(),
            })
        file_out: List[dict] = []
        for path, st in sorted(files, key=lambda f: f[0]):
            file_out.append({
                "path": path,
                "counters": dict(sorted(st.snapshot().items())),
            })
        svc_out: List[dict] = []
        for tenant, st in sorted(services, key=lambda s: s[0]):
            svc_out.append({
                "tenant": tenant,
                "counters": dict(sorted(st.snapshot().items())),
            })
        counters = dict(self._prog_stats.snapshot())
        counters.update(self._kernel_paths.snapshot())
        return {
            "engines": eng_out,
            "files": file_out,
            "service": svc_out,
            "global": dict(sorted(counters.items())),
        }

    def reset(self) -> None:
        """Zero every live registered stats object *and* the session's
        block-program/kernel-path counters (the reset that the old
        per-engine merge never did)."""
        engines, files, services = self._live()
        for _label, eng in engines:
            st = eng.stats
            for f in (
                "list_tuples_built", "list_tuples_sent",
                "list_tuples_merged", "list_scans", "ff_navigations",
                "ff_kernel_calls", "ff_view_bytes_exchanged",
                "coll_rounds", "coll_domain_skew",
            ):
                setattr(st, f, 0)
            st.plan.reset()
            st.phases.reset()
            st.rounds.reset()
        for _path, st in files:
            st.reset()
        for _tenant, st in services:
            st.reset()
        self._prog_stats.reset()
        self._kernel_paths.reset()

    def clear(self) -> None:
        """Forget all registrations (session counters untouched)."""
        with self._mu:
            self._engines.clear()
            self._files.clear()
            self._services.clear()


def metric_schema(snap: Optional[dict] = None) -> dict:
    """Reduce a snapshot to its key structure for drift checks.

    Engine schemas are keyed by engine name (labels vary run to run; the
    counter/phase key sets must not), file counter keys are unioned, and
    the global key list is taken verbatim.
    """
    if snap is None:
        snap = snapshot()
    engines: Dict[str, dict] = {}
    for e in snap["engines"]:
        engines[e["engine"]] = {
            "counters": sorted(e["counters"]),
            "phases": sorted(e["phases"]),
        }
    file_keys: set = set()
    for f in snap["files"]:
        file_keys.update(f["counters"])
    service_keys: set = set()
    for s in snap.get("service", ()):
        service_keys.update(s["counters"])
    return {
        "engines": {k: engines[k] for k in sorted(engines)},
        "file_counters": sorted(file_keys),
        "global": sorted(snap["global"]),
        "service": sorted(service_keys),
    }


def snapshot() -> dict:
    """The active session's metrics snapshot."""
    return SESSION.get().metrics.snapshot()


def reset() -> None:
    """Zero the active session's registered and session-wide counters."""
    SESSION.get().metrics.reset()
