"""Always-on flight recorder: what was the world doing when it died?

Tracing answers post-hoc questions about runs you *chose* to trace.
Failures don't wait to be chosen: a rank raises, gets SIGKILLed, or a
world times out (the ``repro/mpi`` failure paths), and the evidence is
gone with the processes.  The flight recorder keeps a small, bounded,
always-on ring of breadcrumbs per rank — collective entries, round
completions, errors — cheap enough to leave running everywhere (one
deque append per *round*, not per op), and turns it into a single JSON
artifact at the moment a world aborts.

Dump policy: the in-memory record is always built on abort and kept
(:func:`last_record`), but it is only **written to disk when the
``REPRO_FLIGHT`` environment variable names a path** — test suites
inject hundreds of intentional failures and must not litter the tree.
``REPRO_FLIGHT=/path/to/flight.json`` (a directory gets
``flight_record.json`` inside).  ``repro flight`` dumps on demand.

Dead ranks can't ship breadcrumbs.  The proc runtime therefore installs
a *beacon* in each rank process (:func:`set_beacon`) that writes the
rank's last completed round index into shared memory as a side effect
of :func:`note_round`; when the parent finds a rank dead it reads the
beacon slot and the flight record still names the failed rank's last
round.  See ``docs/observability.md`` §4 for the record schema.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Callable, Dict, Optional

from repro._ctx import SESSION
from repro.obs.trace import _current_rank

__all__ = [
    "FLIGHT_VERSION",
    "FlightRecorder",
    "dump_on_abort",
    "last_record",
    "note",
    "note_round",
    "set_beacon",
]

#: Schema version stamped into every record (validated by
#: ``benchmarks/check_metrics_schema.py --flight``).
FLIGHT_VERSION = 1

#: Breadcrumbs kept per rank.  Rounds dominate; 256 rounds of history
#: is far more than any failure post-mortem has needed.
MAX_CRUMBS_PER_RANK = 256

_now = time.perf_counter


class FlightRecorder:
    """Bounded per-rank breadcrumb rings + last-round tracking.

    One instance per :class:`~repro.session.IOSession`, so concurrent
    worlds/tenants keep separate records.  :meth:`record` reports the
    ``global`` counters of the session's ``metrics`` registry.
    """

    def __init__(self, metrics,
                 maxlen: int = MAX_CRUMBS_PER_RANK) -> None:
        self.maxlen = maxlen
        self._metrics = metrics
        self._rings: Dict[int, deque] = {}
        self._last_round: Dict[int, int] = {}
        self._beacon: Optional[Callable[[int], None]] = None
        self._mu = threading.Lock()

    # ------------------------------------------------------------------
    def _ring(self, rank: int) -> deque:
        ring = self._rings.get(rank)
        if ring is None:
            with self._mu:
                ring = self._rings.setdefault(
                    rank, deque(maxlen=self.maxlen))
        return ring

    def note(self, kind: str, rank: Optional[int] = None, **info) -> None:
        """Append one breadcrumb ``(t, kind, info)`` on the rank's ring.

        ``t`` is an absolute ``perf_counter`` stamp (CLOCK_MONOTONIC —
        coherent across the proc runtime's rank processes), rebased
        when the record is built.
        """
        r = _current_rank() if rank is None else rank
        ring = self._rings.get(r)
        if ring is None:
            ring = self._ring(r)
        ring.append((_now(), kind, info or None))

    def note_round(self, index: int, total: int,
                   rank: Optional[int] = None, **info) -> None:
        """Breadcrumb a completed aggregation round; also advances the
        rank's last-round marker and fires the beacon (proc runtime)."""
        r = _current_rank() if rank is None else rank
        self._last_round[r] = index
        b = self._beacon
        if b is not None:
            try:
                b(index)
            except Exception:
                pass
        ring = self._rings.get(r)
        if ring is None:
            ring = self._ring(r)
        ring.append((_now(), "round", {"index": index, "total": total,
                                       **info}))

    def set_beacon(self, fn: Optional[Callable[[int], None]]) -> None:
        """Install a per-process callback invoked with each completed
        round index (the proc runtime points it at a shared-memory slot
        the parent can read even after this process dies)."""
        self._beacon = fn

    def clear(self) -> None:
        with self._mu:
            self._rings.clear()
            self._last_round.clear()

    # ------------------------------------------------------------------
    # Cross-process shipping (proc runtime reports).
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        with self._mu:
            return {
                "crumbs": {r: list(ring)
                           for r, ring in self._rings.items()},
                "last_round": dict(self._last_round),
            }

    def ingest_state(self, state: dict) -> None:
        for r, crumbs in state.get("crumbs", {}).items():
            ring = self._ring(r)
            for crumb in crumbs:
                ring.append(tuple(crumb))
        for r, idx in state.get("last_round", {}).items():
            self._last_round[r] = max(self._last_round.get(r, -1), idx)

    # ------------------------------------------------------------------
    def record(self, reason: str, error: Optional[BaseException] = None,
               failed_rank: Optional[int] = None,
               failed_ranks: Optional[list] = None,
               last_rounds: Optional[Dict[int, int]] = None,
               backend: Optional[str] = None,
               world_size: Optional[int] = None) -> dict:
        """Build the flight record as a JSON-ready dict."""
        with self._mu:
            rings = {r: list(ring) for r, ring in self._rings.items()}
            rounds = dict(self._last_round)
        if last_rounds:
            for r, idx in last_rounds.items():
                rounds[r] = max(rounds.get(r, -1), idx)
        t0 = min((c[0] for ring in rings.values() for c in ring),
                 default=0.0)
        ranks = {
            str(r): {
                "breadcrumbs": [
                    [round(t - t0, 6), kind, info]
                    for t, kind, info in ring
                ]
            }
            for r, ring in sorted(rings.items())
        }
        err = None
        if error is not None:
            err = {"type": type(error).__name__, "message": str(error)}
        counters = {}
        try:
            counters = self._metrics.snapshot().get("global", {})
        except Exception:
            pass
        spans_dropped = {}
        recent_spans: Dict[str, list] = {}
        try:
            from repro.obs import trace
            snap = trace.TRACER.snapshot()
            spans_dropped = {str(r): n for r, n
                            in sorted(snap["spans_dropped"].items())}
            if trace.TRACE_ON:
                for r in trace.TRACER.ranks():
                    tail = trace.TRACER.spans(r)[-16:]
                    recent_spans[str(r)] = [
                        [s.name, round(s.t0, 6), round(s.t1, 6)]
                        for s in tail
                    ]
        except Exception:
            pass
        return {
            "flight_version": FLIGHT_VERSION,
            "reason": reason,
            "backend": backend,
            "world_size": world_size,
            "error": err,
            "failed_rank": failed_rank,
            "failed_ranks": sorted(failed_ranks or
                                   ([] if failed_rank is None
                                    else [failed_rank])),
            "last_rounds": {str(r): rounds[r] for r in sorted(rounds)},
            "ranks": ranks,
            "counters": counters,
            "spans_dropped": spans_dropped,
            "recent_spans": recent_spans,
        }


_last_record: Optional[dict] = None
_mu = threading.Lock()


def note(kind: str, rank: Optional[int] = None, **info) -> None:
    """Module-level convenience for :meth:`FlightRecorder.note`."""
    SESSION.get().flight.note(kind, rank=rank, **info)


def note_round(index: int, total: int, rank: Optional[int] = None,
               **info) -> None:
    """Module-level convenience for :meth:`FlightRecorder.note_round`."""
    SESSION.get().flight.note_round(index, total, rank=rank, **info)


def set_beacon(fn: Optional[Callable[[int], None]]) -> None:
    SESSION.get().flight.set_beacon(fn)


def last_record() -> Optional[dict]:
    """The most recent flight record built in this process (any
    reason), or None."""
    return _last_record


def _resolve_path(path: str) -> str:
    if os.path.isdir(path):
        return os.path.join(path, "flight_record.json")
    return path


def dump(path: str, reason: str = "on_demand", **kw) -> str:
    """Build the current record and write it to ``path``; returns the
    resolved file path."""
    global _last_record
    rec = SESSION.get().flight.record(reason, **kw)
    with _mu:
        _last_record = rec
    out = _resolve_path(path)
    with open(out, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")
    return out


def dump_on_abort(error: BaseException, backend: str,
                  failed_rank: Optional[int] = None,
                  failed_ranks: Optional[list] = None,
                  last_rounds: Optional[Dict[int, int]] = None,
                  world_size: Optional[int] = None,
                  recorder: Optional[FlightRecorder] = None,
                  ) -> Optional[str]:
    """Called by the SPMD runtimes when a world dies.  Always builds
    and stashes the record; writes it to disk only when
    ``REPRO_FLIGHT`` names a destination.  ``recorder`` pins the record
    to a specific world's session recorder (both runtimes pass the one
    they cleared at launch); default: the active session's.  Never
    raises — this runs on the failure path and must not mask the
    original error."""
    global _last_record
    try:
        rec = (recorder if recorder is not None
               else SESSION.get().flight).record(
            "abort", error=error, failed_rank=failed_rank,
            failed_ranks=failed_ranks, last_rounds=last_rounds,
            backend=backend, world_size=world_size)
        with _mu:
            _last_record = rec
        path = os.environ.get("REPRO_FLIGHT", "").strip()
        if not path:
            return None
        out = _resolve_path(path)
        with open(out, "w") as f:
            json.dump(rec, f, indent=1, sort_keys=True)
            f.write("\n")
        return out
    except Exception:
        return None
