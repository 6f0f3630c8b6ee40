"""Low-overhead tracing: nestable spans in per-rank ring buffers.

The tracer answers the question the raw counters cannot: *where* did a
collective write spend its time?  Every instrumented layer — plan build,
copy kernels, file accesses, MPI exchanges — opens a :func:`span` around
its work; spans nest, carry free-form fields (``bytes=n``, ``rank=r``)
and land in a bounded per-rank ring buffer, so a long benchmark can
trace forever without growing memory.

Cost when off is the design constraint.  The module-level fast path::

    with trace.span("two_phase.exchange", bytes=n):
        ...

compiles to one global read and one shared no-op context manager when
tracing is disabled — no allocation, no ``perf_counter`` call, no ring
access (tested in ``tests/test_obs_trace.py``).  Hot paths that cannot
even afford a function call guard on the module attribute directly::

    if trace.TRACE_ON:
        t0 = trace.now()
        ...
        trace.add_span("ff.pack", t0, bytes=n)

Enabling: the ``REPRO_TRACE`` environment variable (any value but
``0``/``false``/``off``), :func:`set_tracing` at runtime, or the
``obs_trace`` open hint (``repro.io.hints``) which flips the process
switch when the file is opened.  ``REPRO_TRACE`` also accepts a comma
list of categories (``REPRO_TRACE=exec,fs``) — the prefix before the
first ``.`` of a span name — so hot-kernel categories can stay off
while round/exchange spans record; :func:`set_tracing` takes the same
via ``categories=``.  The filter state *is* the :data:`TRACE_ON`
global (``False`` / ``True`` / a frozenset of categories), so the off
path stays one global read.

Rank attribution: the SPMD harness names its threads ``rank-N``
(:mod:`repro.mpi.runtime`), and the tracer resolves the current rank
from the thread name (cached per thread).  Spans recorded outside any
rank thread land on rank 0.  Export formats live in
:mod:`repro.obs.export`; phase buckets (always-on accounting) in
:mod:`repro.obs.phases`.

Causal structure: every span carries a per-rank id (``sid``) and the
id of its enclosing span (``parent``), and the tracer additionally
keeps per-rank rings of :class:`Edge` records — cross-rank
happens-before stamps written at communication sites (send/recv pairs,
collectives, pipeline submit/complete).  :mod:`repro.obs.causal`
merges spans and edges into the causal graph behind ``repro trace
--critical-path`` / ``--waits``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = [
    "Edge",
    "Span",
    "Tracer",
    "TRACER",
    "add_edge",
    "add_span",
    "enabled",
    "now",
    "set_tracing",
    "span",
]

#: Spans kept per rank; older spans fall off the ring (a trace of the
#: steady state is what the overhead decomposition needs).
MAX_SPANS_PER_RANK = 1 << 16

now = time.perf_counter


_OFF_TOKENS = ("", "0", "false", "off", "no", "disable", "disabled")
_ON_TOKENS = ("1", "true", "on", "yes", "all", "enable", "enabled")


def _env_trace_setting():
    """Parse ``REPRO_TRACE``: a boolean token, or a comma list of
    categories (``exec,fs``) yielding a frozenset filter."""
    v = os.environ.get("REPRO_TRACE", "0").strip().lower()
    if v in _OFF_TOKENS:
        return False
    if v in _ON_TOKENS:
        return True
    cats = frozenset(c.strip() for c in v.split(",") if c.strip())
    return cats if cats else True


#: Module-level switch, read on every span() call.  Kept as a plain
#: global (not behind a function) so hot paths can guard on it directly.
#: Three states: ``False`` (off), ``True`` (record everything), or a
#: frozenset of category names (record only spans whose name prefix
#: before the first ``.`` is in the set).  Any truthy value keeps the
#: hot-path ``if trace.TRACE_ON`` guards live; the category filter is
#: applied where the span is recorded.
TRACE_ON = _env_trace_setting()


def enabled() -> bool:
    """Whether span recording is active process-wide."""
    return bool(TRACE_ON)


def set_tracing(flag=True, categories=None):
    """Enable/disable tracing at runtime; returns the previous setting.

    ``set_tracing(True, categories=("exec", "fs"))`` records only those
    categories.  The return value round-trips: ``set_tracing(prev)``
    restores whatever was active, including a category filter.
    """
    global TRACE_ON
    prev = TRACE_ON
    if categories is not None:
        cats = frozenset(categories)
        TRACE_ON = (cats or True) if flag else False
    elif isinstance(flag, str):
        TRACE_ON = (frozenset(c.strip() for c in flag.split(",") if c.strip())
                    or False)
    elif isinstance(flag, frozenset) or isinstance(flag, (set, list, tuple)):
        TRACE_ON = frozenset(flag) if flag else False
    else:
        TRACE_ON = bool(flag)
    return prev


class Span:
    """One recorded span: name, rank, nesting depth, times, fields.

    ``t0``/``t1`` are ``perf_counter`` seconds relative to the tracer's
    epoch (set when the tracer is created or cleared), so exported
    timestamps start near zero.

    ``sid`` is the span's id — unique and monotonic per rank — and
    ``parent`` is the sid of the span lexically enclosing it on the
    same rank (-1 at top level), giving every trace an explicit call
    tree in addition to the depth field.
    """

    __slots__ = ("name", "rank", "depth", "t0", "t1", "args", "sid",
                 "parent")

    def __init__(self, name: str, rank: int, depth: int, t0: float,
                 t1: float, args: Optional[dict], sid: int = -1,
                 parent: int = -1) -> None:
        self.name = name
        self.rank = rank
        self.depth = depth
        self.t0 = t0
        self.t1 = t1
        self.args = args
        self.sid = sid
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name!r} rank={self.rank} sid={self.sid} "
            f"depth={self.depth} dur={self.duration * 1e6:.1f}us>"
        )


class Edge:
    """One cross-rank causality stamp, recorded at a communication
    site.  Both sides of a matched operation record an edge with the
    *same* ``key`` (a tuple both can compute locally — e.g. p2p
    ``(src, dst, tag, seq)`` from per-pair FIFO sequence counters, or
    collective ``(what, cid, n)`` from per-rank call counters), which
    is how :mod:`repro.obs.causal` pairs them up after the per-rank
    rings are merged.

    ``kind`` ∈ {``send``, ``recv``, ``coll``, ``submit``, ``complete``}.
    ``peer`` is the other world rank for p2p, else -1.
    ``sid`` is the id of the span open on this rank when the edge was
    stamped (-1 if none), linking edges back into the span tree.
    ``t0``/``t1``: for waits (recv/coll), t0 is when the rank
    started waiting and t1 when it was released; for sends/submits the
    two coincide at the stamp time.
    """

    __slots__ = ("kind", "key", "rank", "peer", "sid", "t0", "t1")

    def __init__(self, kind: str, key: tuple, rank: int, peer: int,
                 sid: int, t0: float, t1: float) -> None:
        self.kind = kind
        self.key = key
        self.rank = rank
        self.peer = peer
        self.sid = sid
        self.t0 = t0
        self.t1 = t1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Edge {self.kind} key={self.key!r} rank={self.rank} "
                f"peer={self.peer}>")


class _NoopSpan:
    """The shared do-nothing context manager returned when tracing is
    off.  A singleton: ``span(...)`` allocates nothing on the off path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()

_tls = threading.local()


def set_current_rank(rank: int) -> None:
    """Pin the calling thread's rank attribution to ``rank``.

    Rank resolution caches in a thread-local, and a forked worker
    process inherits the parent main thread's cache (fork copies
    thread-locals along with the rest of memory) — so a process-backed
    rank must overwrite the cache explicitly; renaming its thread to
    ``rank-N`` is not enough.  Also drops any span stack inherited
    from the parent: those spans belong to the parent's timeline.
    """
    _tls.rank = rank
    _tls.stack = []


def _current_rank() -> int:
    """Rank of the calling thread (cached), from the ``rank-N`` thread
    name the SPMD harness assigns; 0 outside any rank thread."""
    r = getattr(_tls, "rank", None)
    if r is None:
        name = threading.current_thread().name
        if name.startswith("rank-"):
            try:
                r = int(name[5:])
            except ValueError:
                r = 0
        else:
            r = 0
        _tls.rank = r
    return r


def _span_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


class _LiveSpan:
    """Context manager recording one span into its tracer on exit.

    On entry it draws a fresh per-rank span id and pushes it on the
    thread's live-span stack (the top of the stack is the parent of
    anything recorded while this span is open); on exit it pops and
    records.
    """

    __slots__ = ("tracer", "name", "rank", "args", "t0", "depth", "sid",
                 "parent")

    def __init__(self, tracer: "Tracer", name: str, rank: Optional[int],
                 args: Optional[dict]) -> None:
        self.tracer = tracer
        self.name = name
        self.rank = rank
        self.args = args

    def __enter__(self) -> "_LiveSpan":
        depth = getattr(_tls, "depth", 0)
        self.depth = depth
        _tls.depth = depth + 1
        r = self.rank if self.rank is not None else _current_rank()
        self.rank = r
        stack = _span_stack()
        self.parent = stack[-1] if stack else -1
        self.sid = self.tracer._next_sid(r)
        stack.append(self.sid)
        self.t0 = now()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = now()
        _tls.depth = self.depth
        stack = _span_stack()
        if stack and stack[-1] == self.sid:
            stack.pop()
        self.tracer._record(self.name, self.rank, self.depth, self.t0,
                            t1, self.args, sid=self.sid,
                            parent=self.parent)
        return False


class Tracer:
    """Per-rank ring buffers of :class:`Span` and :class:`Edge` records."""

    def __init__(self, max_spans_per_rank: int = MAX_SPANS_PER_RANK) -> None:
        self.maxlen = max_spans_per_rank
        self._rings: Dict[int, deque] = {}
        self._edges: Dict[int, deque] = {}
        self._dropped: Dict[int, int] = {}
        self._edges_dropped: Dict[int, int] = {}
        self._sids: Dict[int, int] = {}
        self._seqs: Dict[tuple, int] = {}
        self._mu = threading.Lock()
        self.epoch = now()

    # ------------------------------------------------------------------
    def _ring(self, rank: int) -> deque:
        ring = self._rings.get(rank)
        if ring is None:
            with self._mu:
                ring = self._rings.setdefault(
                    rank, deque(maxlen=self.maxlen)
                )
        return ring

    def _edge_ring(self, rank: int) -> deque:
        ring = self._edges.get(rank)
        if ring is None:
            with self._mu:
                ring = self._edges.setdefault(
                    rank, deque(maxlen=self.maxlen)
                )
        return ring

    def _next_sid(self, rank: int) -> int:
        # Only the rank's own thread draws its ids, so the bare
        # read-increment is single-writer (the GIL covers the dict op).
        n = self._sids.get(rank, 0)
        self._sids[rank] = n + 1
        return n

    def seq(self, key: tuple) -> int:
        """Draw the next value of a named sequence counter.  Used by
        communication sites to build matchable edge keys: each side
        counts its own (pair, tag) stream, and FIFO delivery per
        (source, tag) makes the n-th send match the n-th receive."""
        n = self._seqs.get(key, 0)
        self._seqs[key] = n + 1
        return n

    def _record(self, name: str, rank: Optional[int], depth: int,
                t0: float, t1: float, args: Optional[dict],
                sid: int = -1, parent: int = -1) -> None:
        state = TRACE_ON
        if type(state) is frozenset and name.split(".", 1)[0] not in state:
            return
        r = _current_rank() if rank is None else rank
        if sid < 0:
            stack = getattr(_tls, "stack", None)
            parent = stack[-1] if stack else -1
            sid = self._next_sid(r)
        # deque.append is atomic; each rank thread appends to its own
        # ring, so no lock is needed on the record path.
        ring = self._ring(r)
        if len(ring) == self.maxlen:
            self._dropped[r] = self._dropped.get(r, 0) + 1
        ring.append(
            Span(name, r, depth, t0 - self.epoch, t1 - self.epoch, args,
                 sid=sid, parent=parent)
        )

    # ------------------------------------------------------------------
    def span(self, name: str, rank: Optional[int] = None,
             **args) -> _LiveSpan:
        """A context manager recording ``name`` around its body."""
        return _LiveSpan(self, name, rank, args or None)

    def add(self, name: str, t0: float, t1: Optional[float] = None,
            rank: Optional[int] = None, **args) -> None:
        """Record a finished span from explicit ``perf_counter`` stamps
        (the manual API for call-overhead-sensitive paths).

        This is ``_record`` inlined: hot kernels stamp one span per
        buffer-sized window, so the forwarding call and the repeated
        thread-local lookups it would cost are worth flattening away
        (the ``--trace-overhead`` CI gate holds the budget).
        """
        state = TRACE_ON
        if type(state) is frozenset and name.split(".", 1)[0] not in state:
            return
        if t1 is None:
            t1 = now()
        r = _current_rank() if rank is None else rank
        stack = getattr(_tls, "stack", None)
        sid = self._sids.get(r, 0)
        self._sids[r] = sid + 1
        ring = self._rings.get(r)
        if ring is None:
            ring = self._ring(r)
        elif len(ring) == self.maxlen:
            self._dropped[r] = self._dropped.get(r, 0) + 1
        e = self.epoch
        ring.append(
            Span(name, r, getattr(_tls, "depth", 0), t0 - e, t1 - e,
                 args or None, sid=sid,
                 parent=stack[-1] if stack else -1)
        )

    def edge(self, kind: str, key: tuple, peer: int = -1,
             t0: Optional[float] = None, t1: Optional[float] = None,
             rank: Optional[int] = None, sid: Optional[int] = None) -> None:
        """Record a cross-rank causality stamp (see :class:`Edge`)."""
        r = _current_rank() if rank is None else rank
        if t1 is None:
            t1 = now()
        if t0 is None:
            t0 = t1
        if sid is None:
            stack = getattr(_tls, "stack", None)
            sid = stack[-1] if stack else -1
        ring = self._edge_ring(r)
        if len(ring) == self.maxlen:
            self._edges_dropped[r] = self._edges_dropped.get(r, 0) + 1
        ring.append(Edge(kind, key, r, peer, sid, t0 - self.epoch,
                         t1 - self.epoch))

    # ------------------------------------------------------------------
    def spans(self, rank: Optional[int] = None) -> List[Span]:
        """Recorded spans — one rank's, or all ranks' in time order."""
        with self._mu:
            rings = ({rank: self._rings.get(rank, ())} if rank is not None
                     else dict(self._rings))
        out: List[Span] = []
        for r in sorted(rings):
            out.extend(rings[r])
        out.sort(key=lambda s: (s.t0, s.rank, s.depth))
        return out

    def edges(self, rank: Optional[int] = None) -> List[Edge]:
        """Recorded edges — one rank's, or all ranks' in time order."""
        with self._mu:
            rings = ({rank: self._edges.get(rank, ())} if rank is not None
                     else dict(self._edges))
        out: List[Edge] = []
        for r in sorted(rings):
            out.extend(rings[r])
        out.sort(key=lambda e: (e.t1, e.rank))
        return out

    def ranks(self) -> List[int]:
        with self._mu:
            return sorted(r for r, ring in self._rings.items() if ring)

    def dropped(self, rank: Optional[int] = None):
        """Spans that fell off a wrapped ring — per rank, or one rank's
        count.  Non-zero means the timeline is truncated."""
        with self._mu:
            if rank is not None:
                return self._dropped.get(rank, 0)
            return dict(self._dropped)

    def snapshot(self) -> dict:
        """Counts for dashboards/tests: spans and edges per rank plus
        the per-rank overflow (``spans_dropped`` / ``edges_dropped``)."""
        with self._mu:
            return {
                "spans": {r: len(ring) for r, ring in self._rings.items()},
                "edges": {r: len(ring) for r, ring in self._edges.items()},
                "spans_dropped": dict(self._dropped),
                "edges_dropped": dict(self._edges_dropped),
            }

    def clear(self) -> None:
        """Drop all spans/edges/counters and restart the epoch."""
        with self._mu:
            self._rings.clear()
            self._edges.clear()
            self._dropped.clear()
            self._edges_dropped.clear()
            self._sids.clear()
            self._seqs.clear()
            self.epoch = now()

    # ------------------------------------------------------------------
    # Cross-process merge (the proc SPMD backend ships each child's
    # spans back to the parent and ingests them here).
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Spans/edges as picklable tuples with *absolute*
        ``perf_counter`` stamps.  ``perf_counter`` is CLOCK_MONOTONIC
        on Linux — one clock across processes — so a tracer in another
        process can rebase them onto its own epoch and the merged
        timeline stays consistent."""
        with self._mu:
            rings = {r: list(ring) for r, ring in self._rings.items()}
            edges = {r: list(ring) for r, ring in self._edges.items()}
            dropped = dict(self._dropped)
        e = self.epoch
        return {
            "spans": {
                r: [
                    (s.name, s.rank, s.depth, s.t0 + e, s.t1 + e,
                     s.args, s.sid, s.parent)
                    for s in ring
                ]
                for r, ring in rings.items()
            },
            "edges": {
                r: [
                    (ed.kind, ed.key, ed.peer, ed.sid, ed.t0 + e,
                     ed.t1 + e)
                    for ed in ring
                ]
                for r, ring in edges.items()
            },
            "dropped": dropped,
        }

    def ingest_state(self, state: dict) -> int:
        """Merge spans/edges exported by another process' tracer;
        returns the number of spans absorbed."""
        n = 0
        e = self.epoch
        for r, spans in state.get("spans", {}).items():
            ring = self._ring(r)
            for name, rank, depth, t0, t1, args, sid, parent in spans:
                ring.append(Span(name, rank, depth, t0 - e, t1 - e,
                                 args, sid=sid, parent=parent))
                n += 1
        for r, edges in state.get("edges", {}).items():
            ring = self._edge_ring(r)
            for kind, key, peer, sid, t0, t1 in edges:
                ring.append(Edge(kind, key, r, peer, sid, t0 - e,
                                 t1 - e))
        for r, d in state.get("dropped", {}).items():
            if d:
                self._dropped[r] = self._dropped.get(r, 0) + d
        return n

    def __len__(self) -> int:
        with self._mu:
            return sum(len(r) for r in self._rings.values())


#: The process tracer every instrumented layer records into.
TRACER = Tracer()


def span(name: str, rank: Optional[int] = None, **args):
    """Record a span around the ``with`` body — or do nothing, cheaply.

    The off path returns a shared no-op context manager: no allocation,
    no clock read.  With a category filter active, filtered-out names
    take the same no-op path (one extra string split).
    """
    state = TRACE_ON
    if not state:
        return _NOOP
    if state is not True and name.split(".", 1)[0] not in state:
        return _NOOP
    return TRACER.span(name, rank=rank, **args)


def add_span(name: str, t0: float, t1: Optional[float] = None,
             rank: Optional[int] = None, **args) -> None:
    """Manual-stamp recording (no-op when tracing is off).

    Callers on clock-sensitive paths should guard the *start* stamp on
    :data:`TRACE_ON` themselves; this re-check covers toggles that race
    the call.  Category-filtered names are rejected here, before any
    tracer machinery runs — the hot-guard sites stay cheap when their
    category is excluded.
    """
    state = TRACE_ON
    if not state:
        return
    if state is not True and name.split(".", 1)[0] not in state:
        return
    TRACER.add(name, t0, t1, rank=rank, **args)


def add_edge(kind: str, key: tuple, peer: int = -1,
             t0: Optional[float] = None, t1: Optional[float] = None,
             rank: Optional[int] = None) -> None:
    """Record a cross-rank causality edge (no-op when tracing is off).

    Edges are *not* category-filtered: they are only stamped at
    communication sites (never in hot kernels) and the causal graph
    needs them even when span categories are narrowed.
    """
    if not TRACE_ON:
        return
    TRACER.edge(kind, key, peer=peer, t0=t0, t1=t1, rank=rank)
