"""Causal cross-rank analysis: critical path and wait attribution.

Per-rank phase buckets (:mod:`repro.obs.phases`) answer *how much* time
each rank spent per cost class, but collective I/O cost is dominated by
cross-rank structure — p2p-relaxed pipelined rounds, deferred pipeline
jobs, idle ranks skipping rounds — where one rank's time is another
rank's wait.  This module merges the per-rank span/edge rings of a
:class:`~repro.obs.trace.Tracer` into a causal graph and computes:

* the **critical path** — the longest chain of *self* time (real work,
  never waiting) threading through the run via cross-rank edges; its
  length is the run's lower bound: no amount of extra overlap can beat
  it without making some rank's work faster;
* **wait attribution** — for every blocking event (recv, collective),
  who the blocked rank was waiting *on*, aggregated
  into who-waited-on-whom matrices, a straggler ranking, and a split of
  each rank's wall time into *self time* vs *induced wait* (the
  cross-rank refinement of the paper's Table-3 decomposition).

The graph model (a PERT-style DAG over communication events):

* **nodes** — each rank's edge records (:class:`~repro.obs.trace.Edge`)
  in time order, plus a virtual source/sink;
* **program-order edges** — consecutive events on one rank, weighted by
  the self time between them (``max(0, next.t0 - prev.t1)``);
* **cross-rank edges** — matched by edge key: a send's completion
  releases the matching recv; a collective is released when its *last*
  participant arrives (that straggler is the cause for everyone else);
  a pipeline ``submit`` enables its ``complete`` with the job's
  measured seconds.

Every path accumulates disjoint, forward-in-time real intervals, so the
computed critical path is **≤ the measured wall time** by construction;
and each rank's own program-order chain is itself a candidate path whose
weight is exactly that rank's self time, so the critical path is **≥ the
max per-rank self time**.  Those two bounds are what the tier-1 tests
pin.

All inputs are already recorded — build the graph *after* a traced run::

    from repro.obs import causal
    g = causal.build_graph()           # from the process TRACER
    cp = g.critical_path()
    waits = g.wait_report()
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs import trace

__all__ = [
    "CausalGraph",
    "build_graph",
    "format_critical_path",
    "format_waits",
]

# p2p tags in [BASE, BASE + 2**20) are collective exchange rounds,
# tagged BASE + round by the aggregation layer (io/two_phase.py); the
# wait report uses this to fold p2p waits into per-round exchange skew.
_ROUND_TAG_BASE = 1 << 30
_ROUND_TAG_LIMIT = _ROUND_TAG_BASE + (1 << 20)


def _round_of_tag(tag: int) -> Optional[int]:
    if _ROUND_TAG_BASE <= tag < _ROUND_TAG_LIMIT:
        return tag - _ROUND_TAG_BASE
    return None


class _Node:
    """One communication event on one rank's timeline."""

    __slots__ = ("edge", "idx", "cause", "cause_t", "release", "wait",
                 "d_end", "pred")

    def __init__(self, edge: trace.Edge, idx: int) -> None:
        self.edge = edge
        self.idx = idx              # position in the rank's event list
        self.cause: Optional[_Node] = None   # remote event that released us
        self.cause_t = None         # when the cause arrived/completed
        self.release = edge.t0      # when we stopped waiting
        self.wait = 0.0             # seconds blocked on the cause
        self.d_end = 0.0            # longest-path distance at edge.t1
        self.pred: Optional[Tuple[str, "_Node"]] = None


class CausalGraph:
    """The merged cross-rank causal graph of one traced run."""

    def __init__(self, spans: List[trace.Span],
                 edges: List[trace.Edge]) -> None:
        self.spans = spans
        self.edges = edges
        # Rank extents: prefer the spmd.rank span; fall back to the
        # min/max stamp seen for the rank across spans and edges.
        lo: Dict[int, float] = {}
        hi: Dict[int, float] = {}
        for s in spans:
            if s.name == "spmd.rank":
                lo[s.rank] = min(lo.get(s.rank, s.t0), s.t0)
                hi[s.rank] = max(hi.get(s.rank, s.t1), s.t1)
        for e in edges:
            lo.setdefault(e.rank, e.t0)
            hi.setdefault(e.rank, e.t1)
            lo[e.rank] = min(lo[e.rank], e.t0)
            hi[e.rank] = max(hi[e.rank], e.t1)
        self.t_start = lo
        self.t_end = hi
        self.ranks = sorted(set(lo) | {e.rank for e in edges})
        self._nodes: Dict[int, List[_Node]] = {
            r: [] for r in self.ranks
        }
        by_rank: Dict[int, List[trace.Edge]] = {r: [] for r in self.ranks}
        for e in edges:
            by_rank[e.rank].append(e)
        for r, evs in by_rank.items():
            evs.sort(key=lambda e: (e.t1, e.t0, e.kind, str(e.key)))
            self._nodes[r] = [_Node(e, i) for i, e in enumerate(evs)]
        self._match()
        self._solve()

    # ------------------------------------------------------------------
    def _match(self) -> None:
        """Resolve each blocking node's cause via the edge keys."""
        sends: Dict[tuple, _Node] = {}
        submits: Dict[tuple, _Node] = {}
        colls: Dict[tuple, List[_Node]] = {}
        for r in self.ranks:
            for n in self._nodes[r]:
                k = n.edge.kind
                if k == "send":
                    sends[n.edge.key] = n
                elif k == "submit":
                    submits[n.edge.key] = n
                elif k == "coll":
                    colls.setdefault(n.edge.key, []).append(n)
        self.unmatched = 0
        for r in self.ranks:
            for n in self._nodes[r]:
                e = n.edge
                if e.kind == "recv":
                    s = sends.get(e.key)
                    if s is None:
                        self.unmatched += 1
                        continue
                    n.cause = s
                    n.cause_t = s.edge.t1
                elif e.kind == "complete":
                    s = submits.get(e.key)
                    if s is not None:
                        n.cause = s
                        n.cause_t = s.edge.t1
        # A collective releases everyone when its last participant
        # arrives; that straggler is the cause for every other member.
        for key, members in colls.items():
            last = max(members, key=lambda n: n.edge.t0)
            for n in members:
                if n is not last:
                    n.cause = last
                    n.cause_t = last.edge.t0
        # Wait/release per node: blocked from t0 until the cause
        # arrived (clamped into the event's own interval).
        for r in self.ranks:
            for n in self._nodes[r]:
                if n.cause_t is not None:
                    n.release = min(n.edge.t1, max(n.edge.t0, n.cause_t))
                    n.wait = max(0.0, n.release - n.edge.t0)
                else:
                    n.release = n.edge.t0

    # ------------------------------------------------------------------
    def _d_arrival(self, n: _Node) -> float:
        """Longest-path distance at the node's start (program order)."""
        nodes = self._nodes[n.edge.rank]
        if n.idx == 0:
            return max(0.0, n.edge.t0 - self.t_start.get(n.edge.rank,
                                                         n.edge.t0))
        prev = nodes[n.idx - 1]
        return prev.d_end + max(0.0, n.edge.t0 - prev.edge.t1)

    def _solve(self) -> None:
        """Longest path over all nodes, processed in t1 order.

        For each node the distance at its end is the max of the
        program-order chain (self time since the previous event, then
        the post-release tail of this event) and the cross edge from
        its cause.  Causes always end (or arrive) no later than the
        node's own end, so t1 order is a topological order.
        """
        order = sorted(
            (n for r in self.ranks for n in self._nodes[r]),
            key=lambda n: (n.edge.t1, n.edge.rank, n.idx),
        )
        for n in order:
            d_prog = self._d_arrival(n)
            best, pred = d_prog, None
            if n.cause is not None:
                if n.cause.edge.kind == "coll":
                    d_cross = self._d_arrival(n.cause)
                else:
                    d_cross = n.cause.d_end
                if d_cross > best:
                    best, pred = d_cross, ("cross", n.cause)
            if pred is None and n.idx > 0:
                pred = ("prog", self._nodes[n.edge.rank][n.idx - 1])
            tail = max(0.0, n.edge.t1 - n.release)
            if n.cause is not None and n.cause.edge.kind == "submit":
                # complete nodes: the job's run time is real work on
                # the pipeline worker, chained after its submission.
                tail = max(tail, n.edge.t1 - n.edge.t0)
            n.d_end = best + tail
            n.pred = pred

    # ------------------------------------------------------------------
    def critical_path(self) -> dict:
        """The longest self-time chain through the run.

        Returns ``{"length", "wall", "per_rank_self", "segments"}`` —
        ``segments`` walks the winning chain source→sink as
        ``{"rank", "t0", "t1", "seconds", "via"}`` records.
        """
        wall, per_self = self._wall_and_self()
        best_d, best_n = 0.0, None
        for r in self.ranks:
            nodes = self._nodes[r]
            end = self.t_end.get(r, 0.0)
            if nodes:
                d = nodes[-1].d_end + max(0.0, end - nodes[-1].edge.t1)
            else:
                d = max(0.0, end - self.t_start.get(r, end))
            if d > best_d or best_n is None:
                best_d, best_n = d, nodes[-1] if nodes else None
        segments: List[dict] = []
        n = best_n
        if n is not None:
            segments.append({
                "rank": n.edge.rank, "t0": n.edge.t1,
                "t1": self.t_end.get(n.edge.rank, n.edge.t1),
                "seconds": max(0.0, self.t_end.get(n.edge.rank, n.edge.t1)
                               - n.edge.t1),
                "via": "tail",
            })
        while n is not None:
            segments.append({
                "rank": n.edge.rank, "t0": n.release, "t1": n.edge.t1,
                "seconds": max(0.0, n.edge.t1 - n.release),
                "via": f"{n.edge.kind}:{_key_label(n.edge)}",
            })
            if n.pred is None:
                segments.append({
                    "rank": n.edge.rank,
                    "t0": self.t_start.get(n.edge.rank, n.edge.t0),
                    "t1": n.edge.t0,
                    "seconds": max(0.0, n.edge.t0 -
                                   self.t_start.get(n.edge.rank,
                                                    n.edge.t0)),
                    "via": "head",
                })
                n = None
            else:
                how, p = n.pred
                if how == "prog":
                    segments.append({
                        "rank": n.edge.rank, "t0": p.edge.t1,
                        "t1": n.edge.t0,
                        "seconds": max(0.0, n.edge.t0 - p.edge.t1),
                        "via": "self",
                    })
                n = p
        segments.reverse()
        segments = [s for s in segments if s["seconds"] > 0.0]
        return {
            "length": best_d,
            "wall": wall,
            "per_rank_self": per_self,
            "max_self": max(per_self.values(), default=0.0),
            "segments": segments,
        }

    def _wall_and_self(self) -> Tuple[float, Dict[int, float]]:
        starts = [self.t_start[r] for r in self.ranks if r in self.t_start]
        ends = [self.t_end[r] for r in self.ranks if r in self.t_end]
        wall = (max(ends) - min(starts)) if starts and ends else 0.0
        per_self: Dict[int, float] = {}
        for r in self.ranks:
            span = max(0.0, self.t_end.get(r, 0.0) - self.t_start.get(r, 0.0))
            waited = sum(n.wait for n in self._nodes[r])
            per_self[r] = max(0.0, span - waited)
        return wall, per_self

    # ------------------------------------------------------------------
    def wait_report(self) -> dict:
        """Who waited on whom, and the self/induced-wait decomposition.

        Returns::

            {
              "per_rank": {rank: {"wall", "self", "wait", "by_peer",
                                  "by_class"}},
              "stragglers": [(rank, induced_seconds), ...]  # desc
              "rounds": {round: {"exchange_wait", "skew"}},
            }

        ``by_class`` splits each rank's wait into ``exchange`` (p2p
        round traffic), ``collective`` (barriers/alltoalls/allgathers)
        and ``p2p`` (everything else).
        """
        wall, per_self = self._wall_and_self()
        per_rank: Dict[int, dict] = {}
        induced: Dict[int, float] = {r: 0.0 for r in self.ranks}
        rounds: Dict[int, dict] = {}
        for r in self.ranks:
            by_peer: Dict[int, float] = {}
            by_class = {"exchange": 0.0, "collective": 0.0, "p2p": 0.0}
            total = 0.0
            for n in self._nodes[r]:
                if n.wait <= 0.0:
                    continue
                e = n.edge
                total += n.wait
                cls = "p2p"
                if e.kind == "coll" or (
                        n.cause is not None
                        and n.cause.edge.kind == "coll"):
                    cls = "collective"
                elif e.kind == "recv":
                    rnd = (_round_of_tag(e.key[2])
                           if len(e.key) >= 3 and isinstance(e.key[2], int)
                           else None)
                    if rnd is not None:
                        cls = "exchange"
                        row = rounds.setdefault(
                            rnd, {"exchange_wait": 0.0, "skew": 0.0})
                        row["exchange_wait"] += n.wait
                        row["skew"] = max(row["skew"], n.wait)
                by_class[cls] += n.wait
                if n.cause is not None:
                    blocker = n.cause.edge.rank
                    if blocker != r:
                        by_peer[blocker] = by_peer.get(blocker, 0.0) + n.wait
                        induced[blocker] = induced.get(blocker, 0.0) + n.wait
            per_rank[r] = {
                "wall": max(0.0, self.t_end.get(r, 0.0)
                            - self.t_start.get(r, 0.0)),
                "self": per_self[r],
                "wait": total,
                "by_peer": dict(sorted(by_peer.items())),
                "by_class": by_class,
            }
        stragglers = sorted(induced.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            "wall": wall,
            "per_rank": per_rank,
            "stragglers": stragglers,
            "rounds": {k: rounds[k] for k in sorted(rounds)},
            "unmatched_edges": self.unmatched,
        }

    # ------------------------------------------------------------------
    def check_acyclic(self) -> bool:
        """Every cross edge must point forward in time (cause arrives
        no later than the effect completes) — which is what makes the
        t1-ordered longest-path pass a topological traversal.  Returns
        True when the invariant holds for every matched edge."""
        eps = 1e-9
        for r in self.ranks:
            for n in self._nodes[r]:
                if n.cause_t is not None and n.cause_t > n.edge.t1 + eps:
                    return False
                if n.idx > 0:
                    prev = self._nodes[r][n.idx - 1]
                    if prev.edge.t1 > n.edge.t1 + eps:
                        return False
        return True

    def structure(self) -> dict:
        """A timing-free fingerprint of the graph — per-rank event kind
        sequences and the set of matched keys — for determinism tests:
        two runs of the same program must produce the same structure
        even though every timestamp differs."""
        return {
            "events": {
                r: [(n.edge.kind, _key_label(n.edge))
                    for n in self._nodes[r]]
                for r in self.ranks
            },
            "matched": sorted(
                f"{n.edge.kind}:{_key_label(n.edge)}"
                for r in self.ranks for n in self._nodes[r]
                if n.cause is not None
            ),
        }


def _key_label(e: trace.Edge) -> str:
    return ",".join(str(p) for p in e.key)


def build_graph(tracer: Optional[trace.Tracer] = None) -> CausalGraph:
    """Build the causal graph from a tracer's recorded spans + edges
    (defaults to the process :data:`~repro.obs.trace.TRACER`)."""
    tr = tracer if tracer is not None else trace.TRACER
    return CausalGraph(tr.spans(), tr.edges())


# ----------------------------------------------------------------------
# CLI renderings
# ----------------------------------------------------------------------
def format_critical_path(cp: dict, limit: int = 24) -> str:
    """Human-readable critical-path report for ``repro trace``."""
    lines = [
        "critical path: {:.3f} ms  (wall {:.3f} ms, max per-rank self "
        "{:.3f} ms)".format(cp["length"] * 1e3, cp["wall"] * 1e3,
                            cp["max_self"] * 1e3),
    ]
    segs = cp["segments"]
    shown = segs if len(segs) <= limit else segs[-limit:]
    if shown is not segs:
        lines.append(f"  ... ({len(segs) - limit} earlier segments)")
    for s in shown:
        lines.append(
            "  rank {:<3d} {:>9.3f} ms  {}".format(
                s["rank"], s["seconds"] * 1e3, s["via"])
        )
    per_self = cp["per_rank_self"]
    lines.append("per-rank self time: " + "  ".join(
        f"r{r}={per_self[r] * 1e3:.3f}ms" for r in sorted(per_self)))
    return "\n".join(lines)


def format_waits(report: dict, limit: int = 8) -> str:
    """Human-readable wait-attribution report for ``repro trace``."""
    lines = ["wait attribution (self vs induced wait per rank):"]
    for r in sorted(report["per_rank"]):
        row = report["per_rank"][r]
        peers = ", ".join(
            f"on r{p}: {s * 1e3:.3f}ms"
            for p, s in list(row["by_peer"].items())[:limit]
        ) or "-"
        cls = row["by_class"]
        lines.append(
            "  rank {:<3d} wall {:>8.3f}ms  self {:>8.3f}ms  wait "
            "{:>8.3f}ms  [exch {:.3f} coll {:.3f}]  {}"
            .format(r, row["wall"] * 1e3, row["self"] * 1e3,
                    row["wait"] * 1e3, cls["exchange"] * 1e3,
                    cls["collective"] * 1e3, peers)
        )
    stragglers = [kv for kv in report["stragglers"] if kv[1] > 0.0]
    if stragglers:
        lines.append("stragglers (wait induced on others):")
        for r, s in stragglers[:limit]:
            lines.append(f"  rank {r:<3d} {s * 1e3:>9.3f} ms")
    if report["rounds"]:
        lines.append("per-round exchange skew:")
        for rnd, row in list(report["rounds"].items())[:limit]:
            lines.append(
                "  round {:<3d} wait {:>8.3f} ms  skew {:>8.3f} ms"
                .format(rnd, row["exchange_wait"] * 1e3,
                        row["skew"] * 1e3)
            )
    if report.get("unmatched_edges"):
        lines.append(
            f"({report['unmatched_edges']} unmatched edges — ring "
            "overflow or a truncated trace)")
    return "\n".join(lines)
