"""Observability: tracing, unified metrics, per-phase time accounting.

Three cooperating pieces (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — nestable spans in per-rank ring buffers,
  near-zero cost when off (``REPRO_TRACE`` / :func:`set_tracing` / the
  ``obs_trace`` open hint);
* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` (one per
  session) labeling every ``EngineStats`` / ``FileStats`` producer and
  reporting the session's block-program / kernel-path counters exactly
  once;
* :mod:`repro.obs.phases` — always-on per-phase wall-time buckets
  (plan / pack / unpack / file_io / exchange / lock / sync), the
  Table-3-style decomposition ``repro btio --report phases`` prints.

Cross-rank analysis sits on top: :mod:`repro.obs.causal` merges the
per-rank span/edge rings into a causal graph (critical path, wait
attribution), and :mod:`repro.obs.flight` is the always-on flight
recorder dumped when a world aborts.

Exporters (Chrome-trace JSON for Perfetto, text summary) live in
:mod:`repro.obs.export`.
"""

from repro.obs import causal, flight, trace
from repro.obs.causal import build_graph
from repro.obs.export import chrome_trace, export_chrome_trace, text_summary
from repro.obs.metrics import MetricsRegistry, metric_schema
from repro.obs.phases import BUCKETS, PhaseAccumulator, format_phase_table
from repro.obs.trace import (
    TRACER,
    Edge,
    Span,
    Tracer,
    add_edge,
    add_span,
    set_tracing,
    span,
)

__all__ = [
    "BUCKETS",
    "Edge",
    "MetricsRegistry",
    "PhaseAccumulator",
    "Span",
    "TRACER",
    "Tracer",
    "add_edge",
    "add_span",
    "build_graph",
    "causal",
    "chrome_trace",
    "export_chrome_trace",
    "flight",
    "format_phase_table",
    "metric_schema",
    "set_tracing",
    "span",
    "text_summary",
    "trace",
]
