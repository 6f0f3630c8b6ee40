"""The tracer: span recording, the zero-cost off path, export formats."""

import json

import numpy as np
import pytest

from repro import datatypes as dt
from repro.fs import SimFileSystem
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.hints import Hints
from repro.mpi import run_spmd
from repro.obs import chrome_trace, export_chrome_trace, text_summary, trace
from repro.obs.trace import _NOOP, Tracer


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts with tracing off and an empty ring."""
    prev = trace.set_tracing(False)
    trace.TRACER.clear()
    yield
    trace.set_tracing(prev)
    trace.TRACER.clear()


class TestOffPath:
    def test_span_returns_shared_noop(self):
        # The off path must allocate nothing: every call returns the
        # same singleton context manager.
        a = trace.span("x", bytes=4)
        b = trace.span("y")
        assert a is _NOOP and b is _NOOP

    def test_no_spans_recorded_when_off(self):
        with trace.span("off.span"):
            pass
        trace.add_span("off.manual", trace.now())
        assert len(trace.TRACER) == 0

    def test_engine_run_records_nothing_when_off(self):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine="listless")
            fh.set_view(0, dt.BYTE, dt.vector(32, 4, 8, dt.BYTE))
            fh.write_at_all(0, np.zeros(128, dtype=np.uint8))
            fh.close()

        run_spmd(2, worker)
        assert len(trace.TRACER) == 0

    def test_set_tracing_returns_previous(self):
        assert trace.set_tracing(True) is False
        assert trace.set_tracing(False) is True
        assert not trace.enabled()


class TestRecording:
    def test_span_records_name_and_args(self):
        trace.set_tracing(True)
        with trace.span("unit.test", bytes=17):
            pass
        spans = trace.TRACER.spans()
        assert len(spans) == 1
        s = spans[0]
        assert s.name == "unit.test"
        assert s.args == {"bytes": 17}
        assert s.duration >= 0.0

    def test_nesting_depth(self):
        trace.set_tracing(True)
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        by_name = {s.name: s for s in trace.TRACER.spans()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1

    def test_manual_add_span(self):
        trace.set_tracing(True)
        t0 = trace.now()
        trace.add_span("manual.stamp", t0, bytes=3)
        (s,) = trace.TRACER.spans()
        assert s.name == "manual.stamp" and s.args == {"bytes": 3}

    def test_ring_is_bounded(self):
        tr = Tracer(max_spans_per_rank=4)
        for i in range(10):
            tr.add(f"s{i}", trace.now(), rank=0)
        spans = tr.spans()
        assert len(spans) == 4
        assert [s.name for s in spans] == ["s6", "s7", "s8", "s9"]

    def test_clear_restarts_epoch(self):
        trace.set_tracing(True)
        with trace.span("a"):
            pass
        trace.TRACER.clear()
        assert len(trace.TRACER) == 0
        assert trace.TRACER.ranks() == []

    def test_per_rank_rings_under_spmd(self):
        trace.set_tracing(True)
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine="listless")
            fh.set_view(0, dt.BYTE, dt.vector(32, 4, 8, dt.BYTE))
            fh.write_at_all(0, np.zeros(128, dtype=np.uint8))
            fh.close()

        run_spmd(4, worker)
        assert trace.TRACER.ranks() == [0, 1, 2, 3]
        for r in range(4):
            names = {s.name for s in trace.TRACER.spans(rank=r)}
            assert "spmd.rank" in names
            assert "listless.write_collective" in names

    def test_env_parsing(self, monkeypatch):
        from repro.obs.trace import _env_trace_setting

        for v, want in (("1", True), ("0", False), ("false", False),
                        ("off", False), ("yes", True), ("", False)):
            monkeypatch.setenv("REPRO_TRACE", v)
            assert _env_trace_setting() is want, v


class TestObsTraceHint:
    def test_hint_enables_tracing(self):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine="listless",
                           hints=Hints(obs_trace=True))
            fh.write_at(0, np.zeros(16, dtype=np.uint8))
            fh.close()

        run_spmd(1, worker)
        assert trace.enabled()
        assert len(trace.TRACER) > 0

    def test_hint_coerced_from_info_mapping(self):
        h = Hints.from_mapping({"obs_trace": "true"})
        assert h.obs_trace is True
        assert Hints().obs_trace is False


class TestExport:
    def _traced_run(self, nprocs=2):
        trace.set_tracing(True)
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine="listless")
            fh.set_view(0, dt.BYTE, dt.vector(16, 4, 8, dt.BYTE))
            fh.write_at_all(0, np.zeros(64, dtype=np.uint8))
            fh.close()

        run_spmd(nprocs, worker)

    def test_chrome_trace_structure(self):
        self._traced_run()
        doc = chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        evs = doc["traceEvents"]
        xs = [e for e in evs if e["ph"] == "X"]
        ms = [e for e in evs if e["ph"] == "M"]
        assert xs and ms
        # One name + one sort-index metadata record per rank track.
        assert {e["tid"] for e in xs} == {0, 1}
        assert len(ms) == 4
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert e["cat"] == e["name"].split(".", 1)[0]

    def test_export_file_is_loadable_json(self, tmp_path):
        self._traced_run()
        path = tmp_path / "trace.json"
        n = export_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        assert n == sum(
            1 for e in doc["traceEvents"] if e["ph"] == "X"
        ) > 0

    def test_text_summary_aggregates(self):
        self._traced_run()
        out = text_summary()
        assert "spmd.rank" in out
        assert "count" in out and "total [ms]" in out

    def test_text_summary_hint_when_empty(self):
        assert "no spans" in text_summary(tracer=Tracer())


class TestCategories:
    """REPRO_TRACE=exec,fs-style narrowing: only named categories (the
    span-name prefix before the first dot) record; everything else takes
    the off path."""

    def test_filter_records_only_matching(self):
        trace.set_tracing(True, categories=("exec",))
        with trace.span("exec.round"):
            pass
        with trace.span("ff.pack"):
            pass
        trace.add_span("ff.unpack", trace.now())
        trace.add_span("exec.op", trace.now())
        assert {s.name for s in trace.TRACER.spans()} == {
            "exec.round", "exec.op"
        }

    def test_filtered_span_takes_noop_path(self):
        trace.set_tracing(True, categories=("exec",))
        assert trace.span("ff.pack") is _NOOP
        assert trace.span("exec.x") is not _NOOP

    def test_set_tracing_round_trips_categories(self):
        trace.set_tracing(True, categories=("exec", "fs"))
        prev = trace.set_tracing(False)
        assert prev == frozenset({"exec", "fs"})
        assert trace.set_tracing(prev) is False
        assert trace.TRACE_ON == frozenset({"exec", "fs"})

    def test_comma_string_accepted(self):
        trace.set_tracing("aggregation, exec")
        assert trace.TRACE_ON == frozenset({"aggregation", "exec"})

    def test_env_comma_list(self, monkeypatch):
        from repro.obs.trace import _env_trace_setting

        monkeypatch.setenv("REPRO_TRACE", "exec, fs")
        assert _env_trace_setting() == frozenset({"exec", "fs"})

    def test_hot_kernel_stays_dark_when_ff_filtered(self):
        """The ff_pack hot guard is tri-state aware: with category
        ``ff`` excluded the kernel records nothing at all."""
        from repro.core.ff_pack import ff_pack

        src = np.arange(64, dtype=np.uint8)
        dst = np.zeros(64, dtype=np.uint8)
        vt = dt.vector(8, 4, 8, dt.BYTE)
        trace.set_tracing(True, categories=("exec",))
        assert ff_pack(src, 1, vt, 0, dst, 32) == 32
        assert len(trace.TRACER) == 0
        trace.set_tracing(True)
        assert ff_pack(src, 1, vt, 0, dst, 32) == 32
        assert {s.name for s in trace.TRACER.spans()} == {"ff.pack"}


class TestEdgesAndOverflow:
    def test_add_edge_off_is_noop(self):
        trace.add_edge("send", (0, 1, 5, 0), peer=1)
        assert trace.TRACER.edges() == []

    def test_edges_survive_category_narrowing(self):
        # Edges feed the causal graph; narrowing span categories must
        # not drop them.
        trace.set_tracing(True, categories=("exec",))
        trace.add_edge("send", (0, 1, 5, 0), peer=1)
        (e,) = trace.TRACER.edges()
        assert e.kind == "send" and e.key == (0, 1, 5, 0)

    def test_snapshot_counts_dropped_spans(self):
        tr = Tracer(max_spans_per_rank=2)
        for i in range(5):
            tr.add(f"s{i}", trace.now(), rank=0)
        snap = tr.snapshot()
        assert snap["spans"][0] == 2
        assert snap["spans_dropped"][0] == 3
        assert tr.dropped(0) == 3
        assert tr.dropped() == {0: 3}

    def test_flow_events_for_matched_edge_pairs(self):
        trace.set_tracing(True)
        t = trace.now()
        trace.TRACER.edge("send", (0, 1, 7, 0), peer=1, rank=0,
                          t0=t, t1=t)
        trace.TRACER.edge("recv", (0, 1, 7, 0), peer=0, rank=1,
                          t0=t, t1=t + 1e-4)
        trace.TRACER.edge("recv", (3, 1, 9, 0), peer=3, rank=1,
                          t0=t, t1=t)  # unmatched: no flow
        doc = chrome_trace()
        flows = [e for e in doc["traceEvents"] if e.get("cat") == "flow"]
        assert len(flows) == 2
        s, f = flows
        assert s["ph"] == "s" and s["tid"] == 0
        assert f["ph"] == "f" and f["tid"] == 1 and f["bp"] == "e"
        assert s["id"] == f["id"]
        assert f["ts"] >= s["ts"]

    def test_export_state_ships_ids_edges_and_dropped(self):
        tr = Tracer(max_spans_per_rank=2)
        t = trace.now()
        for i in range(3):
            tr.add(f"s{i}", t, rank=1)
        tr.edge("send", (1, 0, 5, 0), peer=0, rank=1, t0=t, t1=t)
        sink = Tracer()
        sink.ingest_state(tr.export_state())
        assert [s.name for s in sink.spans()] == ["s1", "s2"]
        assert sink.spans()[0].sid >= 0
        (e,) = sink.edges()
        assert e.kind == "send" and e.rank == 1 and e.peer == 0
        assert sink.dropped(1) == 1
