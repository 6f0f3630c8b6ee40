"""The unified metrics registry: labeling, scoping, schema, reset."""

import gc

import numpy as np
import pytest

from repro import datatypes as dt
from repro.fs import SimFileSystem
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.mpi import run_spmd
from repro.obs import metrics
from repro.obs.metrics import metric_schema
from repro.session import IOSession, current

FT = dt.vector(64, 8, 16, dt.BYTE)


def open_and_write(engine, fs, path="/f", nprocs=2, snap_box=None):
    """Collective write through ``engine``, snapshotting the registry
    inside the worker (engine entries are weakly referenced, so they
    are only visible while the handles are alive)."""

    def worker(comm):
        fh = File.open(comm, fs, path, MODE_CREATE | MODE_RDWR,
                       engine=engine)
        fh.set_view(comm.rank * 8, dt.BYTE, FT)
        fh.write_at_all(0, np.zeros(256, dtype=np.uint8))
        if snap_box is not None and comm.rank == 0:
            snap_box["snap"] = metrics.snapshot()
        comm.barrier()
        fh.close()

    run_spmd(nprocs, worker)


class TestRegistration:
    def test_engine_labels(self):
        fs = SimFileSystem()
        box = {}
        open_and_write("listless", fs, snap_box=box)
        engines = box["snap"]["engines"]
        labels = [(e["path"], e["engine"], e["rank"]) for e in engines]
        assert ("/f", "listless", 0) in labels
        assert ("/f", "listless", 1) in labels

    def test_file_stats_registered(self):
        fs = SimFileSystem()
        box = {}
        open_and_write("listless", fs, snap_box=box)
        files = {f["path"]: f["counters"] for f in box["snap"]["files"]}
        assert files["/f"]["n_writes"] > 0

    def test_dead_engines_pruned(self):
        fs = SimFileSystem()
        open_and_write("listless", fs, path="/gone")
        gc.collect()  # engine<->file handle cycles need the collector
        snap = metrics.snapshot()
        assert not any(e["path"] == "/gone" for e in snap["engines"])


class TestScoping:
    """The satellite bug fix: process-global counters are reported once,
    under ``global``, never merged into per-engine snapshots."""

    def test_engine_snapshot_has_no_global_keys(self):
        fs = SimFileSystem()
        box = {}
        open_and_write("listless", fs, snap_box=box)
        for e in box["snap"]["engines"]:
            for k in e["counters"]:
                assert not k.startswith(("blockprog_", "kernel_path_")), k

    def test_no_double_report_across_two_files(self):
        """With two files open, the global counters appear exactly once
        in the snapshot — the old per-engine merge reported them per
        open file."""
        fs = SimFileSystem()
        box = {}

        def worker(comm):
            fh_a = File.open(comm, fs, "/a", MODE_CREATE | MODE_RDWR,
                             engine="listless")
            fh_b = File.open(comm, fs, "/b", MODE_CREATE | MODE_RDWR,
                             engine="listless")
            for fh in (fh_a, fh_b):
                fh.set_view(comm.rank * 8, dt.BYTE, FT)
                fh.write_at_all(0, np.zeros(256, dtype=np.uint8))
            if comm.rank == 0:
                box["snap"] = metrics.snapshot()
            comm.barrier()
            fh_a.close()
            fh_b.close()

        run_spmd(2, worker)
        snap = box["snap"]
        assert len(snap["engines"]) >= 4  # 2 files x 2 ranks
        assert "blockprog_translations" in snap["global"]
        # Exactly one global section regardless of open-file count, and
        # no blockprog_/kernel_path_ keys leaked into engine entries.
        assert "blockprog_" not in str(snap["engines"])

    def test_reset_clears_global_counters(self):
        fs = SimFileSystem()
        stats = current().prog_stats
        stats.reset()
        open_and_write("listless", fs)
        assert stats.translations + stats.bypasses > 0
        metrics.reset()
        snap = metrics.snapshot()
        assert all(v == 0 for v in snap["global"].values())

    def test_reset_clears_live_engine_and_file_stats(self):
        fs = SimFileSystem()
        checks = {}

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine="listless")
            fh.set_view(0, dt.BYTE, FT)
            fh.write_at_all(0, np.zeros(256, dtype=np.uint8))
            eng = fh.engine
            checks["before"] = (eng.stats.snapshot(),
                                eng.stats.phases.total)
            metrics.reset()
            checks["after"] = (eng.stats.snapshot(),
                               eng.stats.phases.total,
                               fs.lookup("/f").stats.snapshot()["n_writes"])
            fh.close()

        run_spmd(1, worker)
        counters, phase_total = checks["before"]
        assert any(v > 0 for v in counters.values())
        assert phase_total > 0
        counters, phase_total, n_writes = checks["after"]
        assert all(v == 0 for v in counters.values())
        assert phase_total == 0.0 and n_writes == 0


class TestSchema:
    def test_both_engines_same_schema(self):
        """The unified surface promises one metric schema regardless of
        engine — dashboards must not care which engine produced a run."""
        fs = SimFileSystem()
        boxes = {}
        for engine in ("list_based", "listless"):
            boxes[engine] = {}
            open_and_write(engine, fs, path=f"/{engine}",
                           snap_box=boxes[engine])
        schemas = {
            eng: metric_schema(boxes[eng]["snap"])["engines"][eng]
            for eng in boxes
        }
        assert schemas["list_based"] == schemas["listless"]

    def test_snapshot_deterministically_sorted(self):
        fs = SimFileSystem()
        box = {}
        open_and_write("list_based", fs, snap_box=box)
        snap = box["snap"]
        labels = [(e["path"], e["engine"], e["rank"])
                  for e in snap["engines"]]
        assert labels == sorted(labels)
        for e in snap["engines"]:
            assert list(e["counters"]) == sorted(e["counters"])
            assert list(e["phases"]) == sorted(e["phases"])
        assert list(snap["global"]) == sorted(snap["global"])

    def test_phase_keys_in_snapshot(self):
        fs = SimFileSystem()
        box = {}
        open_and_write("listless", fs, snap_box=box)
        for e in box["snap"]["engines"]:
            assert set(e["phases"]) == {
                "phase_exchange", "phase_file_io", "phase_lock",
                "phase_pack", "phase_pipeline_io", "phase_plan",
                "phase_ship", "phase_sync", "phase_unpack",
            }


class TestIsolatedRegistry:
    def test_clear_forgets_registrations(self):
        reg = IOSession().metrics

        class FakeStats:
            def snapshot(self):
                return {"n": 1}

        st = FakeStats()
        reg.register_file("/x", st)
        assert reg.snapshot()["files"]
        reg.clear()
        assert reg.snapshot()["files"] == []

    def test_weakref_pruning(self):
        reg = IOSession().metrics

        class FakeStats:
            def snapshot(self):
                return {"n": 1}

        st = FakeStats()
        reg.register_file("/x", st)
        del st
        gc.collect()
        assert reg.snapshot()["files"] == []
