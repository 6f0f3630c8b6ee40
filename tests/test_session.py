"""IOSession scoping: isolation, defaults, and programs keyed by layout.

The invariants of session scoping:

* a process-default session is always active — in every thread, with
  nothing activated — so every layer has exactly one place to look;
* an active session sees *only* its own counters, program store,
  metrics registry and flight recorder;
* compiled programs are keyed by layout, so two files with identical
  view geometry share them, and one file's ``set_view`` leaves the
  other's programs cached.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import datatypes as dt
from repro.core import blockprog
from repro.core.blockprog import blockprog_stats, program_for
from repro.core.ff_pack import top_dataloop
from repro.core.gather import kernel_path_counts
from repro.fs import SimFileSystem
from repro.io import MODE_CREATE, MODE_RDWR
from repro.io.file_handle import File
from repro.mpi import run_spmd
from repro.obs import flight, metrics
from repro.session import IOSession, current


#: The process-default session, active wherever no other one is.
DEFAULT = current()


def _reset_default():
    blockprog.clear()
    DEFAULT.prog_stats.reset()
    DEFAULT.kernel_paths.reset()


@pytest.fixture(autouse=True)
def _fresh():
    _reset_default()
    yield
    _reset_default()


def _ragged():
    return dt.resized(dt.indexed([3, 1, 7, 2], [0, 5, 9, 20], dt.BYTE),
                      0, 32)


class TestActivation:
    def test_default_session_by_default(self):
        assert isinstance(DEFAULT, IOSession)
        DEFAULT.kernel_paths.counts[0] = 3
        DEFAULT.prog_stats.misses = 4
        assert kernel_path_counts()["kernel_path_single"] == 3
        assert blockprog_stats()["blockprog_misses"] == 4
        assert metrics.snapshot()["global"]["blockprog_misses"] == 4
        flight.note("default", rank=0)
        assert DEFAULT.flight.export_state()["crumbs"][0][-1][1] \
            == "default"
        DEFAULT.flight.clear()

    def test_with_activates_and_restores(self):
        s = IOSession("t")
        with s:
            assert current() is s
            s.prog_stats.misses = 5
            assert blockprog_stats()["blockprog_misses"] == 5
            assert metrics.snapshot()["global"]["blockprog_misses"] == 5
            flight.note("inner", rank=0)
            assert s.flight.export_state()["crumbs"][0][0][1] == "inner"
        assert current() is DEFAULT

    def test_reentrant(self):
        a, b = IOSession("a"), IOSession("b")
        with a:
            with b:
                assert current() is b
            assert current() is a
        assert current() is DEFAULT

    def test_new_threads_start_in_the_default(self):
        import threading

        s = IOSession("t")
        seen = []
        with s:
            th = threading.Thread(
                target=lambda: seen.append(current()))
            th.start()
            th.join()
        assert seen == [DEFAULT]


    def test_parts_built_once_under_racing_threads(self):
        """Threads racing to a new session's first access all get the
        same parts, and the registry reads the session's counters."""
        import sys
        import threading

        names = ("kernel_paths", "prog_stats", "programs", "flight",
                 "metrics")
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                s = IOSession("race")
                go = threading.Barrier(8)
                seen = []

                def touch(i):
                    go.wait(timeout=10)
                    name = names[i % len(names)]
                    seen.append((name, getattr(s, name)))

                ths = [threading.Thread(target=touch, args=(i,))
                       for i in range(8)]
                for th in ths:
                    th.start()
                for th in ths:
                    th.join(timeout=10)
                assert not any(th.is_alive() for th in ths)
                assert len(seen) == 8
                for name, part in seen:
                    assert part is getattr(s, name)
                s.prog_stats.misses = 9
                assert s.metrics.snapshot()["global"][
                    "blockprog_misses"] == 9
        finally:
            sys.setswitchinterval(old)


_FIRST_IMPORTS = ("repro._ctx", "repro.session", "repro.core.gather",
                  "repro.core.blockprog", "repro.obs.flight",
                  "repro.obs.metrics")


class TestImportOrder:
    @pytest.mark.parametrize("module", _FIRST_IMPORTS)
    def test_default_session_whatever_is_imported_first(self, module):
        """Building the default session imports none of the layers that
        read it, so any of them can be the first import of a process,
        and a new thread sees the default with nothing activated."""
        import os
        import subprocess
        import sys

        import repro

        code = (
            f"import {module}, threading\n"
            "from repro.session import IOSession, current\n"
            "seen = []\n"
            "t = threading.Thread(target=lambda: seen.append(current()))\n"
            "t.start(); t.join()\n"
            "assert isinstance(seen[0], IOSession), seen\n"
            "assert seen[0].metrics.snapshot()['global']\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=60)


class TestCounterIsolation:
    def test_program_cache_and_stats_are_per_session(self):
        loop = top_dataloop(_ragged(), 64)
        a, b = IOSession("a"), IOSession("b")
        with a:
            program_for(loop, 0, 10)
            program_for(loop, 0, 10)
        with b:
            program_for(loop, 0, 10)
        assert a.prog_stats.misses == 1 and a.prog_stats.hits == 1
        assert b.prog_stats.misses == 1 and b.prog_stats.hits == 0
        # The process-default store and counters never moved.
        assert DEFAULT.prog_stats.misses == 0
        assert len(DEFAULT.programs) == 0

    def test_session_snapshot_global_reads_session(self):
        loop = top_dataloop(_ragged(), 64)
        s = IOSession("t")
        with s:
            program_for(loop, 0, 10)
            snap = metrics.snapshot()
        assert snap["global"]["blockprog_misses"] == 1
        # Process-default snapshot stays untouched.
        assert metrics.snapshot()["global"]["blockprog_misses"] == 0

    def test_session_reset_leaves_process_counters(self):
        loop = top_dataloop(_ragged(), 64)
        DEFAULT.prog_stats.misses = 7
        s = IOSession("t")
        with s:
            program_for(loop, 0, 10)
            metrics.reset()
        assert s.prog_stats.misses == 0
        assert DEFAULT.prog_stats.misses == 7

    def test_flight_recorders_are_separate(self):
        s = IOSession("t")
        with s:
            flight.note("inner", rank=0)
        flight.note("outer", rank=0)
        inner = s.flight.export_state()["crumbs"]
        outer = DEFAULT.flight.export_state()["crumbs"]
        assert [c[1] for c in inner[0]] == ["inner"]
        assert any(c[1] == "outer" for c in outer[0])
        DEFAULT.flight.clear()


class TestLayoutKeying:
    def _open_two(self, comm, fs):
        fa = File.open(comm, fs, "/a", MODE_CREATE | MODE_RDWR)
        fb = File.open(comm, fs, "/b", MODE_CREATE | MODE_RDWR)
        ft = dt.vector(8, 2, 4, dt.BYTE)
        fa.set_view(0, dt.BYTE, ft)
        fb.set_view(0, dt.BYTE, ft)
        return fa, fb

    def test_same_geometry_two_files_share_programs(self):
        """Identical fileviews on two open files share their compiled
        block programs, and one file's ``set_view`` leaves the other
        hitting."""
        fs = SimFileSystem()
        out = {}

        def worker(comm):
            s = IOSession("t")
            with s:
                fa, fb = self._open_two(comm, fs)
                buf = np.arange(16, dtype=np.uint8)
                fa.write_at(0, buf)
                compiled = len(s.programs)
                fb.write_at(0, buf)
                # Same geometry, second file: served by /a's programs.
                out["b_compiles"] = len(s.programs) - compiled
                s.prog_stats.reset()
                fa.set_view(0, dt.BYTE, dt.vector(8, 2, 4, dt.BYTE))
                fb.write_at(0, buf)
                out["b_misses_after_a_set_view"] = s.prog_stats.misses
                fa.close(), fb.close()

        run_spmd(1, worker)
        assert out["b_compiles"] == 0
        assert out["b_misses_after_a_set_view"] == 0

    def test_fresh_equal_views_compile_nothing(self):
        """A second and a third file, each with a freshly built equal
        view, compile no store program on their first accesses."""
        fs = SimFileSystem()
        compiles = []

        def worker(comm):
            s = IOSession("t")
            with s:
                for path in ("/a", "/b", "/c"):
                    n0 = len(s.programs)
                    fh = File.open(comm, fs, path, MODE_CREATE | MODE_RDWR)
                    fh.set_view(0, dt.BYTE, dt.vector(8, 8, 16, dt.BYTE))
                    buf = np.arange(64, dtype=np.uint8)
                    fh.write_at(0, buf)
                    got = np.zeros(64, dtype=np.uint8)
                    fh.read_at(0, got)
                    assert (got == buf).all()
                    fh.write_at(8, buf)
                    fh.close()
                    compiles.append(len(s.programs) - n0)

        run_spmd(1, worker)
        assert compiles == [2, 0, 0]


class TestSessionedWorlds:
    def test_run_spmd_activates_session_in_ranks(self):
        s = IOSession("w")

        def worker(comm):
            return current() is s

        assert all(run_spmd(2, worker, session=s))

    def test_file_open_pins_session(self):
        fs = SimFileSystem()
        s = IOSession("w")

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR)
            fh.write_at(0, np.zeros(8, np.uint8))
            fh.close()

        run_spmd(1, worker, session=s)
        snap = s.metrics.snapshot()
        assert any(f["path"] == "/f" for f in snap["files"])
        assert not any(
            f["path"] == "/f" for f in metrics.snapshot()["files"]
        )

    def test_abort_dumps_session_recorder(self, tmp_path, monkeypatch):
        import json

        s = IOSession("w")
        out = tmp_path / "flight.json"
        monkeypatch.setenv("REPRO_FLIGHT", str(out))

        def worker(comm):
            flight.note("pre_crash", rank=comm.rank)
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.barrier()

        with pytest.raises(RuntimeError):
            run_spmd(2, worker, session=s)
        rec = json.loads(out.read_text())
        crumbs = [c[1] for r in rec["ranks"].values()
                  for c in r["breadcrumbs"]]
        assert "pre_crash" in crumbs
