"""The plan executor and nonblocking requests: plans running against
the POSIX baseline handle, the deferred pipeline worker, deferred
execution, error propagation, and lock cleanup on failure."""

import numpy as np
import pytest

from repro import datatypes as dt
from repro.errors import FileSystemError, IOEngineError
from repro.fs import DeviceModel, SimFileSystem, StripingConfig
from repro.fs.posix import PosixFile
from repro.fs.simfile import SimFile
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.fileview import MemDescriptor
from repro.io.request import Request
from repro.mpi import run_spmd
from repro.plan import (
    STAGE,
    Blocks,
    FileReadOp,
    FileWriteOp,
    GatherOp,
    IOPlan,
    KernelCodec,
    Piece,
    PlanExecutor,
    ScatterOp,
)


class FlakyFile(SimFile):
    """A SimFile whose n-th write raises; counts successful writes."""

    def __init__(self, *a, fail_after_writes=None, **kw):
        super().__init__(*a, **kw)
        self._writes_left = fail_after_writes
        self.writes_done = 0

    def pwrite(self, offset, data):
        if self._writes_left is not None:
            if self._writes_left == 0:
                raise FileSystemError("injected write fault")
            self._writes_left -= 1
        n = super().pwrite(offset, data)
        self.writes_done += 1
        return n

    def pwritev_blocks(self, offsets, lengths, data, pos=0):
        # One fault check and one count per extent, as for pwrite: the
        # extents ahead of the failing one land, then the fault raises.
        n = len(offsets)
        left = self._writes_left
        if left is not None and left < n:
            super().pwritev_blocks(offsets[:left], lengths[:left], data, pos)
            self.writes_done += left
            self._writes_left = 0
            raise FileSystemError("injected write fault")
        if left is not None:
            self._writes_left -= n
        res = super().pwritev_blocks(offsets, lengths, data, pos)
        self.writes_done += n
        return res

    def map_access(self, lo, hi, nbytes, write, secs, shift, copy, *args):
        # A mapped write is one write: one fault check, one count.
        if write and self._writes_left is not None:
            if self._writes_left == 0:
                raise FileSystemError("injected write fault")
            self._writes_left -= 1
        out = super().map_access(lo, hi, nbytes, write, secs, shift, copy,
                                 *args)
        if write:
            self.writes_done += 1
        return out


def flaky_fs(path="/f", **kw):
    fs = SimFileSystem()
    fs._files[path] = FlakyFile(path, DeviceModel(), StripingConfig(), **kw)
    return fs


def strided_plan(write):
    """Hand-built two-block plan: data bytes [0,8) to file [0,4)+[8,12)."""
    blocks = Blocks(np.array([0, 8], dtype=np.int64),
                    np.array([4, 4], dtype=np.int64))
    piece = Piece(STAGE, 0, 8, blocks)
    if write:
        ops = (GatherOp(0, 8), FileWriteOp(0, 12, "direct", (piece,)))
    else:
        ops = (FileReadOp(0, 12, "direct", (piece,)), ScatterOp(0, 8))
    kind = "write-independent" if write else "read-independent"
    return IOPlan(kind, 0, 8, ops, slots={STAGE: (0, 8)})


class TestPosixBaseline:
    def test_plans_run_against_the_posix_baseline(self):
        """The very ops engines emit for the simulated MPI-IO backend run
        unchanged, on the one executor, against the cursor-based POSIX
        handle."""
        simfile = SimFile("/p", DeviceModel(), StripingConfig())
        pf = PosixFile(simfile)
        ex = PlanExecutor(pf, codec=KernelCodec())

        w = np.arange(1, 9, dtype=np.uint8)
        ex.run(strided_plan(write=True),
               MemDescriptor(w, 8, dt.BYTE))
        data = simfile.contents()
        assert (data[0:4] == [1, 2, 3, 4]).all()
        assert (data[4:8] == 0).all()
        assert (data[8:12] == [5, 6, 7, 8]).all()

        r = np.zeros(8, dtype=np.uint8)
        ex.run(strided_plan(write=False),
               MemDescriptor(r, 8, dt.BYTE))
        assert (r == w).all()
        assert ex.stats.executed_file_writes == 2
        assert ex.stats.executed_file_reads == 2


class TestRequests:
    def test_bare_request_semantics(self):
        r = Request()
        assert r.test() is False
        with pytest.raises(IOEngineError, match="unstarted request"):
            r.wait()
        done = Request.completed()
        assert done.test() is True
        done.wait()
        done.wait()

    def test_execution_deferred_until_wait(self):
        """``iread_at`` plans eagerly but reads lazily: data written to
        the file after posting is what the wait observes."""
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR)
            fh.set_view(0, dt.BYTE, dt.contiguous(16, dt.BYTE))
            buf = np.zeros(16, dtype=np.uint8)
            req = fh.iread_at(0, buf)
            assert req.plan is not None
            assert (buf == 0).all()
            fs.lookup("/f").pwrite(0, np.full(16, 7, dtype=np.uint8))
            req.wait()
            assert (buf == 7).all()
            req.wait()  # idempotent
            assert req.test() is True
            fh.close()

        run_spmd(1, worker)

    def test_wait_completes_a_deferred_write_exactly_once(self):
        fs = flaky_fs()
        f = fs.lookup("/f")

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDWR)
            fh.set_view(0, dt.BYTE, dt.contiguous(8, dt.BYTE))
            req = fh.iwrite_at(0, np.full(8, 3, dtype=np.uint8))
            assert f.writes_done == 0, "write must not happen at post time"
            req.wait()
            assert f.writes_done == 1
            req.wait()
            assert req.test() is True
            assert f.writes_done == 1, "double wait must not re-execute"
            fh.close()

        run_spmd(1, worker)
        assert (fs.lookup("/f").contents()[:8] == 3).all()

    def test_pointer_advances_at_post_time(self):
        """Back-to-back ``iwrite`` calls target consecutive regions even
        though neither has executed yet (MPI nonblocking semantics)."""
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR)
            fh.set_view(0, dt.BYTE, dt.contiguous(4, dt.BYTE))
            r1 = fh.iwrite(np.full(4, 1, dtype=np.uint8))
            r2 = fh.iwrite(np.full(4, 2, dtype=np.uint8))
            r2.wait()
            r1.wait()
            fh.close()

        run_spmd(1, worker)
        data = fs.lookup("/f").contents()
        assert (data[:4] == 1).all()
        assert (data[4:8] == 2).all()

    def test_error_propagates_on_wait_and_sticks(self):
        fs = flaky_fs(fail_after_writes=0)
        f = fs.lookup("/f")

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDWR)
            fh.set_view(0, dt.BYTE, dt.contiguous(8, dt.BYTE))
            req = fh.iwrite_at(0, np.ones(8, dtype=np.uint8))
            with pytest.raises(FileSystemError, match="injected"):
                req.wait()
            # Device heals, but the request stays completed-with-error:
            # it must never re-execute.
            f._writes_left = None
            with pytest.raises(FileSystemError, match="injected"):
                req.wait()
            with pytest.raises(FileSystemError, match="injected"):
                req.test()
            assert f.writes_done == 0
            fh.close()

        run_spmd(1, worker)


class TestLockCleanup:
    def test_executor_releases_locks_when_the_device_faults(self):
        """A sieved write faults at writeback while holding its window
        lock; the executor's cleanup must leave the lock table empty."""
        fs = unmapped(flaky_fs(fail_after_writes=0))
        f = fs.lookup("/f")

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDWR)
            fh.set_view(0, dt.BYTE, dt.vector(64, 1, 2, dt.BYTE))
            fh.write_at(0, np.ones(64, dtype=np.uint8))
            fh.close()

        with pytest.raises(FileSystemError, match="injected"):
            run_spmd(1, worker)
        assert f.locks._held == {}

    def test_replayed_plan_releases_locks_when_the_device_faults(self):
        """The same fault on a *replayed* plan (a period-translated
        access running the cached steps with a file delta): the
        translated window lock is released too."""
        fs = unmapped(flaky_fs(fail_after_writes=1))
        f = fs.lookup("/f")
        box = {}

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDWR)
            fh.set_view(0, dt.BYTE, dt.vector(64, 1, 2, dt.BYTE))
            buf = np.ones(64, dtype=np.uint8)
            fh.write_at(0, buf)  # plans, caches, writes back
            with pytest.raises(FileSystemError, match="injected"):
                fh.write_at(64, buf)  # replays, faults at write-back
            box["held"] = dict(f.locks._held)
            box["stats"] = fh.engine.stats.snapshot()
            fh.close()

        run_spmd(1, worker)
        assert box["held"] == {}
        assert box["stats"]["plan_replays"] == 1
        assert box["stats"]["executed_locks"] == 2

    def test_faulting_mapped_write_holds_no_lock(self):
        """Twin on the mapped path: the fault propagates from the one
        mapped write, and there was never a lock to release."""
        fs = flaky_fs(fail_after_writes=1)
        f = fs.lookup("/f")
        box = {}

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDWR)
            fh.set_view(0, dt.BYTE, dt.vector(64, 1, 2, dt.BYTE))
            buf = np.ones(64, dtype=np.uint8)
            fh.write_at(0, buf)
            with pytest.raises(FileSystemError, match="injected"):
                fh.write_at(64, buf)  # replays, faults
            box["stats"] = fh.engine.stats.snapshot()
            fh.close()

        run_spmd(1, worker)
        assert f.locks._held == {}
        assert f.writes_done == 1
        assert box["stats"]["plan_replays"] == 1
        assert box["stats"]["executed_locks"] == 0


class TestCompiledPlans:
    """A plan is lowered once to a step tuple memoized on the plan;
    every later run — any file delta — runs those very steps."""

    def test_cached_plan_is_lowered_once(self, monkeypatch):
        from repro.plan import executor

        lowered = []
        real = executor._lower_op
        monkeypatch.setattr(executor, "_lower_op",
                            lambda op: lowered.append(op) or real(op))
        fs = SimFileSystem()
        box = {}

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR)
            fh.set_view(0, dt.BYTE, dt.vector(8, 8, 16, dt.BYTE))
            bufs = [np.full(64, k + 1, dtype=np.uint8) for k in range(6)]
            fh.write_at(0, bufs[0])
            plan, delta = fh.engine.planner.plan_independent_bound(
                0, 64, write=True)
            assert delta == 0
            low = plan.lowered
            assert low is not None and len(low) == len(plan.ops)
            n_lowered = len(lowered)
            assert n_lowered >= len(plan.ops)
            for k in range(1, 6):  # file deltas of 128 * k bytes
                fh.write_at(64 * k, bufs[k])
                assert plan.lowered is low
            for k in range(6):
                got = np.zeros(64, dtype=np.uint8)
                fh.read_at(64 * k, got)
                assert (got == k + 1).all(), k
            box["relowered"] = [op for op in lowered[n_lowered:]
                                if op in plan.ops]
            box["stats"] = fh.engine.stats.snapshot()
            fh.close()

        run_spmd(1, worker)
        assert box["relowered"] == []
        assert box["stats"]["plan_replays"] >= 10

    def test_sieved_write_buckets_sum_within_wall_time(self):
        """Chained stamps bill every op of a sieved write: ``lock``,
        ``file_io`` and the pair copy's ``pack`` are each positive, and
        the buckets together never exceed the call's wall time."""
        import time

        fs = unmapped(SimFileSystem())
        box = {}

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR)
            fh.set_view(0, dt.BYTE, dt.vector(8, 8, 16, dt.BYTE))
            mt = dt.vector(8, 8, 16, dt.BYTE)
            buf = np.arange(128, dtype=np.uint8)
            fh.write_at(0, buf, 1, mt)
            phases = fh.engine.stats.phases
            phases.reset()
            t0 = time.perf_counter()
            fh.write_at(64, buf, 1, mt)  # a replayed sieved write
            box["wall"] = time.perf_counter() - t0
            box["phases"] = dict(phases.snapshot())
            box["locks"] = fh.engine.stats.snapshot()["executed_locks"]
            fh.close()

        run_spmd(1, worker)
        ph = box["phases"]
        assert box["locks"] == 2
        for bucket in ("lock", "file_io", "pack"):
            assert ph[f"phase_{bucket}"] > 0, bucket
        assert sum(ph.values()) <= box["wall"]

    def test_mapped_write_buckets_sum_within_wall_time(self):
        """Twin on the mapped path: the one mapped op bills ``file_io``
        and its pair copy ``pack``; no ``lock`` time, and the buckets
        together never exceed the call's wall time."""
        import time

        fs = SimFileSystem()
        box = {}

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR)
            fh.set_view(0, dt.BYTE, dt.vector(8, 8, 16, dt.BYTE))
            mt = dt.vector(8, 8, 16, dt.BYTE)
            buf = np.arange(128, dtype=np.uint8)
            fh.write_at(0, buf, 1, mt)
            phases = fh.engine.stats.phases
            phases.reset()
            t0 = time.perf_counter()
            fh.write_at(64, buf, 1, mt)  # a replayed mapped write
            box["wall"] = time.perf_counter() - t0
            box["phases"] = dict(phases.snapshot())
            box["locks"] = fh.engine.stats.snapshot()["executed_locks"]
            fh.close()

        run_spmd(1, worker)
        ph = box["phases"]
        assert box["locks"] == 0
        assert ph["phase_lock"] == 0
        for bucket in ("file_io", "pack"):
            assert ph[f"phase_{bucket}"] > 0, bucket
        assert sum(ph.values()) <= box["wall"]

    def test_set_info_after_a_replay_rebuilds_the_plan(self):
        """A hint change after the replay table is warm: the next access
        plans afresh under the new hints instead of replaying."""
        fs = SimFileSystem()
        box = {}

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR)
            fh.set_view(0, dt.BYTE, dt.vector(64, 1, 2, dt.BYTE))
            buf = np.ones(64, dtype=np.uint8)
            fh.write_at(0, buf)
            fh.write_at(64, buf)
            before = fh.engine.stats.snapshot()
            fh.set_info({"ds_write": "false"})
            fh.write_at(128, buf)
            after = fh.engine.stats.snapshot()
            box["s"] = (before, after)
            fh.close()

        run_spmd(1, worker)
        before, after = box["s"]
        assert before["plan_replays"] == 1
        assert after["plan_replays"] == 1
        assert after["plans_built"] == before["plans_built"] + 1
        assert after["executed_locks"] == before["executed_locks"]


class TestDeferredWorker:
    """The deferred file-I/O worker in isolation: FIFO order, drain
    semantics, and prompt failure."""

    def test_fifo_order_and_drain(self):
        from repro.plan.pipeline import DeferredWorker, FileJob

        w = DeferredWorker()
        order = []
        for i in range(8):
            w.submit(FileJob(lambda i=i: order.append(i), "read", i, 16))
        done = w.drain(0)
        w.close()
        assert order == list(range(8))
        assert [j.round_index for j in done] == list(range(8))
        assert all(j.seconds >= 0 for j in done)

    def test_drain_keep_leaves_work_in_flight(self):
        import threading

        from repro.plan.pipeline import DeferredWorker, FileJob

        gate = threading.Event()
        w = DeferredWorker()
        w.submit(FileJob(lambda: None, "read", 0, 4))
        w.submit(FileJob(gate.wait, "read", 1, 4))
        done = w.drain(keep=1)  # job 0 done; job 1 may still block
        assert [j.round_index for j in done] == [0]
        gate.set()
        assert [j.round_index for j in w.drain(0)] == [1]
        w.close()

    def test_error_reraised_at_drain_and_queue_dropped(self):
        from repro.plan.pipeline import DeferredWorker, FileJob

        def boom():
            raise OSError("disk on fire")

        ran = []
        w = DeferredWorker()
        w.submit(FileJob(boom, "write", 0, 4))
        w.submit(FileJob(lambda: ran.append(1), "write", 1, 4))
        with pytest.raises(OSError, match="disk on fire"):
            w.drain(0)
        # Queued work behind the failure was abandoned, and later
        # submits surface the stored error instead of queueing.
        assert ran == []
        with pytest.raises(OSError):
            w.submit(FileJob(lambda: None, "write", 2, 4))
        w.close(raise_error=False)

    def test_close_can_swallow_error(self):
        from repro.plan.pipeline import DeferredWorker, FileJob

        def boom():
            raise OSError("late fault")

        w = DeferredWorker()
        w.submit(FileJob(boom, "write", 0, 4))
        assert w.close(raise_error=False) == []

    def test_inflight_bytes_tracked(self):
        import threading

        from repro.plan.pipeline import DeferredWorker, FileJob

        gate = threading.Event()
        w = DeferredWorker()
        w.submit(FileJob(gate.wait, "read", 0, 100))
        w.submit(FileJob(lambda: None, "read", 1, 50))
        assert w.peak_inflight_bytes == 150
        gate.set()
        w.drain(0)
        w.close()


def _count_calls(fn, *args) -> int:
    """Calls of ``repro`` functions ``fn(*args)`` makes on this thread
    (as ``benchmarks/check_perf_budget.py --calls`` counts them)."""
    import os
    import sys

    import repro

    home = os.path.dirname(repro.__file__) + os.sep
    n = 0

    def prof(frame, event, arg):
        nonlocal n
        if event == "call" and frame.f_code.co_filename.startswith(home):
            n += 1

    sys.setprofile(prof)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return n


class TestIdleSettle:
    def test_replay_after_pipelined_collective_costs_the_same(self):
        """A handle's pipelined collective leaves nothing for its later
        independent runs to settle: a replayed sieved ``write_at``
        makes as many calls after it as before it."""
        from repro.io.hints import Hints

        fs = unmapped(SimFileSystem())
        hints = Hints(cb_pipeline="on", cb_buffer_size=1024)

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           hints=hints)
            fh.set_view(comm.rank * 8, dt.BYTE,
                        dt.vector(512, 8, 8 * comm.size, dt.BYTE))
            small = np.full(64, comm.rank + 1, dtype=np.uint8)
            counts = []

            def measure():
                # One rank at a time: a sieved write's range lock must
                # never wait on the other rank's.
                for r in range(comm.size):
                    if r == comm.rank:
                        fh.write_at(0, small)  # warm: plan, then replay
                        counts.append(_count_calls(fh.write_at, 0, small))
                    comm.barrier()

            measure()
            before = fh.engine.stats.snapshot()["pipelined_file_ops"]
            fh.write_at_all(0, np.full(4096, comm.rank + 1,
                                       dtype=np.uint8))
            assert (fh.engine.stats.snapshot()["pipelined_file_ops"]
                    > before)
            measure()
            fh.close()
            return counts

        for before, after in run_spmd(2, worker):
            assert before == after


class TestDeviceAccounting:
    """The executor bills the device seconds the backend charged for
    each of its file ops: over any run of independent accesses,
    ``device_sync_seconds`` grows exactly as the file's device time."""

    @pytest.mark.parametrize("engine", ["listless", "list_based"])
    @pytest.mark.parametrize("sieve", [True, False])
    @pytest.mark.parametrize("ndisks", [1, 4])
    def test_sync_seconds_equal_file_device_time(self, engine, sieve,
                                                 ndisks):
        fs = SimFileSystem(
            device=DeviceModel(read_bandwidth=3e8, write_bandwidth=2e8,
                               latency=7e-6),
            striping=StripingConfig(stripe_size=64, ndisks=ndisks))
        box = {}

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine,
                           info={"ind_rd_buffer_size": "100",
                                 "ind_wr_buffer_size": "100",
                                 "ds_read": str(sieve).lower(),
                                 "ds_write": str(sieve).lower()})
            fh.set_view(5, dt.BYTE, dt.vector(16, 4, 9, dt.BYTE))
            f = fs.lookup("/f")
            st = fh.engine.stats.plan
            t0, s0 = f.stats.sim_time, st.device_sync_seconds
            mt = dt.vector(32, 6, 8, dt.BYTE)
            for k in range(3):
                fh.write_at(k * 64 + 3, np.arange(256, dtype=np.uint8),
                            1, mt)
                fh.read_at(k * 64 + 3, np.zeros(256, np.uint8), 1, mt)
                fh.write_at(k * 64, np.arange(40, dtype=np.uint8))
            box["file"] = f.stats.sim_time - t0
            box["sync"] = st.device_sync_seconds - s0
            fh.close()

        run_spmd(1, worker)
        assert box["file"] > 0
        assert box["sync"] == pytest.approx(box["file"], rel=1e-12)
