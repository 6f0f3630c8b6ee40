"""The multi-tenant IOP service: admission, batching, the server.

Layered like the subsystem itself:

* :class:`TestAdmission` — the controller alone (queue-full
  backpressure, in-flight byte budgets, weighted-fair DRR dequeue,
  the unfair baseline), driven with dummy request objects;
* :class:`TestBatching` — ``plan_batches`` alone (write exact-tiling,
  overlap fallback, read gap merging, the merge-off baseline);
* :class:`TestServer` — the running service end to end (byte-identity,
  per-tenant metrics, the batching counter proof, proc workers,
  worker-kill fault injection);
* :class:`TestSoak` — the concurrent-clients harness (small tier-1
  point + ``soak``-marked 32-client runs).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import (
    ServiceError,
    ServiceQueueFull,
    ServiceWorkerError,
)
from repro.server import (
    AdmissionController,
    IOPServer,
    ServiceClient,
    plan_batches,
    run_soak,
)
from repro.server.soak import SoakConfig


@dataclass
class _Req:
    """Stand-in request for admission/batching unit tests."""

    path: str = "/f"
    write: bool = True
    offset: int = 0
    nbytes: int = 0
    tag: str = ""


def _post_n(adm, tenant, n, nbytes, **kw):
    reqs = [_Req(nbytes=nbytes, tag=f"{tenant}{i}", **kw)
            for i in range(n)]
    for r in reqs:
        adm.post(tenant, r, r.nbytes)
    return reqs


class TestAdmission:
    def test_queue_full_rejects_at_post(self):
        adm = AdmissionController()
        t = adm.register("a", queue_depth=2)
        _post_n(adm, "a", 2, 10)
        with pytest.raises(ServiceQueueFull):
            adm.post("a", _Req(nbytes=10), 10)
        assert t.stats.posted == 3
        assert t.stats.admitted == 2
        assert t.stats.rejected_queue_full == 1
        # The rejected request was never enqueued.
        assert len(t.queue) == 2

    def test_byte_budget_caps_in_flight(self):
        adm = AdmissionController(quantum=1000)
        t = adm.register("a", byte_budget=100)
        _post_n(adm, "a", 3, 60)
        first = adm.take()
        # 60 in flight; +60 would breach the 100-byte budget.
        assert len(first) == 1
        assert t.in_flight_bytes == 60
        assert t.stats.budget_stalls == 1
        assert adm.take() == []
        adm.complete("a", 60, ok=True)
        second = adm.take()
        assert len(second) == 1
        assert t.in_flight_bytes == 60

    def test_oversized_request_is_not_starved(self):
        adm = AdmissionController(quantum=1000)
        adm.register("a", byte_budget=100)
        adm.post("a", _Req(nbytes=700), 700)
        # Bigger than the whole budget, but nothing is in flight:
        # it must dispatch (possibly after accruing DRR credit).
        out = adm.take()
        assert len(out) == 1

    def test_weighted_fair_dequeue_is_drr(self):
        """Dispatch *bandwidth* tracks weight: with quantum-sized
        requests, weight 2 drains twice as fast as weight 1."""
        q = 64
        adm = AdmissionController(quantum=q)
        a = adm.register("a", weight=2, byte_budget=1 << 30)
        b = adm.register("b", weight=1, byte_budget=1 << 30)
        _post_n(adm, "a", 12, q)
        _post_n(adm, "b", 12, q)
        for _ in range(4):
            adm.take()
        assert a.stats.dispatched == 8
        assert b.stats.dispatched == 4

    def test_idle_tenant_carries_no_deficit(self):
        q = 64
        adm = AdmissionController(quantum=q)
        a = adm.register("a", byte_budget=1 << 30)
        # Several empty passes must not bank credit for a burst.
        for _ in range(10):
            adm.take()
        assert a.deficit == 0
        _post_n(adm, "a", 5, q)
        out = adm.take()
        # One rotation's worth (1 quantum => 1 request), not 10.
        assert len(out) == 1

    def test_unfair_mode_is_arrival_order_without_budgets(self):
        adm = AdmissionController(fair=False)
        adm.register("a", byte_budget=1)
        adm.register("b", byte_budget=1)
        ra = _Req(nbytes=500, tag="a0")
        rb = _Req(nbytes=500, tag="b0")
        ra2 = _Req(nbytes=500, tag="a1")
        adm.post("a", ra, 500)
        adm.post("b", rb, 500)
        adm.post("a", ra2, 500)
        out = adm.take()
        # Budgets (1 byte!) ignored; strict global arrival order.
        assert [r.tag for r in out] == ["a0", "b0", "a1"]

    def test_duplicate_tenant_rejected(self):
        adm = AdmissionController()
        adm.register("a")
        with pytest.raises(ServiceError):
            adm.register("a")


class TestBatching:
    def test_tiling_writes_merge(self):
        items = [_Req(write=True, offset=o, nbytes=10)
                 for o in (20, 0, 10)]
        (b,) = plan_batches(items)
        assert (b.lo, b.hi, b.write) == (0, 30, True)
        assert len(b.items) == 3

    def test_gapped_writes_split(self):
        items = [_Req(write=True, offset=0, nbytes=10),
                 _Req(write=True, offset=11, nbytes=10)]
        bs = plan_batches(items)
        assert [(b.lo, b.hi) for b in bs] == [(0, 10), (11, 21)]

    def test_overlapping_writes_fall_back_to_arrival_order(self):
        items = [_Req(write=True, offset=0, nbytes=10, tag="first"),
                 _Req(write=True, offset=5, nbytes=10, tag="second")]
        bs = plan_batches(items)
        assert [b.items[0].tag for b in bs] == ["first", "second"]
        assert all(len(b.items) == 1 for b in bs)

    def test_reads_merge_within_gap(self):
        items = [_Req(write=False, offset=0, nbytes=10),
                 _Req(write=False, offset=30, nbytes=10)]
        (b,) = plan_batches(items, max_read_gap=32)
        assert (b.lo, b.hi) == (0, 40)
        bs = plan_batches(items, max_read_gap=4)
        assert len(bs) == 2

    def test_paths_and_kinds_never_mix(self):
        items = [_Req(path="/a", write=True, offset=0, nbytes=10),
                 _Req(path="/b", write=True, offset=10, nbytes=10),
                 _Req(path="/a", write=False, offset=10, nbytes=10)]
        bs = plan_batches(items)
        assert len(bs) == 3

    def test_merge_off_is_one_batch_per_request(self):
        items = [_Req(write=True, offset=o, nbytes=10)
                 for o in (0, 10, 20)]
        bs = plan_batches(items, merge=False)
        assert len(bs) == 3
        assert [b.items[0].offset for b in bs] == [0, 10, 20]


class TestServer:
    def test_write_read_byte_identity(self):
        with IOPServer(workers=2) as srv:
            srv.register_tenant("a")
            cl = ServiceClient(srv, "a")
            data = np.arange(4096, dtype=np.int64).astype(np.uint8)
            cl.write("/f", 100, data, timeout=30.0)
            got = cl.read("/f", 100, data.nbytes, timeout=30.0)
            assert np.array_equal(got, data)

    def test_read_past_eof_zero_fills(self):
        with IOPServer(workers=1) as srv:
            srv.register_tenant("a")
            cl = ServiceClient(srv, "a")
            cl.write("/f", 0, np.full(8, 7, np.uint8), timeout=30.0)
            got = cl.read("/f", 4, 16, timeout=30.0)
            assert np.array_equal(got[:4], np.full(4, 7, np.uint8))
            assert not got[4:].any()

    def test_zero_byte_posts_complete_immediately(self):
        with IOPServer(workers=1) as srv:
            srv.register_tenant("a")
            cl = ServiceClient(srv, "a")
            r = cl.iread("/f", 0, 0)
            assert r.test()
            assert r.wait(1.0).size == 0
            w = cl.iwrite("/f", 0, np.empty(0, np.uint8))
            assert w.wait(1.0) is None

    def test_write_payload_copied_at_post(self):
        with IOPServer(workers=1, worker_delay=0.05) as srv:
            srv.register_tenant("a")
            cl = ServiceClient(srv, "a")
            buf = np.full(64, 1, np.uint8)
            r = cl.iwrite("/f", 0, buf)
            buf[:] = 9  # client reuses its buffer immediately
            r.wait(30.0)
            got = cl.read("/f", 0, 64, timeout=30.0)
            assert np.array_equal(got, np.full(64, 1, np.uint8))

    def test_queue_full_surfaces_from_post(self):
        with IOPServer(workers=1) as srv:
            srv.register_tenant("a", queue_depth=0)
            cl = ServiceClient(srv, "a")
            with pytest.raises(ServiceQueueFull):
                cl.iwrite("/f", 0, np.zeros(8, np.uint8))

    def test_per_tenant_metrics_in_service_section(self):
        with IOPServer(workers=1) as srv:
            srv.register_tenant("a")
            srv.register_tenant("b")
            ca = ServiceClient(srv, "a")
            ca.write("/f", 0, np.zeros(100, np.uint8), timeout=30.0)
            ca.read("/f", 0, 100, timeout=30.0)
            snap = srv.metrics_snapshot()
            by_tenant = {e["tenant"]: e["counters"]
                         for e in snap["service"]}
            assert by_tenant["a"]["completed"] == 2
            assert by_tenant["a"]["bytes_written"] == 100
            assert by_tenant["a"]["bytes_read"] == 100
            assert by_tenant["b"]["posted"] == 0
            assert snap["server"]["requests_executed"] == 2

    def test_batching_reduces_file_accesses(self):
        """The acceptance counter: concurrently posted tiling writes
        execute in fewer file accesses than requests."""
        with IOPServer(workers=1) as srv:
            nb = 512
            srv.register_tenant("a", byte_budget=8 * nb)
            cl = ServiceClient(srv, "a")
            # A plug request holds the tenant's whole in-flight byte
            # budget, and the test holds the plug's path lock, so the
            # plug cannot finish before every following post is queued:
            # they stall on the budget and dispatch together once the
            # plug completes.
            with srv.session:
                _fh, plug_lock = srv._handle("/plug")
            with plug_lock:
                plug = cl.iwrite("/plug", 0, np.zeros(8 * nb, np.uint8))
                reqs = [
                    cl.iwrite("/f", i * nb, np.full(nb, i + 1, np.uint8))
                    for i in range(8)
                ]
            plug.wait(30.0)
            for r in reqs:
                r.wait(30.0)
            snap = srv.counters.snapshot()
            assert snap["requests_executed"] == 9
            assert snap["file_accesses"] < snap["requests_executed"]
            assert snap["batch_merged_requests"] >= 2
            # Merged execution is still byte-identical.
            got = cl.read("/f", 0, 8 * nb, timeout=30.0)
            want = np.concatenate([
                np.full(nb, i + 1, np.uint8) for i in range(8)
            ])
            assert np.array_equal(got, want)

    def test_batching_off_is_one_access_per_request(self):
        with IOPServer(workers=1, batching=False,
                       worker_delay=0.02) as srv:
            srv.register_tenant("a")
            cl = ServiceClient(srv, "a")
            reqs = [
                cl.iwrite("/f", i * 64, np.full(64, i, np.uint8))
                for i in range(4)
            ]
            for r in reqs:
                r.wait(30.0)
            snap = srv.counters.snapshot()
            assert snap["file_accesses"] == snap["requests_executed"]
            assert snap["batch_merged_requests"] == 0

    def test_proc_workers_write_read(self, tmp_path):
        with IOPServer(workers=2, worker_mode="proc",
                       root=str(tmp_path)) as srv:
            srv.register_tenant("a")
            cl = ServiceClient(srv, "a")
            data = np.arange(2048, dtype=np.int64).astype(np.uint8)
            cl.write("/f", 64, data, timeout=30.0)
            got = cl.read("/f", 64, data.nbytes, timeout=30.0)
            assert np.array_equal(got, data)
            # The bytes really are on disk, not in server memory.
            on_disk = (tmp_path / "f").read_bytes()
            assert on_disk[64:] == data.tobytes()

    def test_proc_mode_requires_root(self):
        with pytest.raises(ServiceError):
            IOPServer(worker_mode="proc")

    def test_worker_kill_fails_promptly_and_respawns(self, tmp_path):
        """SIGKILL an IOP worker mid-request: exactly that request
        fails with ServiceWorkerError, the flight recorder gets a
        ``service.worker_dead`` breadcrumb, the worker respawns, and
        the next request succeeds."""
        with IOPServer(workers=1, worker_mode="proc",
                       root=str(tmp_path), worker_delay=0.4) as srv:
            srv.register_tenant("a")
            cl = ServiceClient(srv, "a")
            r = cl.iwrite("/f", 0, np.full(128, 3, np.uint8))
            # Let the request reach the worker, then kill it.
            deadline = time.time() + 5.0
            t = srv.tenant("a")
            while t.stats.dispatched == 0 and time.time() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)
            os.kill(srv._proc_workers[0].process.pid, signal.SIGKILL)
            with pytest.raises(ServiceWorkerError):
                r.wait(30.0)
            crumbs = [
                c[1]
                for rk in srv.session.flight.export_state()[
                    "crumbs"].values()
                for c in rk
            ]
            assert "service.worker_dead" in crumbs
            assert srv.counters.snapshot()["worker_respawns"] == 1
            assert t.stats.failed == 1
            # Recovery: the respawned worker serves the retry.
            srv.worker_delay = 0.0
            for w in srv._proc_workers:
                w.delay = 0.0
            cl.write("/f", 0, np.full(128, 5, np.uint8), timeout=30.0)
            got = cl.read("/f", 0, 128, timeout=30.0)
            assert np.array_equal(got, np.full(128, 5, np.uint8))

    def test_stop_drains_before_shutdown(self):
        srv = IOPServer(workers=1, worker_delay=0.02).start()
        srv.register_tenant("a")
        cl = ServiceClient(srv, "a")
        reqs = [cl.iwrite("/f", i * 16, np.full(16, i, np.uint8))
                for i in range(4)]
        srv.stop(drain=True)
        for r in reqs:
            assert r.test()


class TestSoak:
    def test_small_soak_thread(self):
        res = run_soak(SoakConfig(nclients=8, nfiles=4, ntenants=2,
                                  rounds=2, req_bytes=512, workers=2))
        assert res.ok
        assert res.mismatches == 0
        assert res.requests == 8 * 2 * 2

    def test_small_soak_proc(self, tmp_path):
        res = run_soak(SoakConfig(nclients=6, nfiles=3, ntenants=2,
                                  rounds=1, req_bytes=256, workers=2,
                                  worker_mode="proc",
                                  root=str(tmp_path)))
        assert res.ok
        assert res.mismatches == 0

    @pytest.mark.soak
    @pytest.mark.parametrize("fair", [True, False])
    @pytest.mark.parametrize("batching", [True, False])
    def test_soak_32_clients(self, fair, batching):
        res = run_soak(SoakConfig(nclients=32, nfiles=8, ntenants=4,
                                  rounds=3, req_bytes=4096, workers=4,
                                  fair=fair, batching=batching))
        assert res.ok
        assert res.mismatches == 0

    @pytest.mark.soak
    def test_soak_weighted_tenants(self):
        res = run_soak(SoakConfig(nclients=32, nfiles=8, ntenants=4,
                                  rounds=2, weights=[4, 2, 1, 1]))
        assert res.ok
