"""SPMD runtime: point-to-point, collectives, failure handling, costs."""

import threading
import time

import numpy as np
import pytest

from repro.errors import MPIRuntimeError
from repro.mpi import (
    ANY_TAG,
    MAX,
    MIN,
    PROD,
    SUM,
    NetworkModel,
    Status,
    payload_nbytes,
    run_spmd,
)


class TestPointToPoint:
    def test_ring(self):
        def worker(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            comm.send(nxt, comm.rank)
            return comm.recv(prv)

        assert run_spmd(4, worker) == [3, 0, 1, 2]

    def test_tags_match_selectively(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "a", tag=1)
                comm.send(1, "b", tag=2)
            elif comm.rank == 1:
                # Receive in reverse tag order.
                b = comm.recv(0, tag=2)
                a = comm.recv(0, tag=1)
                assert (a, b) == ("a", "b")

        run_spmd(2, worker)

    def test_fifo_per_tag(self):
        def worker(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(1, i)
            else:
                got = [comm.recv(0) for _ in range(10)]
                assert got == list(range(10))

        run_spmd(2, worker)

    def test_any_tag_and_status(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(16, np.uint8), tag=42)
            else:
                st = Status()
                comm.recv(0, tag=ANY_TAG, status=st)
                assert st.tag == 42
                assert st.source == 0
                assert st.nbytes == 16

        run_spmd(2, worker)

    def test_sendrecv(self):
        def worker(comm):
            other = 1 - comm.rank
            return comm.sendrecv(other, comm.rank * 10, other)

        assert run_spmd(2, worker) == [10, 0]

    def test_bad_rank_rejected(self):
        def worker(comm):
            comm.send(99, "x")

        with pytest.raises(MPIRuntimeError):
            run_spmd(2, worker)


class TestRecvAny:
    def test_arrival_order_completion(self):
        """recv_any completes from whichever expected peer lands first
        — the receive side of relaxed-synchronization rounds."""

        def worker(comm):
            if comm.rank > 0:
                comm.send(0, comm.rank * 11, tag=5)
                return None
            got = {}
            pending = {1, 2, 3}
            while pending:
                src, payload = comm.recv_any(sorted(pending), tag=5)
                got[src] = payload
                pending.discard(src)
            return got

        assert run_spmd(4, worker)[0] == {1: 11, 2: 22, 3: 33}

    def test_matches_tag_selectively(self):
        def worker(comm):
            if comm.rank == 1:
                comm.send(0, "wrong", tag=9)
                comm.send(0, "right", tag=5)
            elif comm.rank == 0:
                src, payload = comm.recv_any([1], tag=5)
                assert (src, payload) == (1, "right")
                assert comm.recv(1, tag=9) == "wrong"

        run_spmd(2, worker)

    def test_empty_sources_rejected(self):
        def worker(comm):
            comm.recv_any([])

        with pytest.raises(MPIRuntimeError, match="at least one source"):
            run_spmd(1, worker)

    def test_unblocks_on_peer_failure(self):
        def worker(comm):
            if comm.rank == 0:
                raise RuntimeError("dead peer")
            comm.recv_any([0], tag=1)

        with pytest.raises(RuntimeError, match="dead peer"):
            run_spmd(2, worker)


class TestCollectives:
    def test_bcast(self):
        def worker(comm):
            return comm.bcast("payload" if comm.rank == 1 else None, root=1)

        assert run_spmd(3, worker) == ["payload"] * 3

    def test_gather(self):
        def worker(comm):
            return comm.gather(comm.rank ** 2, root=2)

        res = run_spmd(3, worker)
        assert res[0] is None and res[1] is None
        assert res[2] == [0, 1, 4]

    def test_allgather(self):
        def worker(comm):
            return comm.allgather(chr(ord("a") + comm.rank))

        assert run_spmd(3, worker) == [["a", "b", "c"]] * 3

    def test_alltoall(self):
        def worker(comm):
            out = [(comm.rank, d) for d in range(comm.size)]
            return comm.alltoall(out)

        res = run_spmd(3, worker)
        for r, inbox in enumerate(res):
            assert inbox == [(s, r) for s in range(3)]

    def test_alltoall_wrong_length(self):
        def worker(comm):
            comm.alltoall([1])

        with pytest.raises(MPIRuntimeError):
            run_spmd(2, worker)

    @pytest.mark.parametrize(
        "op,expect", [(SUM, 6), (MAX, 3), (MIN, 0), (PROD, 0)]
    )
    def test_allreduce(self, op, expect):
        def worker(comm):
            return comm.allreduce(comm.rank, op)

        assert run_spmd(4, worker) == [expect] * 4

    def test_allreduce_arrays(self):
        def worker(comm):
            return comm.allreduce(np.full(3, comm.rank), SUM)

        res = run_spmd(3, worker)
        assert (res[0] == 3).all()

    def test_reduce(self):
        def worker(comm):
            return comm.reduce(comm.rank, SUM, root=0)

        assert run_spmd(3, worker) == [3, None, None]

    def test_scatter(self):
        def worker(comm):
            data = [i * 2 for i in range(comm.size)] if comm.rank == 0 \
                else None
            return comm.scatter(data, root=0)

        assert run_spmd(3, worker) == [0, 2, 4]

    def test_barrier_order(self):
        # All ranks must reach the barrier before any passes it.
        hits = []

        def worker(comm):
            hits.append(("pre", comm.rank))
            comm.barrier()
            hits.append(("post", comm.rank))

        run_spmd(3, worker)
        pres = [i for i, h in enumerate(hits) if h[0] == "pre"]
        posts = [i for i, h in enumerate(hits) if h[0] == "post"]
        assert max(pres) < min(posts)

    def test_barrier_generations_never_overlap(self):
        """Back to back, no rank leaves a barrier before every rank has
        entered that same barrier, over many reuses."""
        import threading

        arrived = [0] * 200
        mu = threading.Lock()

        def worker(comm):
            for k in range(len(arrived)):
                with mu:
                    arrived[k] += 1
                comm.barrier()
                assert arrived[k] == comm.size, k

        run_spmd(4, worker)

    def test_consecutive_collectives(self):
        def worker(comm):
            a = comm.allgather(comm.rank)
            b = comm.allgather(comm.rank * 10)
            return (a, b)

        res = run_spmd(2, worker)
        assert res[0] == ([0, 1], [0, 10])


class TestFailureHandling:
    def test_exception_propagates(self):
        def worker(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(ValueError, match="boom"):
            run_spmd(3, worker)

    def test_blocked_recv_unblocks_on_failure(self):
        def worker(comm):
            if comm.rank == 0:
                raise RuntimeError("dead sender")
            comm.recv(0)

        with pytest.raises(RuntimeError, match="dead sender"):
            run_spmd(2, worker)

    def test_barrier_without_peer_times_out(self, monkeypatch):
        """A barrier a peer never enters raises within the one
        blocking-wait deadline, ``REPRO_RECV_TIMEOUT``.  The world runs
        in a guard thread: if the barrier hangs, the test fails the
        world itself (which breaks the barrier) instead of hanging."""
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "0.5")
        worlds, out = [], {}

        def worker(comm):
            if comm.rank == 0:
                comm.barrier()

        def drive():
            try:
                run_spmd(2, worker, world_out=worlds)
            except BaseException as exc:  # noqa: BLE001 - inspected below
                out["exc"] = exc

        t0 = time.monotonic()
        guard = threading.Thread(target=drive, daemon=True)
        guard.start()
        guard.join(10.0)
        if guard.is_alive():
            worlds[0].fail(MPIRuntimeError("barrier hung"))
            guard.join(5.0)
            pytest.fail("a barrier without its peer hung past the deadline")
        assert isinstance(out.get("exc"), MPIRuntimeError), out
        assert "timed out" in str(out["exc"])
        assert time.monotonic() - t0 < 5.0

    def test_world_size_validation(self):
        with pytest.raises(MPIRuntimeError):
            run_spmd(0, lambda c: None)


class TestCostAccounting:
    def test_bytes_counted(self):
        worlds = []

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(1000, np.uint8))
            else:
                comm.recv(0)

        run_spmd(2, worker, world_out=worlds)
        w = worlds[0]
        assert w.bytes_sent[0] == 1000
        assert w.bytes_sent[1] == 0
        assert w.net_time[0] > w.net_time[1]

    def test_network_model(self):
        nm = NetworkModel(latency=1e-6, bandwidth=1e9)
        assert nm.transfer_time(0) == pytest.approx(1e-6)
        assert nm.transfer_time(10**9) == pytest.approx(1 + 1e-6)

    def test_payload_nbytes_kinds(self):
        from repro.flatten import OLList

        assert payload_nbytes(None) == 0
        assert payload_nbytes(np.zeros(10, np.uint8)) == 10
        assert payload_nbytes(b"abc") == 3
        assert payload_nbytes(5) == 8
        assert payload_nbytes([1, 2, 3]) == 24
        assert payload_nbytes({"k": 1}) == 9
        # The paper's 16-bytes-per-tuple accounting for ol-lists:
        assert payload_nbytes(OLList([(0, 4), (8, 4)])) == 32

    def test_ollist_exchange_dominates_small_payloads(self):
        """Paper §2.3: for 8-byte blocks the shipped list is twice the
        data volume."""
        from repro.flatten import OLList

        n = 100
        ol = OLList([(i * 16, 8) for i in range(n)])
        data = np.zeros(8 * n, np.uint8)
        assert payload_nbytes(ol) == 2 * payload_nbytes(data)
