"""Nonblocking point-to-point, probe, and sub-communicators."""

import time

import numpy as np
import pytest

from repro import datatypes as dt
from repro.fs import SimFileSystem
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.mpi import run_spmd
from repro.mpi.communicator import Comm


class TestNonblocking:
    def test_irecv_wait(self):
        def worker(comm):
            if comm.rank == 0:
                req = comm.isend(1, "payload")
                assert req.test()
                assert req.wait() is None
            else:
                req = comm.irecv(0)
                assert req.wait() == "payload"

        run_spmd(2, worker)

    def test_irecv_test_polls(self):
        def worker(comm):
            if comm.rank == 1:
                req = comm.irecv(0, tag=5)
                # Nothing sent yet at first poll (usually); keep polling.
                deadline = time.time() + 5
                while not req.test():
                    assert time.time() < deadline
                assert req.wait() == 42
            else:
                time.sleep(0.02)
                comm.send(1, 42, tag=5)

        run_spmd(2, worker)

    def test_probe_then_recv(self):
        from repro.mpi import Status

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(64, np.uint8), tag=9)
            else:
                st = Status()
                comm.probe(0, tag=9, status=st)
                assert st.nbytes == 64
                # Message still there: recv must succeed instantly.
                got = comm.recv(0, tag=9)
                assert got.size == 64

        run_spmd(2, worker)

    def test_iprobe(self):
        def worker(comm):
            if comm.rank == 0:
                assert not comm.iprobe(1, tag=3)
                comm.send(1, "x", tag=3)
                comm.barrier()
            else:
                comm.barrier()
                assert comm.iprobe(0, tag=3)
                assert comm.recv(0, tag=3) == "x"

        run_spmd(2, worker)


class TestSplit:
    def test_split_two_groups(self):
        def worker(comm):
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            assert isinstance(sub, Comm)
            assert sub.size == 2
            # Group collectives see only group members.
            vals = sub.allgather(comm.rank)
            if comm.rank % 2 == 0:
                assert vals == [0, 2]
            else:
                assert vals == [1, 3]
            return sub.rank

        ranks = run_spmd(4, worker)
        assert ranks == [0, 0, 1, 1]

    def test_split_key_orders_ranks(self):
        def worker(comm):
            # Reverse ordering within the single group.
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        assert run_spmd(3, worker) == [2, 1, 0]

    def test_split_undefined_color(self):
        def worker(comm):
            sub = comm.split(color=None if comm.rank == 2 else 0)
            if comm.rank == 2:
                assert sub is None
                return -1
            return sub.size

        assert run_spmd(3, worker) == [2, 2, -1]

    def test_group_p2p_translates_ranks(self):
        def worker(comm):
            sub = comm.split(color=comm.rank // 2, key=comm.rank)
            peer = 1 - sub.rank
            sub.send(peer, f"from-{comm.rank}", tag=11)
            got = sub.recv(peer, tag=11)
            expect_world = sub._group.members[peer]
            assert got == f"from-{expect_world}"

        run_spmd(4, worker)

    def test_dup_is_independent(self):
        def worker(comm):
            d = comm.dup()
            assert d.size == comm.size
            assert d.rank == comm.rank
            assert d.allgather(comm.rank) == list(range(comm.size))

        run_spmd(3, worker)

    def test_failure_breaks_group_barrier(self):
        def worker(comm):
            sub = comm.split(color=0, key=comm.rank)
            if comm.rank == 0:
                raise ValueError("group boom")
            sub.barrier()  # must not hang
            sub.barrier()

        with pytest.raises(ValueError, match="group boom"):
            run_spmd(3, worker)


class TestFileOnSubcommunicator:
    def test_subset_of_ranks_opens_a_file(self):
        """Only the even ranks open and collectively write a file —
        the classic use of MPI_Comm_split with MPI-IO."""
        fs = SimFileSystem()

        def worker(comm):
            color = 0 if comm.rank % 2 == 0 else None
            sub = comm.split(color, key=comm.rank)
            if sub is None:
                return
            fh = File.open(sub, fs, "/even.dat",
                           MODE_CREATE | MODE_RDWR, engine="listless")
            fh.set_view(sub.rank * 8, dt.BYTE, dt.BYTE)
            fh.write_at_all(0, np.full(8, comm.rank, dtype=np.uint8))
            fh.close()

        run_spmd(4, worker)
        data = fs.lookup("/even.dat").contents()
        assert (data[:8] == 0).all()
        assert (data[8:] == 2).all()


class TestPendingOpEdges:
    def test_irecv_any_tag_nonblocking(self):
        from repro.mpi import ANY_TAG

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "tagged", tag=77)
                comm.barrier()
            else:
                comm.barrier()
                req = comm.irecv(0, tag=ANY_TAG)
                assert req.test()
                assert req.wait() == "tagged"

        run_spmd(2, worker)

    def test_wait_idempotent(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, 5)
            else:
                req = comm.irecv(0)
                assert req.wait() == 5
                assert req.wait() == 5  # cached result

        run_spmd(2, worker)

    def test_isend_request_always_done(self):
        def worker(comm):
            if comm.rank == 0:
                req = comm.isend(1, "x")
                assert req.test() and req.wait() is None
            else:
                comm.recv(0)

        run_spmd(2, worker)


class TestRequestEdges:
    def test_unstarted_request_wait_raises(self):
        from repro.errors import IOEngineError
        from repro.io.request import Request

        import pytest as _pytest

        with _pytest.raises(IOEngineError):
            Request().wait()

    def test_phase_time_infinite_bandwidth_on_zero(self):
        from repro.bench.timing import PhaseTime

        t = PhaseTime(wall=0.0, fs_sim=0.0, net_sim=0.0)
        assert t.bandwidth(100) == float("inf")


class TestNestedSplit:
    def test_split_of_a_group(self):
        """Splitting a sub-communicator again must keep world-rank
        identities straight."""
        def worker(comm):
            # First split: evens vs odds.
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            # Second split within each group: singleton groups.
            subsub = sub.split(color=sub.rank, key=0)
            assert subsub.size == 1
            assert subsub.rank == 0
            # Collectives on the innermost group are local.
            assert subsub.allgather(comm.rank) == [comm.rank]
            return (sub.rank, subsub.size)

        res = run_spmd(4, worker)
        assert res == [(0, 1), (0, 1), (1, 1), (1, 1)]

    def test_nested_group_p2p(self):
        def worker(comm):
            sub = comm.split(color=0, key=comm.rank)  # all ranks
            inner = sub.split(color=sub.rank // 2, key=sub.rank)
            peer = 1 - inner.rank
            inner.send(peer, comm.rank * 10, tag=21)
            got = inner.recv(peer, tag=21)
            expected_world = inner._group.members[peer]
            assert got == expected_world * 10

        run_spmd(4, worker)
