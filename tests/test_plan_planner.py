"""Planner edge cases: degenerate types, optimization decisions, lock
placement, and plan-cache behaviour across view changes.

Sieving (windows, locks, the ``ds_*`` hints) is planned only on a
backend that is not a file buffer; those cases run on
:func:`~repro.fs.unmapped.unmapped` file systems, and each has a twin on
``SimFile``'s mapped path."""

import numpy as np
import pytest

from repro import datatypes as dt
from repro.fs import SimFileSystem
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.mpi import run_spmd
from repro.plan.ops import (
    MEM,
    STAGE,
    FileReadOp,
    FileWriteOp,
    GatherOp,
    LockOp,
    ScatterOp,
    UnlockOp,
)
from tests.conftest import fill_pattern

ENGINES = ["listless", "list_based"]

#: Fine-grained interleaved filetype: sieving clearly wins.
FINE = dict(blockcount=64, blocklen=1, stride=2)


def fine_vector():
    return dt.vector(FINE["blockcount"], FINE["blocklen"], FINE["stride"],
                     dt.BYTE)


def write_modes(plan):
    """The modes of a plan's file writes."""
    return {op.mode for op in plan.ops if isinstance(op, FileWriteOp)}


def open_one(fs, engine, info=None):
    return lambda comm: File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                                  engine=engine, info=info)


class TestDegenerateAccesses:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_byte_access_is_an_empty_plan(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = open_one(fs, engine)(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            mem = fh._mem(np.zeros(0, dtype=np.uint8), None, None)
            plan = fh.engine.plan_write_independent(mem, 0)
            assert len(plan) == 0
            fh.write_at(0, np.zeros(0, dtype=np.uint8))
            fh.read_at(0, np.zeros(0, dtype=np.uint8))
            fh.close()

        run_spmd(1, worker)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_length_blocks_in_filetype(self, engine):
        """Zero blocklens in an indexed filetype contribute no data and
        must be invisible to planning."""
        fs = SimFileSystem()
        ft = dt.indexed([0, 4, 0, 4, 0], [0, 8, 16, 24, 40], dt.BYTE)

        def worker(comm):
            fh = open_one(fs, engine)(comm)
            fh.set_view(0, dt.BYTE, ft)
            w = np.arange(1, 9, dtype=np.uint8)
            fh.write_at(0, w)
            r = np.zeros(8, dtype=np.uint8)
            fh.read_at(0, r)
            assert (r == w).all()
            fh.close()

        run_spmd(1, worker)
        data = fs.lookup("/f").contents()
        assert (data[8:12] == [1, 2, 3, 4]).all()
        assert (data[24:28] == [5, 6, 7, 8]).all()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_skipbytes_mid_struct_with_tiny_windows(self, engine):
        """A data-free gap inside a struct, accessed with sieving buffers
        small enough that windows start and end inside the gap."""
        ft = dt.resized(
            dt.struct([8, 8], [0, 48], [dt.BYTE, dt.BYTE]), 0, 64
        )
        info = {"ind_wr_buffer_size": "16", "ind_rd_buffer_size": "16"}

        # Sieved (tiny windows) and mapped (no windows): same bytes.
        for fs in (unmapped(SimFileSystem()), SimFileSystem()):
            def worker(comm):
                fh = open_one(fs, engine, info)(comm)
                fh.set_view(0, dt.BYTE, ft)
                w = (np.arange(2 * ft.size) % 251 + 1).astype(np.uint8)
                fh.write_at(0, w)
                r = np.zeros_like(w)
                fh.read_at(0, r)
                assert (r == w).all()
                fh.close()

            run_spmd(1, worker)
            # The skip bytes [8, 48) of each struct instance stay zero.
            data = fs.lookup("/f").contents()
            assert (data[8:48] == 0).all()
            assert (data[72:112] == 0).all()


class TestLockPlacement:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_sieved_write_locks_every_rmw_window(self, engine):
        fs = unmapped(SimFileSystem())

        def worker(comm):
            fh = open_one(fs, engine)(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            mem = fh._mem(np.zeros(FINE["blockcount"], dtype=np.uint8),
                          None, None)
            plan = fh.engine.plan_write_independent(mem, 0)
            locked = set()
            for op in plan.ops:
                if isinstance(op, LockOp):
                    locked.add((op.lo, op.hi))
                elif isinstance(op, FileWriteOp) and op.mode == "rmw":
                    assert (op.lo, op.hi) in locked, \
                        "rmw window written without a preceding lock"
                elif isinstance(op, UnlockOp):
                    locked.discard((op.lo, op.hi))
            assert any(isinstance(op, LockOp) for op in plan.ops)
            fh.engine.run_plan(plan, mem)
            snap = fh.engine.stats.snapshot()
            assert snap["executed_locks"] >= 1
            assert snap["planned_windows"] >= 1
            fh.close()

        run_spmd(1, worker)

    def test_overlapping_rmw_windows_do_not_lose_updates(self):
        """Two ranks sieve-write interleaved blocks of the same region;
        the rmw windows overlap byte-for-byte, so only the planned locks
        keep the concurrent read-modify-writes from clobbering."""
        fs = unmapped(SimFileSystem())
        P, n = 2, 64

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR)
            ft = dt.vector(n, 1, P, dt.BYTE)
            fh.set_view(comm.rank, dt.BYTE, ft)
            fh.write_at(0, np.full(n, comm.rank + 1, dtype=np.uint8))
            fh.close()

        run_spmd(P, worker)
        data = fs.lookup("/f").contents()
        assert (data[0 : P * n : P] == 1).all()
        assert (data[1 : P * n : P] == 2).all()


class TestPlanCache:
    @staticmethod
    def snap(fh):
        return fh.engine.stats.snapshot()

    def test_repeated_access_hits_cache_listless(self):
        fs = SimFileSystem()
        box = {}

        def worker(comm):
            fh = open_one(fs, "listless")(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            buf = np.zeros(FINE["blockcount"], dtype=np.uint8)
            fh.write_at(0, buf)
            for _ in range(3):
                fh.read_at(0, buf)
            box["mid"] = self.snap(fh)
            # A new view must invalidate every cached plan, even an
            # identical one: misses grow, hits stay flat.
            fh.set_view(0, dt.BYTE, fine_vector())
            fh.read_at(0, buf)
            box["after"] = self.snap(fh)
            fh.close()

        run_spmd(1, worker)
        mid, after = box["mid"], box["after"]
        assert mid["plan_cache_hits"] >= 2
        assert after["plan_cache_hits"] == mid["plan_cache_hits"]
        assert after["plan_cache_misses"] > mid["plan_cache_misses"]
        assert after["plans_built"] > mid["plans_built"]

    def test_collective_plan_cached_listless(self):
        fs = SimFileSystem()
        P = 2
        hits = [0] * P

        def worker(comm):
            fh = open_one(fs, "listless")(comm)
            ft = dt.vector(32, 4, 4 * P, dt.BYTE)
            fh.set_view(comm.rank * 4, dt.BYTE, ft)
            buf = np.full(128, comm.rank + 1, dtype=np.uint8)
            for _ in range(3):
                fh.write_at_all(0, buf)
            hits[comm.rank] = self.snap(fh)["plan_cache_hits"]
            fh.close()

        run_spmd(P, worker)
        assert all(h >= 2 for h in hits)

    def test_list_based_never_serves_cached_plans(self):
        """The conventional engine re-expands its ol-lists per access;
        its planner must rebuild every time."""
        fs = SimFileSystem()
        box = {}

        def worker(comm):
            fh = open_one(fs, "list_based")(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            buf = np.zeros(FINE["blockcount"], dtype=np.uint8)
            fh.write_at(0, buf)
            for _ in range(3):
                fh.read_at(0, buf)
            box["s"] = self.snap(fh)
            fh.close()

        run_spmd(1, worker)
        assert box["s"]["plan_cache_hits"] == 0
        assert box["s"]["plans_built"] >= 4


class TestReplayFastPath:
    """The epoch-stable replay path: one relocatable plan per
    (residue, size) shape, re-bound per access by a scalar file
    translation, skipping planner entry entirely."""

    @staticmethod
    def snap(fh):
        return fh.engine.stats.snapshot()

    def test_period_translated_accesses_replay(self):
        fs = SimFileSystem()
        box = {}

        def worker(comm):
            fh = open_one(fs, "listless")(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            A = FINE["blockcount"]
            rng = np.random.default_rng(3)
            for k in range(4):
                buf = rng.integers(0, 256, A, dtype=np.uint8)
                fh.write_at(k * A, buf)
                got = np.zeros(A, dtype=np.uint8)
                fh.read_at(k * A, got)
                assert (got == buf).all(), k
            box["s"] = self.snap(fh)
            fh.close()

        run_spmd(1, worker)
        s = box["s"]
        # First write and first read plan from scratch; the 3 later
        # periods replay both shapes (6 replays, also counted as hits).
        assert s["plan_replays"] >= 6
        assert s["plan_cache_hits"] >= s["plan_replays"]
        assert s["plans_built"] <= 3

    def test_staggered_residues_plan_from_scratch(self):
        fs = SimFileSystem()
        box = {}

        def worker(comm):
            fh = open_one(fs, "listless")(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            A = FINE["blockcount"]
            buf = np.zeros(A, dtype=np.uint8)
            for k in range(4):
                fh.write_at(k * A + k, buf)  # distinct residues
            box["s"] = self.snap(fh)
            fh.close()

        run_spmd(1, worker)
        assert box["s"]["plan_replays"] == 0
        assert box["s"]["plans_built"] >= 4

    def test_view_change_clears_replay_table(self):
        fs = SimFileSystem()
        box = {}

        def worker(comm):
            fh = open_one(fs, "listless")(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            A = FINE["blockcount"]
            buf = np.zeros(A, dtype=np.uint8)
            fh.write_at(0, buf)
            fh.write_at(A, buf)
            box["mid"] = self.snap(fh)
            fh.set_view(0, dt.BYTE, fine_vector())
            fh.write_at(2 * A, buf)  # same shape, new epoch: no replay
            box["after"] = self.snap(fh)
            fh.close()

        run_spmd(1, worker)
        assert box["mid"]["plan_replays"] == 1
        assert box["after"]["plan_replays"] == box["mid"]["plan_replays"]
        assert box["after"]["plans_built"] > box["mid"]["plans_built"]


class TestHintFingerprint:
    """Regression: the plan cache and replay table key on a fingerprint
    of the planning-relevant hints, so a ``set_info`` change — which
    does not bump the view epoch — can never serve a plan built under
    the old hints."""

    @staticmethod
    def snap(fh):
        return fh.engine.stats.snapshot()

    def test_set_info_sieve_toggle_is_not_served_stale(self):
        fs = unmapped(SimFileSystem())
        box = {}

        def worker(comm):
            fh = open_one(fs, "listless")(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            A = FINE["blockcount"]
            buf = np.zeros(A, dtype=np.uint8)
            mem = fh._mem(buf, None, None)
            sieved = fh.engine.plan_write_independent(mem, 0)
            assert "rmw" in write_modes(sieved)
            fh.write_at(0, buf)
            reads_before = fh.simfile.stats.n_reads
            # Disabling write sieving changes what a correct plan
            # contains; with epoch-only keys the stale sieved plan
            # would be replayed here.
            fh.set_info({"ds_write": "false"})
            direct = fh.engine.plan_write_independent(mem, 0)
            assert write_modes(direct) == {"direct"}
            fh.write_at(0, buf)
            box["reads"] = (reads_before, fh.simfile.stats.n_reads)
            fh.close()

        run_spmd(1, worker)
        before, after = box["reads"]
        assert before > 0
        assert after == before  # the direct write pre-read nothing

    def test_sieve_toggle_leaves_mapped_plans_alone(self):
        """Twin on the mapped path: ``ds_write`` no longer changes what
        a ``SimFile`` write does — mapped is not sieving — but the hint
        change still re-plans instead of replaying a stale plan."""
        fs = SimFileSystem()
        box = {}

        def worker(comm):
            fh = open_one(fs, "listless")(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            buf = np.zeros(FINE["blockcount"], dtype=np.uint8)
            mem = fh._mem(buf, None, None)
            first = fh.engine.plan_write_independent(mem, 0)
            fh.write_at(0, buf)
            built = self.snap(fh)["plans_built"]
            fh.set_info({"ds_write": "false"})
            second = fh.engine.plan_write_independent(mem, 0)
            box["plans"] = (first, second)
            box["built"] = (built, self.snap(fh)["plans_built"])
            box["locks"] = self.snap(fh)["executed_locks"]
            fh.close()

        run_spmd(1, worker)
        for plan in box["plans"]:
            assert [(type(op), op.mode) for op in plan.ops] == \
                [(FileWriteOp, "mapped")]
        before, after = box["built"]
        assert after > before
        assert box["locks"] == 0


class TestSievedPlanShape:
    """Sieved independent plans copy straight between user memory and
    the file buffer: no gather/scatter op, no staging buffer."""

    @pytest.mark.parametrize("memkind", ["c", "nc"])
    @pytest.mark.parametrize("write", [True, False])
    def test_listless_windows_carry_memory_pieces(self, memkind, write):
        fs = unmapped(SimFileSystem())
        n = FINE["blockcount"]

        def worker(comm):
            fh = open_one(fs, "listless",
                          {"ind_rd_buffer_size": "32",
                           "ind_wr_buffer_size": "32"})(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            if memkind == "c":
                mem = fh._mem(fill_pattern(n), None, None, dest=not write)
            else:
                mt = dt.vector(n, 1, 3, dt.BYTE)
                mem = fh._mem(fill_pattern(mt.extent), 1, mt,
                              dest=not write)
            plan = (fh.engine.plan_write_independent(mem, 0) if write
                    else fh.engine.plan_read_independent(mem, 0))
            nwin = plan.planned_windows
            assert nwin == -(-(2 * n - 1) // 32)
            assert not any(isinstance(op, (GatherOp, ScatterOp))
                           for op in plan.ops)
            if write:
                assert len(plan.ops) == 3 * nwin
                shape = [LockOp, FileWriteOp, UnlockOp] * nwin
            else:
                assert len(plan.ops) == nwin
                shape = [FileReadOp] * nwin
            assert [type(op) for op in plan.ops] == shape
            for op in plan.ops:
                if isinstance(op, (FileReadOp, FileWriteOp)):
                    assert [p.slot for p in op.pieces] == [MEM]
            before = fh.engine.stats.snapshot()["ff_kernel_calls"]
            phases = fh.engine.stats.phases
            phases.reset()
            fh.engine.run_plan(plan, mem)
            snap = fh.engine.stats.snapshot()
            assert snap["peak_staging_bytes"] == 0
            # The copy is billed to pack (write) or unpack (read).
            assert (phases.pack if write else phases.unpack) > 0
            assert (phases.unpack if write else phases.pack) == 0
            # One memory-side kernel call per window for strided memory.
            calls = snap["ff_kernel_calls"] - before
            assert calls == (nwin if memkind == "nc" else 0)
            fh.close()

        run_spmd(1, worker)

    def test_list_based_sieved_plan_keeps_staging(self):
        fs = unmapped(SimFileSystem())

        def worker(comm):
            fh = open_one(fs, "list_based")(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            mem = fh._mem(fill_pattern(FINE["blockcount"]), None, None)
            plan = fh.engine.plan_write_independent(mem, 0)
            assert isinstance(plan.ops[0], GatherOp)
            assert all(p.slot == STAGE for op in plan.ops
                       if isinstance(op, FileWriteOp) for p in op.pieces)
            fh.close()

        run_spmd(1, worker)


class TestMappedPlanShape:
    """On a file buffer (``SimFile``) an independent access is one
    ``"mapped"`` file op — no window, no lock, no ``bufsize`` tiling —
    whatever the sieving hints say."""

    @pytest.mark.parametrize("memkind", ["c", "nc"])
    @pytest.mark.parametrize("write", [True, False])
    def test_listless_access_is_one_memory_piece(self, memkind, write):
        fs = SimFileSystem()
        n = FINE["blockcount"]

        def worker(comm):
            fh = open_one(fs, "listless",
                          {"ind_rd_buffer_size": "32",
                           "ind_wr_buffer_size": "32"})(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            if memkind == "c":
                mem = fh._mem(fill_pattern(n), None, None, dest=not write)
            else:
                mt = dt.vector(n, 1, 3, dt.BYTE)
                mem = fh._mem(fill_pattern(mt.extent), 1, mt,
                              dest=not write)
            plan = (fh.engine.plan_write_independent(mem, 0) if write
                    else fh.engine.plan_read_independent(mem, 0))
            assert plan.planned_windows == 0
            (op,) = plan.ops
            assert type(op) is (FileWriteOp if write else FileReadOp)
            assert op.mode == "mapped"
            assert (op.lo, op.hi) == (0, 2 * n - 1)
            (piece,) = op.pieces
            assert piece.slot == MEM and piece.blocks.count == n
            before = fh.engine.stats.snapshot()["ff_kernel_calls"]
            phases = fh.engine.stats.phases
            phases.reset()
            fh.engine.run_plan(plan, mem)
            snap = fh.engine.stats.snapshot()
            assert snap["peak_staging_bytes"] == 0
            assert snap["executed_locks"] == 0
            # The copy is billed to pack (write) or unpack (read).
            assert (phases.pack if write else phases.unpack) > 0
            assert (phases.unpack if write else phases.pack) == 0
            # One memory-side kernel call for strided memory.
            calls = snap["ff_kernel_calls"] - before
            assert calls == (1 if memkind == "nc" else 0)
            fh.close()

        run_spmd(1, worker)

    @pytest.mark.parametrize("write", [True, False])
    def test_list_based_stages_and_streams(self, write):
        """The list-based engine has no plan geometry: its one mapped op
        carries a deferred staged piece, packed/unpacked by the engine's
        codec and streamed through its view walk."""
        fs = SimFileSystem()

        def worker(comm):
            fh = open_one(fs, "list_based")(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            mem = fh._mem(fill_pattern(FINE["blockcount"]), None, None,
                          dest=not write)
            plan = (fh.engine.plan_write_independent(mem, 0) if write
                    else fh.engine.plan_read_independent(mem, 0))
            shape = ([GatherOp, FileWriteOp] if write
                     else [FileReadOp, ScatterOp])
            assert [type(op) for op in plan.ops] == shape
            fop = plan.ops[1] if write else plan.ops[0]
            assert fop.mode == "mapped"
            assert [(p.slot, p.blocks) for p in fop.pieces] == \
                [(STAGE, None)]
            fh.close()

        run_spmd(1, worker)

    def test_one_op_however_small_the_buffer_hints(self):
        fs = SimFileSystem()
        box = {}

        def worker(comm):
            fh = open_one(fs, "listless", {"ind_wr_buffer_size": "16",
                                            "ds_write": "false"})(comm)
            fh.set_view(0, dt.BYTE, fine_vector())
            fh.write_at(0, fill_pattern(FINE["blockcount"]))
            box["s"] = fh.engine.stats.snapshot()
            fh.close()

        run_spmd(1, worker)
        st = fs.lookup("/f").stats.snapshot()
        assert (st["n_writes"], st["n_reads"], st["n_locks"]) == (1, 0, 0)
        assert st["bytes_written"] == FINE["blockcount"]
        assert box["s"]["executed_file_writes"] == 1
