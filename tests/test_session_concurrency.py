"""Concurrent client worlds in one process: byte-identity to serial.

The point of the session refactor: two SPMD worlds, each with several
open files, run *simultaneously* in one process (each under its own
:class:`~repro.session.IOSession`) and produce exactly the file bytes
a serialized execution produces — no shared planner caches, compiled
programs, counters or flight records bleeding between them.

Tier-1 runs the small matrix; the ``soak``-marked sweep widens worlds,
engines and repetition.  The proc runtime gets the same treatment
(worlds as process groups are isolated by construction; the test pins
the *driver-side* concurrency — two run_spmd_proc calls in flight).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import datatypes as dt
from repro.fs import OsFileSystem, SimFileSystem
from repro.io import MODE_CREATE, MODE_RDWR
from repro.io.file_handle import File
from repro.mpi import run_spmd
from repro.session import IOSession

NFILES = 2


def _pattern(seed: int, fidx: int, rank: int, n: int) -> np.ndarray:
    out = np.arange(n, dtype=np.int64) * (seed + 2) + fidx * 31 + rank * 7
    return (out % 256).astype(np.uint8)


def _world_worker(comm, fs, seed, engine, nblk=16, blk=8):
    """Open NFILES files, interleaved vector view each, collective
    write + read-back.  Returns per-file read-back arrays."""
    got = []
    for fidx in range(NFILES):
        fh = File.open(comm, fs, f"/w{fidx}", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        ft = dt.vector(nblk, blk, blk * comm.size, dt.BYTE)
        fh.set_view(comm.rank * blk, dt.BYTE, ft)
        data = _pattern(seed, fidx, comm.rank, nblk * blk)
        fh.write_at_all(0, data)
        back = np.zeros_like(data)
        fh.read_at_all(0, back)
        fh.close()
        got.append(back)
    return got


def _file_images(fs):
    return {
        f"/w{i}": fs.lookup(f"/w{i}").contents().copy()
        for i in range(NFILES)
    }


def _run_world_sim(seed, engine, size):
    fs = SimFileSystem()
    sess = IOSession(f"world-{seed}")
    results = run_spmd(size, _world_worker, fs, seed, engine,
                       session=sess)
    return results, _file_images(fs), sess


class TestSimConcurrentWorlds:
    @pytest.mark.parametrize("engine", ["listless", "list_based"])
    def test_two_worlds_two_files_byte_identical(self, engine):
        serial = {
            seed: _run_world_sim(seed, engine, 2)[1] for seed in (3, 4)
        }
        out = {}
        errs = []

        def drive(seed):
            try:
                _res, images, _s = _run_world_sim(seed, engine, 2)
                out[seed] = images
            except BaseException as exc:  # noqa: BLE001
                errs.append(exc)

        threads = [threading.Thread(target=drive, args=(s,))
                   for s in (3, 4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errs, errs
        for seed in (3, 4):
            for path in serial[seed]:
                assert np.array_equal(out[seed][path],
                                      serial[seed][path]), \
                    f"world {seed} file {path} diverged"

    def test_concurrent_worlds_isolate_counters(self):
        boxes = {}
        errs = []

        def drive(seed):
            try:
                # The registry holds file stats weakly: a file leaves it
                # with its file system, so keep ``fs`` alive across the
                # snapshot.
                fs = SimFileSystem()
                sess = IOSession(f"world-{seed}")
                run_spmd(2, _world_worker, fs, seed, "listless",
                         session=sess)
                boxes[seed] = sess.metrics.snapshot()
            except BaseException as exc:  # noqa: BLE001
                errs.append(exc)

        threads = [threading.Thread(target=drive, args=(s,))
                   for s in (5, 6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errs, errs
        for seed in (5, 6):
            snap = boxes[seed]
            # Each world saw exactly its own files...
            assert {f["path"] for f in snap["files"]} == \
                {f"/w{i}" for i in range(NFILES)}
            # ...and its own kernel activity (nonzero, not doubled by
            # the sibling world: both ran the identical workload, so
            # identical counts prove isolation).
            assert snap["global"]["blockprog_translations"] == \
                boxes[5]["global"]["blockprog_translations"]

    @pytest.mark.soak
    @pytest.mark.parametrize("engine", ["listless", "list_based"])
    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("nworlds", [2, 4])
    def test_world_sweep(self, engine, size, nworlds):
        seeds = list(range(10, 10 + nworlds))
        serial = {
            s: _run_world_sim(s, engine, size)[1] for s in seeds
        }
        out = {}
        errs = []

        def drive(seed):
            try:
                out[seed] = _run_world_sim(seed, engine, size)[1]
            except BaseException as exc:  # noqa: BLE001
                errs.append(exc)

        threads = [threading.Thread(target=drive, args=(s,))
                   for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errs, errs
        for s in seeds:
            for path in serial[s]:
                assert np.array_equal(out[s][path], serial[s][path])


class TestProcConcurrentWorlds:
    def _run_world_proc(self, tmp_path, seed, size=2):
        from repro.mpi.proc import run_spmd_proc

        fs = OsFileSystem(str(tmp_path / f"world-{seed}"))
        run_spmd_proc(size, _world_worker, fs, seed, "listless",
                      timeout=60.0)
        return _file_images(fs)

    def test_two_proc_worlds_byte_identical(self, tmp_path):
        serial = {
            seed: self._run_world_proc(tmp_path / "serial", seed)
            for seed in (3, 4)
        }
        out = {}
        errs = []

        def drive(seed):
            try:
                out[seed] = self._run_world_proc(
                    tmp_path / "conc", seed)
            except BaseException as exc:  # noqa: BLE001
                errs.append(exc)

        threads = [threading.Thread(target=drive, args=(s,))
                   for s in (3, 4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errs, errs
        for seed in (3, 4):
            for path in serial[seed]:
                assert np.array_equal(out[seed][path],
                                      serial[seed][path])


# ----------------------------------------------------------------------
# Cold-path counters: exact under concurrent ranks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nprocs", [2, 4])
def test_cold_path_counters_exact_under_concurrent_ranks(nprocs):
    """Sim ranks share their session's counters: pair-program hits and
    misses and kernel-path counts of unbound copies, made by every rank
    at once with a tiny switch interval, add up exactly."""
    import sys

    from repro.core.gather import gather_blocks
    from repro.io.fileview import MemDescriptor
    from repro.plan.dataplane import DataPlane
    from repro.plan.ops import Blocks

    iters = 300
    offs = np.arange(0, 256, 16, dtype=np.int64)
    lens = np.full(offs.size, 8, dtype=np.int64)
    s = IOSession("counters")

    def worker(comm):
        blocks = Blocks(offs.copy(), lens.copy())
        fb = np.arange(256, dtype=np.uint8)
        mem = MemDescriptor(np.zeros(128, dtype=np.uint8), 128, dt.BYTE,
                            dest=True)
        out = np.zeros(128, dtype=np.uint8)
        comm.barrier()
        for _ in range(iters):
            DataPlane.gather(fb, 0, blocks, mem, 0)
            gather_blocks(fb, offs, lens, out, 0)

    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_spmd(nprocs, worker, session=s)
    finally:
        sys.setswitchinterval(prev)
    st = s.prog_stats
    assert st.misses == nprocs
    assert st.hits == nprocs * (iters - 1)
    assert sum(s.kernel_paths.snapshot().values()) == 2 * nprocs * iters

