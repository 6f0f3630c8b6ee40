"""Collective I/O: correctness, optimization behaviour, costs.

On a ``SimFile`` a collective access is mapped: one barrier, then each
rank's own mapped copy.  The tests of two-phase mechanics (pre-reads,
IOP restriction, windows, list exchange) run on
:func:`~repro.fs.unmapped.unmapped` file systems, the path every
non-mappable backend takes.
"""

import numpy as np
import pytest

from repro import datatypes as dt
from repro.bench.noncontig import (
    build_noncontig_filetype,
    build_noncontig_memtype,
)
from repro.fs import SimFileSystem
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.hints import Hints
from repro.mpi import run_spmd

ENGINES = ["listless", "list_based"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("P", [1, 2, 4])
@pytest.mark.parametrize("bufsize", [128, 4096])
def test_collective_write_read_roundtrip(engine, P, bufsize):
    blocklen, blockcount = 8, 16
    A = blocklen * blockcount
    fs = SimFileSystem()
    hints = Hints(cb_buffer_size=bufsize)

    def worker(comm):
        r = comm.rank
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine, hints=hints)
        ft = build_noncontig_filetype(P, r, blocklen, blockcount)
        fh.set_view(0, dt.BYTE, ft)
        buf = np.random.default_rng(r).integers(0, 256, A, dtype=np.uint8)
        fh.write_at_all(0, buf)
        out = np.zeros(A, dtype=np.uint8)
        fh.read_at_all(0, out)
        assert (out == buf).all()
        fh.close()

    run_spmd(P, worker)
    assert fs.lookup("/f").size == P * A


@pytest.mark.parametrize("engine", ENGINES)
def test_collective_with_noncontig_memory(engine):
    P, blocklen, blockcount = 3, 4, 8
    A = blocklen * blockcount
    fs = SimFileSystem()

    def worker(comm):
        r = comm.rank
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        ft = build_noncontig_filetype(P, r, blocklen, blockcount)
        mt = build_noncontig_memtype(blocklen, blockcount)
        fh.set_view(0, dt.BYTE, ft)
        buf = np.random.default_rng(10 + r).integers(
            0, 256, 2 * A, dtype=np.uint8
        )
        fh.write_at_all(0, buf, 1, mt)
        out = np.zeros(2 * A, dtype=np.uint8)
        fh.read_at_all(0, out, 1, mt)
        mask = np.zeros(2 * A, dtype=bool)
        for b in range(blockcount):
            mask[2 * b * blocklen : (2 * b + 1) * blocklen] = True
        assert (out[mask] == buf[mask]).all()
        fh.close()

    run_spmd(P, worker)


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_size_participants(engine):
    """Ranks with nothing to contribute must still complete the
    collective (MPI requires all ranks call it)."""
    fs = SimFileSystem()

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        fh.set_view(0, dt.BYTE, dt.BYTE)
        if comm.rank == 0:
            fh.write_at_all(0, np.arange(16, dtype=np.uint8))
        else:
            fh.write_at_all(0, np.zeros(0, dtype=np.uint8))
        fh.close()

    run_spmd(3, worker)
    assert fs.lookup("/f").size == 16


@pytest.mark.parametrize("engine", ENGINES)
def test_all_empty_collective(engine):
    fs = SimFileSystem()

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        fh.write_at_all(0, np.zeros(0, dtype=np.uint8))
        fh.close()

    run_spmd(2, worker)
    assert fs.lookup("/f").size == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_cb_nodes_restricts_iops(engine):
    """With cb_nodes=1 only rank 0 touches the file."""
    fs = unmapped(SimFileSystem())
    hints = Hints(cb_nodes=1)
    P, blocklen, blockcount = 4, 4, 8
    A = blocklen * blockcount

    def worker(comm):
        r = comm.rank
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine, hints=hints)
        ft = build_noncontig_filetype(P, r, blocklen, blockcount)
        fh.set_view(0, dt.BYTE, ft)
        buf = np.full(A, r + 1, dtype=np.uint8)
        fh.write_at_all(0, buf)
        out = np.zeros(A, dtype=np.uint8)
        fh.read_at_all(0, out)
        assert (out == r + 1).all()
        fh.close()

    run_spmd(P, worker)
    assert fs.lookup("/f").size == P * A


@pytest.mark.parametrize("engine", ENGINES)
def test_full_coverage_write_skips_preread(engine):
    """A collective write that tiles its range completely must not read
    the file first (ROMIO's merge optimization / the mergeview check)."""
    fs = unmapped(SimFileSystem())
    P, blocklen, blockcount = 2, 8, 32
    A = blocklen * blockcount

    def worker(comm):
        r = comm.rank
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        ft = build_noncontig_filetype(P, r, blocklen, blockcount)
        fh.set_view(0, dt.BYTE, ft)
        fh.write_at_all(0, np.full(A, r + 1, dtype=np.uint8))
        fh.close()

    run_spmd(P, worker)
    stats = fs.lookup("/f").stats.snapshot()
    assert stats["n_reads"] == 0
    assert stats["bytes_written"] == P * A


@pytest.mark.parametrize("engine", ENGINES)
def test_partial_coverage_write_does_preread(engine):
    """If only half the interleave slots are written, the gaps force a
    read-modify-write, and pre-existing data must survive."""
    fs = unmapped(SimFileSystem())
    P, blocklen, blockcount = 2, 8, 8
    A = blocklen * blockcount
    # Pre-fill the file region with a sentinel.
    fs.create("/f").pwrite(0, np.full(2 * P * A, 0xEE, dtype=np.uint8))

    def worker(comm):
        r = comm.rank
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        # Both ranks use rank-0-style views covering only slot 0 of each
        # stride: slot 1 is never written.
        ft = build_noncontig_filetype(P, 0, blocklen, blockcount)
        fh.set_view(0, dt.BYTE, ft)
        if r == 0:
            fh.write_at_all(0, np.full(A, 0x11, dtype=np.uint8))
        else:
            fh.write_at_all(0, np.zeros(0, dtype=np.uint8))
        fh.close()

    run_spmd(P, worker)
    data = fs.lookup("/f").contents()
    stats = fs.lookup("/f").stats.snapshot()
    assert stats["n_reads"] >= 1
    for b in range(blockcount):
        s = b * P * blocklen
        assert (data[s : s + blocklen] == 0x11).all()
        assert (data[s + blocklen : s + 2 * blocklen] == 0xEE).all()


@pytest.mark.parametrize("engine", ENGINES)
def test_partial_coverage_mapped_write_keeps_gaps(engine):
    """The mapped twin of the test above: on a ``SimFile`` the same
    half-covering collective write copies only its own bytes — no
    pre-read, no lock, one write op — and the gap bytes keep the
    sentinel."""
    fs = SimFileSystem()
    P, blocklen, blockcount = 2, 8, 8
    A = blocklen * blockcount
    fs.create("/f").pwrite(0, np.full(2 * P * A, 0xEE, dtype=np.uint8))
    fs.lookup("/f").stats.reset()

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        ft = build_noncontig_filetype(P, 0, blocklen, blockcount)
        fh.set_view(0, dt.BYTE, ft)
        if comm.rank == 0:
            fh.write_at_all(0, np.full(A, 0x11, dtype=np.uint8))
        else:
            fh.write_at_all(0, np.zeros(0, dtype=np.uint8))
        fh.close()

    run_spmd(P, worker)
    data = fs.lookup("/f").contents()
    stats = fs.lookup("/f").stats.snapshot()
    assert stats["n_reads"] == 0
    assert stats["n_locks"] == 0
    assert stats["n_writes"] == 1
    assert stats["bytes_written"] == A
    for b in range(blockcount):
        s = b * P * blocklen
        assert (data[s : s + blocklen] == 0x11).all()
        assert (data[s + blocklen : s + 2 * blocklen] == 0xEE).all()


def test_listless_exchanges_no_lists():
    """Fileview caching: after set_view, collective accesses move only
    file data (+ small headers) — never per-access ol-lists."""
    P, blocklen, blockcount = 4, 8, 256
    A = blocklen * blockcount
    results = {}
    for engine in ENGINES:
        fs = unmapped(SimFileSystem())
        worlds = []

        def worker(comm):
            r = comm.rank
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            ft = build_noncontig_filetype(P, r, blocklen, blockcount)
            fh.set_view(0, dt.BYTE, ft)
            buf = np.full(A, r, dtype=np.uint8)
            for rep in range(4):
                fh.write_at_all(rep * A, buf)
            fh.close()

        run_spmd(P, worker, world_out=worlds)
        results[engine] = worlds[0].total_bytes_sent()
    # The list-based engine ships 16 bytes of ol-list per 8-byte block on
    # top of the data; listless ships the data (once) plus compact views.
    assert results["list_based"] > 2 * results["listless"]


@pytest.mark.parametrize("engine", ENGINES)
def test_repeated_collective_appends(engine):
    """BTIO-style: one collective write per step at advancing offsets."""
    fs = SimFileSystem()
    P, blocklen, blockcount = 2, 4, 4
    A = blocklen * blockcount
    steps = 3

    def worker(comm):
        r = comm.rank
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        ft = build_noncontig_filetype(P, r, blocklen, blockcount)
        fh.set_view(0, dt.BYTE, ft)
        for s in range(steps):
            fh.write_at_all(s * A, np.full(A, 10 * s + r, dtype=np.uint8))
        fh.close()

    run_spmd(P, worker)
    data = fs.lookup("/f").contents()
    assert data.size == steps * P * A
    for s in range(steps):
        seg = data[s * P * A : (s + 1) * P * A]
        for b in range(blockcount):
            for r in range(P):
                blk = seg[(b * P + r) * blocklen : (b * P + r + 1) * blocklen]
                assert (blk == 10 * s + r).all(), (s, b, r)


@pytest.mark.parametrize("engine", ENGINES)
def test_more_iops_than_bytes(engine):
    """Degenerate aggregation: more IOPs than file bytes leaves some
    IOPs with empty domains; the access must still complete exactly."""
    fs = unmapped(SimFileSystem())

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        fh.set_view(0, dt.BYTE, dt.BYTE)
        if comm.rank == 0:
            fh.write_at_all(0, np.array([7, 8], dtype=np.uint8))
        else:
            fh.write_at_all(0, np.zeros(0, dtype=np.uint8))
        out = np.zeros(2, dtype=np.uint8)
        fh.read_at_all(0, out)
        assert (out == [7, 8]).all()
        fh.close()

    run_spmd(4, worker)
    assert fs.lookup("/f").size == 2


@pytest.mark.parametrize("engine", ENGINES)
def test_single_byte_windows(engine):
    """cb_buffer_size=1: the two-phase window loop runs per byte and
    must still assemble everything correctly."""
    fs = unmapped(SimFileSystem())
    P, blocklen, blockcount = 2, 3, 4
    A = blocklen * blockcount
    hints = Hints(cb_buffer_size=1)

    def worker(comm):
        r = comm.rank
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine, hints=hints)
        ft = build_noncontig_filetype(P, r, blocklen, blockcount)
        fh.set_view(0, dt.BYTE, ft)
        buf = np.full(A, r + 1, dtype=np.uint8)
        fh.write_at_all(0, buf)
        out = np.zeros(A, dtype=np.uint8)
        fh.read_at_all(0, out)
        assert (out == r + 1).all()
        fh.close()

    run_spmd(P, worker)
    data = fs.lookup("/f").contents()
    for b in range(blockcount):
        for r in range(P):
            blk = data[(b * P + r) * blocklen : (b * P + r + 1) * blocklen]
            assert (blk == r + 1).all()
