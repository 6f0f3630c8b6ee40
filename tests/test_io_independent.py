"""Independent non-contiguous I/O across the Fig.-1 layout matrix.

Each case writes through interleaving per-rank views and reads back,
then the file contents are checked against an analytically computed
expectation — for both engines, several window sizes (forcing the
multi-window sieving paths), displacements and mid-view offsets.  On
``SimFile`` an access is mapped, whatever the window size; the sieving
paths run on an :func:`~repro.fs.unmapped.unmapped` file system.
"""

import numpy as np
import pytest

from repro import datatypes as dt
from repro.bench.noncontig import (
    build_noncontig_filetype,
    build_noncontig_memtype,
)
from repro.datatypes.packing import (
    pack_typemap,
    typemap_blocks,
    unpack_typemap,
)
from repro.fs import OsFileSystem, SimFileSystem
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.hints import Hints
from repro.mpi import run_spmd

ENGINES = ["listless", "list_based"]


def expected_file(P, blocklen, blockcount, disp, off_bytes, payloads):
    """Analytic interleaved file image for the Fig. 4 views."""
    A = blocklen * blockcount
    total = disp + off_bytes // A * 0  # placeholder
    n_access_bytes = max(len(p) for p in payloads)
    n_et = off_bytes + n_access_bytes
    ninst = (n_et + A - 1) // A
    img = np.zeros(disp + ninst * A * P, dtype=np.uint8)
    for r in range(P):
        data = payloads[r]
        for i in range(len(data)):
            d = off_bytes + i
            inst, rem = divmod(d, A)
            b, w = divmod(rem, blocklen)
            abs_off = (
                disp + inst * A * P + b * P * blocklen + r * blocklen + w
            )
            img[abs_off] = data[i]
    return img


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("bufsize", [64, 4096])
@pytest.mark.parametrize("disp,off", [(0, 0), (24, 0), (0, 40), (24, 40)])
def test_cnc_write_read_roundtrip(engine, bufsize, disp, off):
    P, blocklen, blockcount = 3, 5, 8
    A = blocklen * blockcount
    hints = Hints(ind_rd_buffer_size=bufsize, ind_wr_buffer_size=bufsize)
    payloads = [
        np.random.default_rng(r).integers(0, 256, A, dtype=np.uint8)
        for r in range(P)
    ]

    # Sieved windows of ``bufsize`` bytes, then the mapped path.
    for fs in (unmapped(SimFileSystem()), SimFileSystem()):
        def worker(comm):
            r = comm.rank
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine, hints=hints)
            ft = build_noncontig_filetype(P, r, blocklen, blockcount)
            fh.set_view(disp, dt.BYTE, ft)
            fh.write_at(off, payloads[r])
            out = np.zeros(A, dtype=np.uint8)
            fh.read_at(off, out)
            assert (out == payloads[r]).all()
            fh.close()

        run_spmd(P, worker)
        img = expected_file(P, blocklen, blockcount, disp, off, payloads)
        got = fs.lookup("/f").contents()
        # The file may be shorter than the analytic image if trailing
        # interleave slots were never written; compare the written
        # prefix.
        assert (got == img[: got.size]).all()
        assert (img[got.size:] == 0).all()


@pytest.mark.parametrize("engine", ENGINES)
def test_ncnc_roundtrip(engine):
    P, blocklen, blockcount = 2, 8, 16
    A = blocklen * blockcount
    fs = SimFileSystem()

    def worker(comm):
        r = comm.rank
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        ft = build_noncontig_filetype(P, r, blocklen, blockcount)
        mt = build_noncontig_memtype(blocklen, blockcount)
        fh.set_view(0, dt.BYTE, ft)
        buf = np.random.default_rng(r).integers(
            0, 256, 2 * A, dtype=np.uint8
        )
        fh.write_at(0, buf, 1, mt)
        out = np.zeros(2 * A, dtype=np.uint8)
        fh.read_at(0, out, 1, mt)
        mask = np.zeros(2 * A, dtype=bool)
        for b in range(blockcount):
            mask[2 * b * blocklen : 2 * b * blocklen + blocklen] = True
        assert (out[mask] == buf[mask]).all()
        assert (out[~mask] == 0).all()
        fh.close()

    run_spmd(P, worker)


@pytest.mark.parametrize("engine", ENGINES)
def test_ncc_pack_on_write(engine):
    """Non-contiguous memory, contiguous file: data lands packed."""
    fs = SimFileSystem()
    blocklen, blockcount = 4, 8
    A = blocklen * blockcount

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        fh.set_view(comm.rank * A, dt.BYTE, dt.BYTE)
        mt = build_noncontig_memtype(blocklen, blockcount)
        buf = np.arange(2 * A, dtype=np.uint8)
        fh.write_at(0, buf, 1, mt)
        fh.close()

    run_spmd(2, worker)
    data = fs.lookup("/f").contents()
    expect_one = np.concatenate(
        [np.arange(2 * b * blocklen, 2 * b * blocklen + blocklen)
         for b in range(blockcount)]
    ).astype(np.uint8)
    assert (data[:A] == expect_one).all()
    assert (data[A:] == expect_one).all()


@pytest.mark.parametrize("engine", ENGINES)
def test_etype_granularity_offsets(engine):
    """Accesses at etype offsets land mid-filetype (paper §2.2)."""
    fs = SimFileSystem()

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        ft = dt.vector(4, 2, 4, dt.DOUBLE)  # blocks of 2 doubles
        fh.set_view(0, dt.DOUBLE, ft)
        # Write one double at etype offset 3 -> second block, 2nd slot.
        fh.write_at(3, np.array([7.5]), 1, dt.DOUBLE)
        fh.close()

    run_spmd(1, worker)
    data = fs.lookup("/f").contents()
    doubles = np.zeros(data.size // 8)
    doubles[: data.size // 8] = data[: data.size // 8 * 8].view(np.float64)
    # etype 3 = block 1 (file doubles 4..5), second element -> index 5.
    assert doubles[5] == 7.5


@pytest.mark.parametrize("engine", ENGINES)
def test_ds_disabled_blockwise_access(engine):
    """With data sieving off, each block becomes its own file access
    (on a file that is not a file buffer: ``SimFile`` maps it)."""
    fs = unmapped(SimFileSystem())
    hints = Hints(ds_read=False, ds_write=False)
    blockcount = 8

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine, hints=hints)
        ft = dt.vector(blockcount, 1, 2, dt.DOUBLE)
        fh.set_view(0, dt.DOUBLE, ft)
        buf = np.arange(blockcount, dtype=np.float64)
        fh.write_at(0, buf, blockcount, dt.DOUBLE)
        out = np.zeros(blockcount)
        fh.read_at(0, out, blockcount, dt.DOUBLE)
        assert (out == buf).all()
        fh.close()

    run_spmd(1, worker)
    stats = fs.lookup("/f").stats.snapshot()
    # One write per block (plus no sieving pre-reads on the write path).
    assert stats["n_writes"] == blockcount
    assert stats["n_reads"] == blockcount


@pytest.mark.parametrize("engine", ENGINES)
def test_sieving_reduces_file_ops(engine):
    """With sieving on, windowed access coalesces file operations."""
    fs = unmapped(SimFileSystem())
    blockcount = 256

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        ft = dt.vector(blockcount, 1, 2, dt.DOUBLE)
        fh.set_view(0, dt.DOUBLE, ft)
        buf = np.arange(blockcount, dtype=np.float64)
        fh.write_at(0, buf, blockcount, dt.DOUBLE)
        fh.close()

    run_spmd(1, worker)
    stats = fs.lookup("/f").stats.snapshot()
    # The whole strided write fits one window: 1 pre-read + 1 write-back.
    assert stats["n_writes"] <= 2
    assert stats["n_reads"] <= 2
    assert stats["n_locks"] >= 1


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("ds", [True, False])
def test_mapped_access_is_one_file_op(engine, ds):
    """Twin of the two above on ``SimFile``: with sieving on or off, a
    strided write and read are one mapped op each — no pre-read, no
    lock, only the access's own bytes."""
    fs = SimFileSystem()
    hints = Hints(ds_read=ds, ds_write=ds)
    blockcount = 256

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine, hints=hints)
        ft = dt.vector(blockcount, 1, 2, dt.DOUBLE)
        fh.set_view(0, dt.DOUBLE, ft)
        buf = np.arange(blockcount, dtype=np.float64)
        fh.write_at(0, buf, blockcount, dt.DOUBLE)
        out = np.zeros(blockcount)
        fh.read_at(0, out, blockcount, dt.DOUBLE)
        assert (out == buf).all()
        fh.close()

    run_spmd(1, worker)
    stats = fs.lookup("/f").stats.snapshot()
    assert (stats["n_writes"], stats["n_reads"], stats["n_locks"]) == \
        (1, 1, 0)
    assert stats["bytes_written"] == stats["bytes_read"] == blockcount * 8


@pytest.mark.parametrize("engine", ENGINES)
def test_write_beyond_eof_extends(engine):
    fs = SimFileSystem()

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        ft = dt.vector(2, 1, 2, dt.DOUBLE)
        fh.set_view(1000, dt.DOUBLE, ft)
        fh.write_at(0, np.array([1.0, 2.0]), 2, dt.DOUBLE)
        fh.close()

    run_spmd(1, worker)
    f = fs.lookup("/f")
    assert f.size == 1000 + 3 * 8
    assert (f.contents()[:1000] == 0).all()


# ----------------------------------------------------------------------
# Sieved accesses copying straight between user memory and the file
# buffer, against the type-map oracle
# ----------------------------------------------------------------------
def _file_index(ft, disp, d0, n):
    """File byte of each view data byte ``[d0, d0 + n)`` (oracle)."""
    inst = -(-(d0 + n) // ft.size)
    runs = typemap_blocks(ft, inst)
    idx = np.concatenate([np.arange(o, o + ln) for o, ln in runs])
    return disp + idx[d0 : d0 + n]


def _memtype(kind, nbytes):
    """``(count, memtype, buffer bytes)`` holding ``nbytes`` of data."""
    if kind == "c":
        return nbytes, dt.BYTE, nbytes
    if kind == "c_lb":  # contiguous, but its data starts 16 bytes in
        mt = dt.hindexed([5], [16], dt.BYTE)
        return nbytes // 5, mt, 16 + nbytes
    # 5-byte blocks every 8: ragged against 3- or 8-byte file blocks
    mt = dt.vector(nbytes // 5, 5, 8, dt.BYTE)
    return 1, mt, mt.extent


SIEVED_VIEWS = {
    # Gapped blocks make sieving win over one access per block.
    "vector8": lambda: dt.vector(16, 8, 24, dt.BYTE),
    # Blocks wider than a window: some windows are one full run.
    "wide": lambda: dt.vector(6, 60, 64, dt.BYTE),
    "ragged": lambda: dt.indexed([3, 5, 1, 7], [0, 9, 20, 24], dt.BYTE),
    "struct": lambda: dt.struct([1, 1, 1], [0, 4, 200],
                                [dt.LB, dt.vector(12, 4, 13, dt.BYTE),
                                 dt.UB]),
}


@pytest.mark.parametrize("backend", ["sim", "os"])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("view", sorted(SIEVED_VIEWS))
@pytest.mark.parametrize("mem", ["c", "c_lb", "nc"])
def test_sieved_windows_against_typemap_oracle(backend, engine, view, mem,
                                               tmp_path):
    """Several small windows per access, accesses replayed whole filetype
    periods apart and at a mid-period offset, misaligned user buffers:
    every file byte and every read-back byte matches the oracle."""
    ft = SIEVED_VIEWS[view]()
    disp = 3
    nbytes = min(40 * (ft.size // 8 or 1), 400) // 5 * 5
    count, mt, bufbytes = _memtype(mem, nbytes)
    assert count * mt.size == nbytes
    # Replays whole periods apart, plus one access mid-period.
    offsets = [0, ft.size * 3, ft.size * 7, ft.size * 7 + 5 * ft.size + 1]
    if backend == "os":
        fs = OsFileSystem(str(tmp_path / "fs"))
    else:
        fs = SimFileSystem()
    hints = Hints(ind_rd_buffer_size=48, ind_wr_buffer_size=48)
    rng = np.random.default_rng(7)
    srcs = []
    for _ in offsets:
        raw = rng.integers(0, 256, bufbytes + 1, dtype=np.uint8)
        srcs.append(raw[1:])  # one byte off the allocation's alignment
    base = rng.integers(0, 256, 4096, dtype=np.uint8)
    box = {}

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine, hints=hints)
        fh.write_at(0, base)  # pre-existing bytes the gaps must keep
        fh.set_view(disp, dt.BYTE, ft)
        for off, src in zip(offsets, srcs):
            fh.write_at(off, src, count, mt)
        reads = []
        for off in offsets:
            raw = np.full(bufbytes + 1, 0xA5, dtype=np.uint8)
            out = raw[1:]
            fh.read_at(off, out, count, mt)
            reads.append(out)
        box["reads"] = reads
        box["plan"] = fh.engine.stats.snapshot()
        fh.close()

    run_spmd(1, worker)
    if engine == "listless":
        assert box["plan"]["plan_replays"] >= 2
    fidxs = [_file_index(ft, disp, off, nbytes) for off in offsets]
    end = max(base.size, max(int(f.max()) + 1 for f in fidxs))
    want = np.zeros(end, dtype=np.uint8)
    want[: base.size] = base
    for src, fidx in zip(srcs, fidxs):
        want[fidx] = pack_typemap(src, count, mt)
    got = fs.lookup("/f")
    if backend == "os":
        got = np.fromfile(got.path, dtype=np.uint8)
        fs.close()
    else:
        got = got.contents()
    assert got.size == end
    assert (got == want).all()
    for fidx, out in zip(fidxs, box["reads"]):
        expect = np.full(bufbytes, 0xA5, dtype=np.uint8)
        unpack_typemap(want[fidx], expect, count, mt)
        assert (out == expect).all()
