"""Engine equivalence: listless and list-based I/O must move exactly the
same bytes in every configuration — only their costs differ.

Randomized end-to-end comparisons over datatype geometry, access kind,
offsets, displacements, buffer sizes and memory layouts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def run_scenario(engine, P, blocklen, blockcount, disp, off_et,
                 collective, mem_noncontig, bufsize, nreps, fs=None):
    """Run one write+read scenario on ``fs`` (a fresh ``SimFileSystem``
    by default); returns (file bytes, read bytes)."""
    fs = SimFileSystem() if fs is None else fs
    A = blocklen * blockcount
    hints = Hints(
        ind_rd_buffer_size=bufsize,
        ind_wr_buffer_size=bufsize,
        cb_buffer_size=bufsize,
    )
    reads = [None] * P

    def worker(comm):
        r = comm.rank
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine, hints=hints)
        ft = build_noncontig_filetype(P, r, blocklen, blockcount)
        fh.set_view(disp, dt.BYTE, ft)
        rng = np.random.default_rng(1234 + r)
        if mem_noncontig:
            mt = build_noncontig_memtype(blocklen, blockcount)
            count, memtype = 1, mt
            bufn = 2 * A
        else:
            count, memtype = A, dt.BYTE
            bufn = A
        write = fh.write_at_all if collective else fh.write_at
        read = fh.read_at_all if collective else fh.read_at
        for rep in range(nreps):
            buf = rng.integers(0, 256, bufn, dtype=np.uint8)
            write(off_et + rep * A, buf, count, memtype)
        out = np.zeros(bufn, dtype=np.uint8)
        read(off_et, out, count, memtype)
        reads[r] = out
        fh.close()

    run_spmd(P, worker)
    return fs.lookup("/f").contents(), reads


SCENARIOS = st.tuples(
    st.integers(1, 4),          # P
    st.integers(1, 9),          # blocklen
    st.integers(1, 24),         # blockcount
    st.sampled_from([0, 13]),   # disp
    st.integers(0, 20),         # offset in etypes (bytes here)
    st.booleans(),              # collective
    st.booleans(),              # mem_noncontig
    st.sampled_from([32, 512, 1 << 20]),  # buffer size
    st.integers(1, 2),          # nreps
)


@settings(max_examples=25, deadline=None)
@given(SCENARIOS)
def test_engines_produce_identical_results(params):
    (P, blocklen, blockcount, disp, off_et, collective,
     mem_noncontig, bufsize, nreps) = params
    file_a, reads_a = run_scenario(
        "listless", P, blocklen, blockcount, disp, off_et, collective,
        mem_noncontig, bufsize, nreps,
    )
    file_b, reads_b = run_scenario(
        "list_based", P, blocklen, blockcount, disp, off_et, collective,
        mem_noncontig, bufsize, nreps,
    )
    assert file_a.size == file_b.size
    assert (file_a == file_b).all()
    for ra, rb in zip(reads_a, reads_b):
        assert (ra == rb).all()


@settings(max_examples=15, deadline=None)
@given(SCENARIOS)
def test_mapped_and_sieved_paths_identical(params):
    """Independent access: both engines on ``SimFile`` (mapped) and on a
    file that is not a file buffer (sieve or direct, by the cost model)
    move the same bytes."""
    (P, blocklen, blockcount, disp, off_et, _collective,
     mem_noncontig, bufsize, nreps) = params
    results = [
        run_scenario(engine, P, blocklen, blockcount, disp, off_et, False,
                     mem_noncontig, bufsize, nreps, fs=make())
        for engine in ("listless", "list_based")
        for make in (SimFileSystem, lambda: unmapped(SimFileSystem()))
    ]
    file_a, reads_a = results[0]
    for file_b, reads_b in results[1:]:
        assert file_a.size == file_b.size
        assert (file_a == file_b).all()
        for ra, rb in zip(reads_a, reads_b):
            assert (ra == rb).all()


@pytest.mark.parametrize("collective", [False, True])
def test_engines_identical_on_btio_pattern(collective):
    """The subarray/struct filetype family (BTIO class S)."""
    from repro.bench.btio import (
        build_process_filetype,
        build_process_memtype,
        max_cell_size,
        GHOST,
        NCOMP,
    )

    n, P = 12, 4
    q = 2
    m = max_cell_size(n, q) + 2 * GHOST
    files = {}
    for engine in ("listless", "list_based"):
        fs = SimFileSystem()

        def worker(comm):
            r = comm.rank
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            ft = build_process_filetype(n, P, r)
            mt = build_process_memtype(n, P, r)
            fh.set_view(0, dt.DOUBLE, ft)
            rng = np.random.default_rng(r)
            buf = rng.random(q * m ** 3 * NCOMP)
            if collective:
                fh.write_at_all(0, buf, 1, mt)
            else:
                fh.write_at(0, buf, 1, mt)
            fh.close()

        run_spmd(P, worker)
        files[engine] = fs.lookup("/f").contents()
    assert (files["listless"] == files["list_based"]).all()


def test_engines_identical_with_darray_view():
    """darray-built fileviews (block-cyclic) behave identically."""
    files = {}
    for engine in ("listless", "list_based"):
        fs = SimFileSystem()

        def worker(comm):
            r = comm.rank
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            ft = dt.darray(
                comm.size, r, [8, 8],
                [dt.DISTRIBUTE_BLOCK, dt.DISTRIBUTE_CYCLIC],
                [dt.DISTRIBUTE_DFLT_DARG, 2], [2, 2], dt.DOUBLE,
            )
            fh.set_view(0, dt.DOUBLE, ft)
            buf = np.full(16, float(r + 1))
            fh.write_at_all(0, buf, 16, dt.DOUBLE)
            fh.close()

        run_spmd(4, worker)
        files[engine] = fs.lookup("/f").contents()
    assert files["listless"].size == 8 * 8 * 8
    assert (files["listless"] == files["list_based"]).all()
