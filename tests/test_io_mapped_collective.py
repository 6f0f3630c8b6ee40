"""The mapped collective on ``SimFile`` and ``OsFile``.

On a file whose bytes are one buffer every rank already shares them, so
a collective access is one barrier and then the rank's own mapped
access — no range allgather, no rounds, no exchange.  These tests hold
it to the two-phase collective it replaces: byte identity against the
same accesses on an :func:`~repro.fs.unmapped.unmapped` file system
(two-phase rounds) for every collective form, on sim ranks over both
backends and on proc ranks over a real file; the ordering the leading
barrier gives; whole accesses in atomic mode; and the path recorded in
the trace and the flight recorder.
"""

import threading
import time
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import datatypes as dt
from repro.bench.noncontig import build_noncontig_filetype
from repro.datatypes.validation import validate_filetype
from repro.errors import DatatypeError
from repro.fs import DeviceModel, OsFileSystem, SimFileSystem, StripingConfig
from repro.fs.simfile import SimFile
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.hints import Hints
from repro.mpi import run_spmd
from repro.mpi.runtime import Runtime
from repro.obs import trace
from repro.session import current
from tests.conftest import datatype_trees, fill_pattern

ENGINES = ["listless", "list_based"]
#: ``at_all``: write_at_all/read_at_all; ``all``: write_all/read_all at
#: the individual pointer; ``split``: the begin/end pairs; ``ordered``:
#: write_ordered/read_ordered at the shared pointer.
FORMS = ["at_all", "all", "split", "ordered"]

Case = namedtuple("Case", "nprocs engine form view empty gapped cb seed")


def _legal_filetype(t) -> bool:
    try:
        validate_filetype(t, dt.BYTE)
    except DatatypeError:
        return False
    return True


@st.composite
def cases(draw, max_ranks=3):
    nprocs = draw(st.integers(1, max_ranks))
    if draw(st.booleans()):
        view = ("interleaved", draw(st.integers(1, 16)),
                draw(st.integers(1, 8)))
    else:
        view = ("tree", draw(datatype_trees().filter(
            lambda t: t.size <= 512 and _legal_filetype(t))))
    return Case(
        nprocs=nprocs,
        engine=draw(st.sampled_from(ENGINES)),
        form=draw(st.sampled_from(FORMS)),
        view=view,
        # Ranks that take part with zero bytes.
        empty=frozenset(draw(st.sets(st.integers(0, nprocs - 1)))),
        gapped=draw(st.booleans()),
        cb=draw(st.sampled_from([64, 1 << 20])),
        seed=draw(st.integers(0, 1 << 16)),
    )


def _view(case, rank):
    """``(disp, filetype)`` of ``rank``; the ordered form needs one view
    shared by every rank."""
    ordered = case.form == "ordered"
    if case.view[0] == "interleaved":
        _kind, sblock, nblock = case.view
        ft = build_noncontig_filetype(case.nprocs, 0 if ordered else rank,
                                      sblock, nblock)
        return 0, ft
    ft = case.view[1]
    return (0 if ordered else rank * 2 * ft.extent), ft


def _region(case) -> int:
    _disp, ft = _view(case, 0)
    return 2 * (case.nprocs + 1) * ft.extent


def _access(fh, form, write, buf, count, memtype):
    if form == "at_all":
        (fh.write_at_all if write else fh.read_at_all)(
            0, buf, count, memtype)
    elif form == "all":
        fh.seek(0)
        (fh.write_all if write else fh.read_all)(buf, count, memtype)
    elif form == "split":
        if write:
            fh.write_at_all_begin(0, buf, count, memtype)
            fh.write_at_all_end(buf)
        else:
            fh.read_at_all_begin(0, buf, count, memtype)
            fh.read_at_all_end(buf)
    else:
        if not write:
            fh.seek_shared(0)
        (fh.write_ordered if write else fh.read_ordered)(
            buf, count, memtype)


def _worker(case):
    def body(comm, fs):
        fh = File.open(comm, fs, "/c", MODE_CREATE | MODE_RDWR,
                       engine=case.engine,
                       hints=Hints(cb_buffer_size=case.cb))
        disp, ft = _view(case, comm.rank)
        fh.set_view(disp, dt.BYTE, ft)
        nbytes = 0 if comm.rank in case.empty else 2 * ft.size
        rng = np.random.default_rng(case.seed + comm.rank)
        if case.gapped and nbytes:
            buf = rng.integers(0, 256, 2 * nbytes, dtype=np.uint8)
            count, memtype = 1, dt.vector(nbytes, 1, 2, dt.BYTE)
            mine = slice(0, 2 * nbytes, 2)
        else:
            buf = rng.integers(0, 256, nbytes, dtype=np.uint8)
            count = memtype = None
            mine = slice(None)
        _access(fh, case.form, True, buf, count, memtype)
        out = np.zeros_like(buf)
        _access(fh, case.form, False, out, count, memtype)
        assert np.array_equal(out[mine], buf[mine]), "self-roundtrip"
        fh.close()
        return out

    return body


def _run(case, fs, runtime):
    """Pre-fill the file, run ``case`` and return (file bytes, reads)."""
    fs.create("/c").pwrite(0, fill_pattern(_region(case), case.seed))
    reads = Runtime(runtime).run(case.nprocs, _worker(case), fs)
    data = bytes(fs.lookup("/c").contents())
    if hasattr(fs, "close"):
        fs.close()
    return data, reads


def _identical(case, make_fs, runtime):
    """The mapped collective (on ``make_fs(...)`` itself) against
    two-phase (on ``unmapped(make_fs(...))``): same file, same reads."""
    mapped = _run(case, make_fs("mapped"), runtime)
    two_phase = _run(case, unmapped(make_fs("two_phase")), runtime)
    assert mapped[0] == two_phase[0], "file contents diverge"
    for rank, (a, b) in enumerate(zip(mapped[1], two_phase[1])):
        assert np.array_equal(a, b), f"rank {rank} reads diverge"


_SETTINGS = dict(deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.filter_too_much])


@settings(max_examples=40, **_SETTINGS)
@given(cases())
def test_mapped_matches_two_phase_sim_simfile(case):
    _identical(case, lambda _tag: SimFileSystem(), "sim")


@settings(max_examples=15, **_SETTINGS)
@given(case=cases())
def test_mapped_matches_two_phase_sim_osfile(tmp_path_factory, case):
    root = tmp_path_factory.mktemp("mapcoll")
    _identical(case, lambda tag: OsFileSystem(str(root / tag)), "sim")


@settings(max_examples=10, **_SETTINGS)
@given(case=cases())
def test_mapped_matches_two_phase_proc_osfile(tmp_path_factory, case):
    root = tmp_path_factory.mktemp("mapcoll")
    _identical(case, lambda tag: OsFileSystem(str(root / tag)), "proc")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("form", FORMS)
def test_every_form_takes_the_mapped_path(engine, form):
    """Each rank with data makes one mapped write op and one mapped
    read op — no lock, no pre-read, no rounds — in every collective
    form, with a zero-byte rank taking part."""
    case = Case(3, engine, form, ("interleaved", 8, 4), frozenset({1}),
                False, 64, 5)
    fs = SimFileSystem()
    fs.create("/c").truncate(_region(case))
    run_spmd(case.nprocs, lambda comm: _worker(case)(comm, fs))
    stats = fs.lookup("/c").stats.snapshot()
    assert stats["n_writes"] == 2
    assert stats["n_reads"] == 2
    assert stats["n_locks"] == 0


# ----------------------------------------------------------------------
# Ordering: the leading barrier
# ----------------------------------------------------------------------
class PausedFile(SimFile):
    """A ``SimFile`` (so still a ``FileBuffer``: its collectives are
    mapped) whose mapped copies of one kind wait until a mapped copy of
    the other kind has landed, or ``PAUSE`` seconds.  Without the
    collective's leading barrier the waiting copy would let a peer's
    later collective overtake it."""

    PAUSE = 0.3

    def __init__(self, *args, wait_on_write: bool) -> None:
        super().__init__(*args)
        self.wait_on_write = wait_on_write
        self.landed = threading.Event()

    def map_access(self, lo, hi, nbytes, write, secs, shift, copy, *args):
        if write == self.wait_on_write:
            self.landed.wait(self.PAUSE)
            return super().map_access(lo, hi, nbytes, write, secs, shift,
                                      copy, *args)
        out = super().map_access(lo, hi, nbytes, write, secs, shift, copy,
                                 *args)
        self.landed.set()
        return out


def _paused_fs(wait_on_write: bool) -> SimFileSystem:
    fs = SimFileSystem()
    f = PausedFile("/p", DeviceModel(), StripingConfig(),
                   wait_on_write=wait_on_write)
    f.pwrite(0, np.full(64, 0x0D, dtype=np.uint8))
    fs._files["/p"] = f
    return fs


@pytest.mark.parametrize("engine", ENGINES)
def test_read_then_peer_overwrite_returns_old_bytes(engine):
    """Rank 0 reads 64 bytes collectively (its copy paused); then rank
    1 overwrites them collectively.  The write's leading barrier holds
    rank 1 until rank 0 has left its read, so the read returns the old
    bytes."""
    fs = _paused_fs(wait_on_write=False)

    def worker(comm):
        fh = File.open(comm, fs, "/p", MODE_RDWR, engine=engine)
        mine = np.zeros(64 if comm.rank == 0 else 0, dtype=np.uint8)
        fh.read_at_all(0, mine)
        new = np.full(64 if comm.rank == 1 else 0, 0x77, dtype=np.uint8)
        fh.write_at_all(0, new)
        fh.close()
        return mine

    got = run_spmd(2, worker)[0]
    assert (got == 0x0D).all(), "the read saw a later collective write"
    assert (fs.lookup("/p").contents()[:64] == 0x77).all()


@pytest.mark.parametrize("engine", ENGINES)
def test_write_then_peer_read_returns_new_bytes(engine):
    """The converse: rank 0 writes collectively (its copy paused), then
    rank 1 reads the same bytes collectively.  The read's leading
    barrier holds rank 1 until rank 0's write has landed."""
    fs = _paused_fs(wait_on_write=True)

    def worker(comm):
        fh = File.open(comm, fs, "/p", MODE_RDWR, engine=engine)
        new = np.full(64 if comm.rank == 0 else 0, 0x77, dtype=np.uint8)
        fh.write_at_all(0, new)
        got = np.zeros(64 if comm.rank == 1 else 0, dtype=np.uint8)
        fh.read_at_all(0, got)
        fh.close()
        return got

    got = run_spmd(2, worker)[1]
    assert (got == 0x77).all(), "the read ran before the earlier write"


# ----------------------------------------------------------------------
# Atomic mode
# ----------------------------------------------------------------------
class TornFile(SimFile):
    """A ``SimFile`` whose mapped writes land in two halves with a
    pause between them and no mutex held across — the way copies by
    separate processes into one shared mapping interleave.  Only the
    atomic-mode range lock keeps overlapping writes whole."""

    def map_access(self, lo, hi, nbytes, write, secs, shift, copy, *args):
        if not write:
            return super().map_access(lo, hi, nbytes, write, secs, shift,
                                      copy, *args)
        stage = np.zeros(hi - lo, dtype=np.uint8)
        copy(stage, shift - lo, *args)
        copied = time.perf_counter()
        mid = (hi - lo) // 2
        self.pwrite(lo, stage[:mid])
        time.sleep(0.02)
        self.pwrite(lo + mid, stage[mid:])
        return 0.0, copied


@pytest.mark.parametrize("engine", ENGINES)
def test_atomic_overlapping_collective_writes_stay_whole(engine):
    """In atomic mode every rank's collective write over the same 256
    bytes takes the whole-access range lock, so the file ends up as one
    rank's bytes, never a mix — even on a file whose copies tear."""
    fs = SimFileSystem()
    fs._files["/t"] = TornFile("/t", DeviceModel(), StripingConfig())

    def worker(comm):
        fh = File.open(comm, fs, "/t", MODE_RDWR, engine=engine)
        fh.set_atomicity(True)
        for _rep in range(3):
            fh.write_at_all(0, np.full(256, comm.rank + 1, np.uint8))
        fh.close()

    run_spmd(3, worker)
    f = fs.lookup("/t")
    img = f.contents()
    assert img.size == 256
    assert (img == img[0]).all(), "an atomic collective write tore"
    assert f.stats.n_locks >= 9


# ----------------------------------------------------------------------
# Observability: the path a collective took
# ----------------------------------------------------------------------
def test_span_and_flight_record_name_the_path():
    prev = trace.set_tracing(True)
    trace.TRACER.clear()
    try:
        for path, fs in (("mapped", SimFileSystem()),
                         ("two_phase", unmapped(SimFileSystem()))):
            def worker(comm, fs=fs):
                fh = File.open(comm, fs, "/o", MODE_CREATE | MODE_RDWR)
                fh.set_view(0, dt.BYTE, build_noncontig_filetype(
                    comm.size, comm.rank, 8, 4))
                fh.write_at_all(0, np.ones(32, dtype=np.uint8))
                fh.close()

            run_spmd(2, worker)
            spans = [s for s in trace.TRACER.spans(rank=0)
                     if s.name == "listless.write_collective"]
            assert spans[-1].args["path"] == path
            rec = current().flight.record("on_demand")
            crumbs = [info for _t, kind, info
                      in rec["ranks"]["0"]["breadcrumbs"]
                      if kind == "collective"]
            assert crumbs[-1]["path"] == path
    finally:
        trace.set_tracing(prev)
