"""Differential conformance: the proc backend against the simulated ranks.

The multi-process runtime must be *observationally identical* to the
thread-based simulation: the same worker, run on both backends, must
leave byte-identical file contents and fill byte-identical read buffers.
The suite drives every access kind the paper's workloads use (explicit
offsets, independent and collective) through both engines and several
world sizes, over a family of fileview generators, and diffs sim
(SimFileSystem) against proc (OsFileSystem over a temp directory).
"""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import datatypes as dt
from repro.bench.btio import BTIOConfig, run_btio
from repro.datatypes.validation import validate_filetype
from repro.errors import DatatypeError
from repro.fs import OsFileSystem, ShardedFileSystem, SimFileSystem
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.hints import Hints
from repro.mpi import ANY_TAG, Status
from repro.mpi.runtime import Runtime
from tests.conftest import datatype_trees

ENGINES = ["listless", "list_based"]
SIZES = [1, 2, 4]

# -- fileview generators (parametrized like test_io_random_fileviews) --


def _interleaved(size, rank):
    """Fig.-4 style interleave: each rank owns every size-th 8-byte
    block.  Resized so instances tile the full P-rank period and the
    ranks stay disjoint across instances."""
    ft = dt.resized(dt.vector(6, 8, size * 8, dt.BYTE), 0, 6 * size * 8)
    return ft, rank * 8


def _strided_gap(size, rank):
    """Sparse blocks with never-written gap bytes between the ranks'
    interleaved runs (period ``3·size + 5``, ranks fill the first
    ``3·size``)."""
    stride = 3 * size + 5
    ft = dt.resized(dt.vector(4, 3, stride, dt.BYTE), 0, 4 * stride)
    return ft, rank * 3


def _irregular(size, rank):
    """Indexed blocks of varying lengths; ranks own disjoint segments
    (displacement strides past both instances)."""
    ft = dt.indexed([2, 5, 1, 4], [0, 4, 13, 17], dt.BYTE)
    return ft, rank * 2 * ft.extent


def _contig(size, rank):
    """Plain contiguous segments, rank-disjoint across both instances."""
    return dt.contiguous(32, dt.BYTE), rank * 64


VIEWS = {
    "interleaved": _interleaved,
    "strided_gap": _strided_gap,
    "irregular": _irregular,
    "contig": _contig,
}


def _worker(comm, view_name, engine, kind, seed, hints=None):
    make = VIEWS[view_name]
    ft, disp = make(comm.size, comm.rank)
    A = ft.size * 2

    def body(fs):
        fh = File.open(comm, fs, "/eq.out", MODE_CREATE | MODE_RDWR,
                       engine=engine, hints=hints)
        fh.set_view(disp, dt.BYTE, ft)
        rng = np.random.default_rng(seed + comm.rank)
        buf = rng.integers(0, 256, A, dtype=np.uint8)
        if kind == "write_at":
            fh.write_at(0, buf)
        elif kind == "write_at_all":
            fh.write_at_all(0, buf)
        else:  # reads need content on disk first
            fh.write_at_all(0, buf)
            # MPI consistency: data another rank physically wrote during
            # the collective is only guaranteed visible after a sync
            # barrier (on proc the race is real, not just theoretical).
            comm.barrier()
            buf[...] = 0
            got = np.zeros(A, dtype=np.uint8)
            if kind == "read_at":
                fh.read_at(0, got)
            else:
                fh.read_at_all(0, got)
            fh.close()
            return got
        fh.close()
        return None

    return body


def run_equivalence(view_name, engine, kind, size, tmp_path, seed=7,
                    hints=None):
    """Run the same worker on both backends; return (sim, proc) results
    as (file bytes, per-rank read buffers)."""

    def worker(comm, fs):
        return _worker(comm, view_name, engine, kind, seed, hints)(fs)

    sim_fs = SimFileSystem()
    sim_reads = Runtime("sim").run(size, worker, sim_fs)
    sim_bytes = bytes(sim_fs.lookup("/eq.out").contents())

    proc_fs = OsFileSystem(str(tmp_path / f"{view_name}-{engine}-{kind}"))
    proc_reads = Runtime("proc").run(size, worker, proc_fs)
    proc_bytes = bytes(proc_fs.lookup("/eq.out").contents())
    proc_fs.close()
    return (sim_bytes, sim_reads), (proc_bytes, proc_reads)


def assert_identical(sim, proc):
    (sim_bytes, sim_reads), (proc_bytes, proc_reads) = sim, proc
    assert sim_bytes == proc_bytes, (
        f"file contents diverge: sim {len(sim_bytes)}B vs "
        f"proc {len(proc_bytes)}B"
    )
    assert len(sim_reads) == len(proc_reads)
    for r, (a, b) in enumerate(zip(sim_reads, proc_reads)):
        if a is None and b is None:
            continue
        assert (a == b).all(), f"rank {r} read buffers diverge"


KINDS = ["write_at", "read_at", "write_at_all", "read_at_all"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("view_name", ["interleaved", "irregular"])
def test_backends_agree(view_name, kind, engine, tmp_path):
    """4 access kinds x 2 engines x 2 view families at P=2 — the core
    conformance matrix (16 cases)."""
    sim, proc = run_equivalence(view_name, engine, kind, 2, tmp_path)
    assert_identical(sim, proc)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("view_name", ["strided_gap", "contig"])
def test_backends_agree_across_world_sizes(view_name, engine, size,
                                           tmp_path):
    """Collective writes across world sizes 1/2/4 on both engines (12
    cases)."""
    sim, proc = run_equivalence(view_name, engine, "write_at_all", size,
                                tmp_path)
    assert_identical(sim, proc)


ALIGNS = ["even", "stripe", "block"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("align", ALIGNS)
def test_backends_agree_domain_alignment(align, engine, tmp_path):
    """Round-based collectives under every file-domain partitioning
    strategy: sim and proc stay byte-identical when a small
    cb_buffer_size forces the multi-round exchange (6 cases x 2
    kinds)."""
    hints = Hints(cb_buffer_size=64, cb_domain_align=align)
    for kind in ("write_at_all", "read_at_all"):
        sim, proc = run_equivalence("interleaved", engine, kind, 4,
                                    tmp_path, hints=hints)
        assert_identical(sim, proc)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("align", ALIGNS)
def test_backends_agree_pipelined(align, engine, tmp_path):
    """Pipelined collective rounds (background file I/O, relaxed p2p
    round synchronization) must stay byte-identical across runtimes —
    the proc backend's recv_any completion path is the real test here
    (6 cases x 2 kinds)."""
    hints = Hints(cb_buffer_size=64, cb_domain_align=align,
                  cb_pipeline="on")
    for kind in ("write_at_all", "read_at_all"):
        sim, proc = run_equivalence("interleaved", engine, kind, 4,
                                    tmp_path, hints=hints)
        assert_identical(sim, proc)


@pytest.mark.parametrize("view_name", ["strided_gap", "contig"])
def test_backends_agree_pipelined_views(view_name, tmp_path):
    """Pipelined rounds over sparse (rmw) and contiguous views, both
    runtimes, collective write+read."""
    hints = Hints(cb_buffer_size=64, cb_pipeline="on")
    for kind in ("write_at_all", "read_at_all"):
        sim, proc = run_equivalence(view_name, "listless", kind, 4,
                                    tmp_path, hints=hints)
        assert_identical(sim, proc)


@pytest.mark.soak
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("align", ALIGNS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("view_name", ["interleaved", "strided_gap"])
def test_backends_agree_alignment_sweep(view_name, engine, align, size,
                                        tmp_path):
    """Alignment strategies across world sizes 1/2/4 on both engines
    (36 cases; soak: CI's runtime-proc job runs it)."""
    hints = Hints(cb_buffer_size=64, cb_domain_align=align)
    sim, proc = run_equivalence(view_name, engine, "write_at_all", size,
                                tmp_path, hints=hints)
    assert_identical(sim, proc)


def _legal_filetype(t) -> bool:
    try:
        validate_filetype(t, dt.BYTE)
    except DatatypeError:
        return False
    return True


@settings(max_examples=8, deadline=None)
@given(datatype_trees().filter(_legal_filetype), st.booleans())
def test_random_fileviews_backends_agree(tmp_path_factory, ftype,
                                         collective):
    """Hypothesis differential: arbitrary monotonic fileviews, both
    backends, byte-identical files and self-roundtripping reads."""
    assume(ftype.size >= 1)
    tmp = tmp_path_factory.mktemp("rteq")
    span = 2 * ftype.extent
    A = ftype.size * 2
    hints = Hints(ind_rd_buffer_size=1 << 16, ind_wr_buffer_size=1 << 16,
                  cb_buffer_size=1 << 16)

    def worker(comm, fs):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine="listless", hints=hints)
        fh.set_view(comm.rank * span, dt.BYTE, ftype)
        rng = np.random.default_rng(50 + comm.rank)
        buf = rng.integers(0, 256, A, dtype=np.uint8)
        if collective:
            fh.write_at_all(0, buf)
        else:
            fh.write_at(0, buf)
        out = np.zeros(A, dtype=np.uint8)
        if collective:
            fh.read_at_all(0, out)
        else:
            fh.read_at(0, out)
        assert (out == buf).all(), "self-roundtrip failed"
        fh.close()
        return out

    sim_fs = SimFileSystem()
    sim_reads = Runtime("sim").run(2, worker, sim_fs)
    proc_fs = OsFileSystem(str(tmp))
    proc_reads = Runtime("proc").run(2, worker, proc_fs)
    assert bytes(sim_fs.lookup("/f").contents()) == \
        bytes(proc_fs.lookup("/f").contents())
    for a, b in zip(sim_reads, proc_reads):
        assert (a == b).all()
    proc_fs.close()


def test_replay_fast_path_backends_agree(tmp_path):
    """Period-translated repeated accesses ride the planner's replay
    fast path (one relocatable plan, re-bound by a scalar file delta
    per access — including its lock ranges); sim and proc must stay
    byte-identical, and the replay must actually engage on both."""
    ft = dt.resized(dt.vector(6, 8, 16, dt.BYTE), 0, 6 * 16)

    def worker(comm, fs):
        fh = File.open(comm, fs, "/rp.out", MODE_CREATE | MODE_RDWR,
                       engine="listless")
        fh.set_view(comm.rank * 8, dt.BYTE, ft)
        A = ft.size
        rng = np.random.default_rng(11 + comm.rank)
        outs = []
        for rep in range(4):
            buf = rng.integers(0, 256, A, dtype=np.uint8)
            fh.write_at(rep * A, buf)
            got = np.zeros(A, dtype=np.uint8)
            fh.read_at(rep * A, got)
            assert (got == buf).all(), "replay roundtrip failed"
            outs.append(got)
        nreplays = fh.engine.stats.plan.plan_replays
        fh.close()
        return np.concatenate(outs), nreplays

    sim_fs = SimFileSystem()
    sim = Runtime("sim").run(2, worker, sim_fs)
    proc_fs = OsFileSystem(str(tmp_path / "replay"))
    proc = Runtime("proc").run(2, worker, proc_fs)
    assert bytes(sim_fs.lookup("/rp.out").contents()) == \
        bytes(proc_fs.lookup("/rp.out").contents())
    for r, ((a, ra), (b, rb)) in enumerate(zip(sim, proc)):
        assert (a == b).all(), f"rank {r} read buffers diverge"
        assert ra == rb, f"rank {r} replay counts diverge"
        # reps 2-4 replay both the write and the read plan.
        assert ra >= 6, (r, ra)
    proc_fs.close()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", ["write_at", "read_at"])
def test_sieved_backends_agree(kind, engine, tmp_path):
    """Independent access on files that are not file buffers — sieved
    read-modify-write under ``RangeLockManager`` on sim, under real
    ``fcntl`` locks on proc — stays byte-identical across runtimes, as
    the mapped path does (``SimFile``/``OsFile`` map it)."""

    def worker(comm, fs):
        return _worker(comm, "interleaved", engine, kind, 7)(fs)

    sim_fs = unmapped(SimFileSystem())
    sim_reads = Runtime("sim").run(2, worker, sim_fs)
    proc_fs = unmapped(OsFileSystem(str(tmp_path / "sieved")))
    proc_reads = Runtime("proc").run(2, worker, proc_fs)
    sim = (bytes(sim_fs.lookup("/eq.out").contents()), sim_reads)
    proc = (bytes(proc_fs.lookup("/eq.out").contents()), proc_reads)
    proc_fs.close()
    assert_identical(sim, proc)
    if kind == "write_at":
        assert sim_fs.lookup("/eq.out").stats.n_locks > 0


def test_btio_class_s_byte_identical(tmp_path):
    """The acceptance check: a 4-rank class-S BT-IO run writes the same
    bytes under both runtimes, for both engines."""
    cfg = BTIOConfig(cls="S", nprocs=4, nsteps=1, compute_sweeps=0,
                     verify=True)
    for engine in ENGINES:
        sim_fs = SimFileSystem()
        run_btio(engine, cfg, fs=sim_fs, runtime="sim")
        sim_bytes = bytes(sim_fs.lookup("/btio.out").contents())

        proc_fs = OsFileSystem(str(tmp_path / f"btio-{engine}"))
        run_btio(engine, cfg, fs=proc_fs, runtime="proc")
        proc_bytes = bytes(proc_fs.lookup("/btio.out").contents())
        proc_fs.close()
        assert sim_bytes == proc_bytes, f"{engine}: BTIO output diverges"


# -- point-to-point: one matching contract on both runtimes -------------

P2P_OPS = ["recv", "irecv_wait", "irecv_test", "probe", "iprobe",
           "recv_any", "order"]


def _poll(ready, seconds=5.0):
    """Poll ``ready()`` until true or ``seconds`` pass; its last value.
    A proc message may land after the barrier (``mp.Queue`` delivers
    through a feeder thread), so a nonblocking check polls."""
    deadline = time.monotonic() + seconds
    ok = ready()
    while not ok and time.monotonic() < deadline:
        time.sleep(0.005)
        ok = ready()
    return ok


def _p2p_worker(comm, op, scope, tag):
    """World rank 0 sends one tag-7 message to world rank 1 on the world
    communicator or on a split group that reverses the rank order;
    rank 1 takes it with ``op`` asking for ``tag``.  ``order`` sends
    "a" (tag 7), "b" (tag 8), "c" (tag 7) and takes three messages,
    asking for ``ANY_TAG`` each time, or for tags 7, 7 and 8."""
    c = comm if scope == "world" else comm.split(0, key=-comm.rank)
    peer = 1 - c.rank
    if comm.rank == 0:
        if op == "order":
            for payload, t in (("a", 7), ("b", 8), ("c", 7)):
                c.send(peer, payload, tag=t)
        else:
            c.send(peer, np.arange(6, dtype=np.uint8), tag=7)
    comm.barrier()
    if comm.rank == 0:
        return None
    if op == "order":
        tags = (tag,) * 3 if tag == ANY_TAG else (7, 7, 8)
        return [c.recv(peer, tag=t) for t in tags]
    if op == "recv":
        st = Status()
        got = c.recv(peer, tag=tag, status=st)
        return got.tolist(), (st.source, st.tag, st.nbytes)
    if op == "irecv_wait":
        return c.irecv(peer, tag=tag).wait().tolist()
    if op == "irecv_test":
        req = c.irecv(peer, tag=tag)
        ok = _poll(req.test)
        return ok, req.wait().tolist() if ok else None
    if op == "probe":
        st = Status()
        c.probe(peer, tag=tag, status=st)
        return (st.source, st.tag, st.nbytes), c.recv(peer, tag).tolist()
    if op == "iprobe":
        ok = _poll(lambda: c.iprobe(peer, tag=tag))
        return ok, c.recv(peer, tag).tolist() if ok else None
    src, got = c.recv_any([peer], tag=tag)
    return src, got.tolist()


@pytest.mark.parametrize("tag", [7, ANY_TAG], ids=["tag7", "any_tag"])
@pytest.mark.parametrize("scope", ["world", "group"])
@pytest.mark.parametrize("op", P2P_OPS)
def test_p2p_matching_backends_agree(op, scope, tag, monkeypatch):
    """Every receive, probe and ``recv_any`` — on the world and on a
    split group, for a named tag and ``ANY_TAG`` — finds the waiting
    message on both runtimes, with the same payload and status; and
    ``ANY_TAG`` takes messages from one source in arrival order, so a
    later one never overtakes an earlier one."""
    monkeypatch.setenv("REPRO_RECV_TIMEOUT", "3")
    sim = Runtime("sim").run(2, _p2p_worker, op, scope, tag)
    proc = Runtime("proc").run(2, _p2p_worker, op, scope, tag)
    assert sim == proc
    payload = list(range(6))
    expect = {
        "recv": (payload, (0, 7, 6)),
        "irecv_wait": payload,
        "irecv_test": (True, payload),
        "probe": ((0, 7, 6), payload),
        "iprobe": (True, payload),
        "recv_any": (0, payload),
        "order": ["a", "b", "c"] if tag == ANY_TAG else ["a", "c", "b"],
    }[op]
    if scope == "group":  # the group reverses the ranks: sender is 1
        expect = {
            "recv": (payload, (1, 7, 6)),
            "probe": ((1, 7, 6), payload),
            "recv_any": (1, payload),
        }.get(op, expect)
    assert sim[1] == expect


@pytest.mark.soak
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("view_name", sorted(VIEWS))
def test_backends_agree_full_sweep(view_name, kind, engine, size,
                                   tmp_path):
    """The full 4 x 4 x 2 x 3 = 96-case matrix (soak: excluded from
    tier-1; CI's runtime-proc job runs it)."""
    sim, proc = run_equivalence(view_name, engine, kind, size, tmp_path)
    assert_identical(sim, proc)


# -- sharded backend: request shipping vs the plain single backend -----

SHIP_PROTOCOLS = ["list", "dtype"]


def run_sharded_equivalence(view_name, engine, kind, size, nshards,
                            protocol, tmp_path, seed=7, runtime="sim"):
    """Run the same worker on a plain SimFileSystem (no shipping) and on
    a ShardedFileSystem with ``ship_protocol`` set; return (plain,
    sharded) results in the :func:`assert_identical` shape."""

    def base_worker(comm, fs):
        return _worker(comm, view_name, engine, kind, seed)(fs)

    def ship_worker(comm, fs):
        return _worker(comm, view_name, engine, kind, seed,
                       hints=Hints(ship_protocol=protocol))(fs)

    sim_fs = SimFileSystem()
    sim_reads = Runtime("sim").run(size, base_worker, sim_fs)
    sim_bytes = bytes(sim_fs.lookup("/eq.out").contents())

    sh_fs = ShardedFileSystem(
        str(tmp_path / f"sh{nshards}-{protocol}-{engine}-{kind}"),
        nshards=nshards, stripe_size=64)
    try:
        sh_reads = Runtime(runtime).run(size, ship_worker, sh_fs)
        sh_bytes = bytes(sh_fs.lookup("/eq.out").contents())
    finally:
        sh_fs.close()
    return (sim_bytes, sim_reads), (sh_bytes, sh_reads)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("protocol", SHIP_PROTOCOLS)
@pytest.mark.parametrize("kind", KINDS)
def test_sharded_backend_agrees(kind, protocol, engine, tmp_path):
    """Request shipping to 2 shard servers — both protocols (list-I/O
    and datatype-I/O), both engines, all four access kinds — must leave
    bytes identical to the plain single-backend run (16 cases)."""
    plain, sharded = run_sharded_equivalence(
        "interleaved", engine, kind, 2, 2, protocol, tmp_path)
    assert_identical(plain, sharded)


def test_sharded_backend_agrees_proc_runtime(tmp_path):
    """The sharded backend under the multi-process runtime: each rank
    process reconnects to the shard servers through a pickled handle;
    the result must still match the plain in-process run."""
    plain, sharded = run_sharded_equivalence(
        "interleaved", "listless", "write_at_all", 2, 2, "dtype",
        tmp_path, runtime="proc")
    assert_identical(plain, sharded)


@pytest.mark.soak
@pytest.mark.parametrize("nshards", [1, 2, 4])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("protocol", SHIP_PROTOCOLS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("view_name", ["interleaved", "strided_gap"])
def test_sharded_backend_full_sweep(view_name, kind, protocol, engine,
                                    nshards, tmp_path):
    """The sharded sweep: 2 views x 4 kinds x 2 protocols x 2 engines x
    {1,2,4} shards at P=4 (96 cases; soak: CI's shipping job runs it)."""
    plain, sharded = run_sharded_equivalence(
        view_name, engine, kind, 4, nshards, protocol, tmp_path)
    assert_identical(plain, sharded)
