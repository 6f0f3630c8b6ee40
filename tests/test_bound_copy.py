"""The copy core of a kernel and the bound call that runs it.

``Kernel.core`` is the unchecked copy a bound call runs; ``Kernel.copy``
is the checked entry around the same core.  Both must move the bytes a
per-block loop over the type map moves, for every kernel kind, in both
directions, with the other side given as the flat byte view of a
``uint8``, ``float64`` or 2-D buffer (what the bound call hands the
core).  Through the file handle, every kind a bound call can hold is
held against the type-map oracle, a buffer one byte short still raises
what a cold access raises, and a cold access looks its pair program up
once and classifies once.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import datatypes as dt
from repro.core import blockprog, gather
from repro.core.gather import _SMALL_N, classify
from repro.datatypes.packing import typemap_blocks
from repro.errors import IOEngineError
from repro.fs import SimFileSystem
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.mpi import run_spmd
from repro.plan import dataplane, executor

#: The kernel path each generated case must classify to.
KIND_NAMES = {
    "single": "single", "small_loop": "small_loop",
    "strided_pos": "strided_view", "strided_neg": "strided_view",
    "strided_multiple": "strided_view", "run": "strided_view",
    "element_index": "fancy_index", "byte_index": "fancy_index",
    "ragged_index": "ragged_index", "big_block": "big_block",
    "staged_int": "strided_view", "staged_void": "strided_view",
}

BUFFERS = ("uint8", "float64", "2d")


@st.composite
def block_pairs(draw):
    """``(kind, a offsets, b offsets, lengths)`` of a pair kernel."""
    kind = draw(st.sampled_from(sorted(KIND_NAMES)))
    big = draw(st.integers(_SMALL_N + 1, 2 * _SMALL_N))
    if kind == "single":
        lens = np.array([draw(st.integers(1, 64))])
        a = np.array([draw(st.integers(0, 32))])
        b = np.array([draw(st.integers(0, 32))])
        return kind, a, b, lens
    if kind == "small_loop":
        n = draw(st.integers(2, _SMALL_N))
        lens = np.array(draw(st.lists(st.integers(1, 12), min_size=n,
                                      max_size=n)))
        lens[0] = lens[1] + 1  # ragged
        a = np.cumsum(lens + 3) - lens - 3
        b = np.cumsum(lens) - lens
        return kind, a, b, lens
    if kind in ("element_index", "byte_index", "ragged_index"):
        if kind == "ragged_index":
            lens = np.array(draw(st.lists(st.integers(1, 9), min_size=big,
                                          max_size=big)))
            lens[0] = lens[1] + 1
        else:
            size = draw(st.integers(6, 24) if kind == "element_index"
                        else st.integers(1, 5))
            lens = np.full(big, size)
        gaps = np.array(draw(st.lists(st.integers(0, 9), min_size=big,
                                      max_size=big)))
        gaps[1] = gaps[0] + 1
        a = np.cumsum(lens + gaps) - lens - gaps + gaps[0]
        return kind, a, np.cumsum(lens) - lens, lens
    if kind == "big_block":
        lens = np.array(draw(st.lists(st.integers(256, 400), min_size=big,
                                      max_size=big)))
        lens[0] = lens[1] + 1
        a = np.cumsum(lens + 5) - lens - 5
        return kind, a, np.cumsum(lens) - lens, lens
    # Uniform blocks at a uniform step on side a.
    n = big if kind.startswith("staged") else draw(
        st.integers(2, 2 * _SMALL_N))
    if kind == "run":
        size, step = draw(st.integers(1, 16)), None
    elif kind == "staged_int":
        size = draw(st.sampled_from([2, 4, 8]))
        step = size * draw(st.integers(2, 4))
    elif kind == "staged_void":
        size = draw(st.sampled_from([2, 4, 8]))
        step = size * draw(st.integers(2, 4)) + 1
    else:
        size = draw(st.integers(1, 16))
        k = draw(st.integers(2, 4))
        step = {"strided_pos": size + draw(st.integers(1, size)),
                "strided_neg": -(size + draw(st.integers(0, size))),
                "strided_multiple": k * size}[kind]
    lens = np.full(n, size)
    if step is None:  # both sides one run, blocks listed end to end
        a = np.arange(n) * size + draw(st.integers(0, 8))
        return kind, a, np.arange(n) * size, lens
    start = (n - 1) * -step if step < 0 else 0
    a = start + np.arange(n) * step
    # Side b: a second strided side for the staged kinds (both views),
    # else one contiguous run.
    b = (np.arange(n) * (step + size) if kind.startswith("staged")
         else np.arange(n) * size)
    return kind, a, b, lens


def _user_buffer(kind: str, nbytes: int, rng) -> np.ndarray:
    """A buffer of at least ``nbytes`` random bytes, of ``kind``."""
    n = -(-nbytes // 8) * 8
    raw = rng.integers(0, 256, n, dtype=np.uint8)
    if kind == "float64":
        return raw.view(np.float64)
    if kind == "2d":
        return raw.reshape(-1, 8)
    return raw


def _flat(buf: np.ndarray) -> np.ndarray:
    """The flat byte view the bound call gives the core."""
    return (buf if buf.ndim == 1 else buf.reshape(-1)).view(np.uint8)


def _oracle(abuf, base, bbuf, pos, a, b, lens, to_b):
    """Per-block copies in list order (the last block touching a byte
    wins), on flat byte arrays."""
    for x, y, ln in zip(a.tolist(), b.tolist(), lens.tolist()):
        if to_b:
            bbuf[y + pos:y + pos + ln] = abuf[x + base:x + base + ln]
        else:
            abuf[x + base:x + base + ln] = bbuf[y + pos:y + pos + ln]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=block_pairs(), to_b=st.booleans(),
       buf_kind=st.sampled_from(BUFFERS), base=st.integers(0, 9),
       pos=st.integers(0, 9), seed=st.integers(0, 1 << 16))
def test_core_and_checked_copy_match_the_oracle(case, to_b, buf_kind, base,
                                                pos, seed):
    kind, a, b, lens = case
    a, b, lens = (np.asarray(x, dtype=np.int64) for x in (a, b, lens))
    k = classify(a, lens, other=b)
    assert k.name == KIND_NAMES[kind]
    if kind.startswith("staged"):
        assert k.core.__qualname__.startswith("_staged_core")
    rng = np.random.default_rng(seed)
    abuf = rng.integers(0, 256, int((a + lens).max()) + base + 3,
                        dtype=np.uint8)
    user = _user_buffer(buf_kind, int((b + lens).max()) + pos + 5, rng)
    want_a, want_b = abuf.copy(), _flat(user).copy()
    _oracle(want_a, base, want_b, pos, a, b, lens, to_b)
    for run in ("core", "copy"):
        got_a, got_user = abuf.copy(), user.copy()
        if run == "core":
            k.core(got_a, base, _flat(got_user), pos, to_b)
        else:
            assert k.copy(got_a, base, _flat(got_user), pos,
                          to_b) == int(lens.sum())
        assert np.array_equal(got_a, want_a), run
        assert np.array_equal(_flat(got_user), want_b), run


def test_staged_core_takes_both_alignments():
    """The staged core copies misaligned integer views through ``void``
    and aligned ones as integers; the bytes are the same."""
    n, size, step = 3 * _SMALL_N, 8, 16
    a = np.arange(n, dtype=np.int64) * step
    lens = np.full(n, size, dtype=np.int64)
    k = classify(a, lens, other=a + 1)
    assert k.vdtype is not None and k.stage
    for base in range(8):
        src = np.arange(n * step + 16, dtype=np.uint8)
        dst = np.zeros(n * step + 16, dtype=np.uint8)
        k.core(src, base, dst, base, True)
        want = np.zeros_like(dst)
        _oracle(src, base, want, base, a, a + 1, lens, True)
        assert np.array_equal(dst, want), base


# ----------------------------------------------------------------------
# Through the file handle: every kind a bound call can hold
# ----------------------------------------------------------------------
def _hv(n, blocklen, stride):
    return dt.hvector(n, blocklen, stride, dt.BYTE)


#: ``name: (disp, filetype, count, memtype, kernel path, core)``: a view
#: and a memory layout whose pair kernel is of each kind.
VIEWS = {
    "single": (0, dt.contiguous(64, dt.BYTE), 1,
               dt.contiguous(64, dt.BYTE), "single", "_loop_core"),
    "small_loop": (0, dt.hindexed([3, 7, 2, 5], [0, 5, 20, 31], dt.BYTE),
                   1, dt.contiguous(17, dt.BYTE), "small_loop",
                   "_loop_core"),
    "strided_pos": (0, _hv(8, 3, 5), 1, dt.contiguous(24, dt.BYTE),
                    "strided_view", "_view_core"),
    "strided_neg": (0, dt.contiguous(64, dt.BYTE), 1,
                    dt.struct([1], [56], [_hv(8, 8, -8)]), "strided_view",
                    "_view_core"),
    "strided_multiple": (0, _hv(8, 8, 16), 1, _hv(8, 8, 16),
                         "strided_view", "_view_core"),
    "element_index": (0, dt.hindexed_block(
        8, [0, 9, 30, 41, 60, 75, 90, 99, 120, 131, 150, 161, 180, 195,
            210, 219, 240, 251, 270], dt.BYTE), 1,
        dt.contiguous(19 * 8, dt.BYTE), "fancy_index", "_view_core"),
    "byte_index": (0, dt.hindexed_block(
        2, [0, 3, 9, 12, 20, 23, 29, 32, 40, 43, 49, 52, 60, 63, 69, 72,
            80, 83], dt.BYTE), 1, dt.contiguous(36, dt.BYTE),
        "fancy_index", "_view_core"),
    "ragged_index": (0, dt.hindexed(
        [1, 2, 3] * 6, [0, 2, 6, 10, 12, 16, 20, 22, 26, 30, 32, 36, 40, 42,
                        46, 50, 52, 56], dt.BYTE), 1,
        dt.contiguous(36, dt.BYTE), "ragged_index", "_view_core"),
    "big_block": (0, dt.hindexed([300 + 7 * i for i in range(17)],
                                 [500 * i + (i % 3) * 5 for i in range(17)],
                                 dt.BYTE), 1,
                  dt.contiguous(sum(300 + 7 * i for i in range(17)),
                                dt.BYTE), "big_block", "_loop_core"),
    "staged_misaligned": (3, _hv(32, 8, 24), 1, _hv(32, 8, 16),
                          "strided_view", "_staged_core"),
    "staged_aligned": (0, _hv(32, 8, 24), 1, _hv(32, 8, 16),
                       "strided_view", "_staged_core"),
}


def _positions(t, count, origin=0):
    """Byte positions of ``count`` x ``t``, in type-map order."""
    return origin + np.concatenate(
        [np.arange(o, o + ln) for o, ln in typemap_blocks(t, count)])


def _buffer_of(kind, raw):
    """``raw`` (a multiple of 8 bytes) as a buffer of ``kind``."""
    return {"uint8": raw, "float64": raw.view(np.float64),
            "2d": raw.reshape(-1, 8)}[kind]


@pytest.mark.parametrize("buf_kind", BUFFERS)
@pytest.mark.parametrize("name", sorted(VIEWS))
def test_bound_calls_match_the_oracle(name, buf_kind):
    """Slot 0 binds; slots 1-4 replay on the bound call.  Reads return
    what was written, the file holds it where the type map says, and
    the bound call holds the expected kernel and core."""
    disp, ft, count, mt, path, core = VIEWS[name]
    n = count * mt.size
    origin = -min(mt.lb, mt.true_lb, 0)
    mpos = _positions(mt, count, origin)
    size = -(-(origin + mt.true_ub + (count - 1) * mt.extent) // 8) * 8
    fs = SimFileSystem()
    rng = np.random.default_rng(7)
    box = {}

    def worker(comm):
        fh = File.open(comm, fs, "/b", MODE_CREATE | MODE_RDWR)
        fh.set_view(disp, dt.BYTE, ft)
        data = {}
        for k in range(5):
            raw = rng.integers(0, 256, size, dtype=np.uint8)
            fh.write_at(k * n, _buffer_of(buf_kind, raw), count, mt)
            data[k] = raw[mpos]
        bounds = [e[2] for e in fh.engine.planner.replay.values()]
        reads = {}
        for k in range(5):
            raw = np.zeros(size, dtype=np.uint8)
            fh.read_at(k * n, _buffer_of(buf_kind, raw), count, mt)
            reads[k] = raw[mpos]
        box.update(data=data, reads=reads, bounds=bounds,
                   replays=fh.engine.stats.plan.plan_replays)
        fh.close()

    run_spmd(1, worker)
    (bound,) = box["bounds"]
    assert gather._PATH_NAMES[bound.kind] == path
    assert bound.core.__qualname__.startswith(core)
    assert box["replays"] == 8
    fpos = disp + _positions(ft, -(-5 * n // ft.size) + 1)
    image = fs.lookup("/b").contents()
    for k in range(5):
        assert np.array_equal(box["reads"][k], box["data"][k]), k
        assert np.array_equal(image[fpos[k * n:(k + 1) * n]],
                              box["data"][k]), k


@pytest.mark.parametrize("write", [True, False])
@pytest.mark.parametrize("buf_kind", ["uint8", "2d"])
@pytest.mark.parametrize("name", sorted(VIEWS))
def test_a_buffer_one_byte_short_raises(name, buf_kind, write):
    """The bound call proves the user side with one O(1) size check: a
    buffer one byte short of the layout's end raises what a cold
    access raises, and moves nothing."""
    disp, ft, count, mt, _path, _core = VIEWS[name]
    origin = -min(mt.lb, mt.true_lb, 0)
    end = origin + mt.true_ub + (count - 1) * mt.extent
    fs = SimFileSystem()
    box = {}

    def short():
        raw = np.zeros(end - 1, dtype=np.uint8)
        return raw if buf_kind == "uint8" else raw.reshape(1, -1)

    def outcome(fh):
        try:
            (fh.write_at if write else fh.read_at)(0, short(), count, mt)
        except IOEngineError as exc:
            return str(exc)
        return None

    def worker(comm):
        warm = File.open(comm, fs, "/w", MODE_CREATE | MODE_RDWR)
        cold = File.open(comm, fs, "/c", MODE_CREATE | MODE_RDWR)
        for fh in (warm, cold):
            fh.set_view(disp, dt.BYTE, ft)
        good = np.ones(-(-end // 8) * 8, dtype=np.uint8)
        warm.write_at(0, good, count, mt)
        warm.read_at(0, good.copy(), count, mt)
        before = warm.simfile.contents()
        box["warm"] = outcome(warm)
        box["cold"] = outcome(cold)
        box["moved"] = not np.array_equal(warm.simfile.contents(), before)
        box["bound"] = all(e[2] is not None
                           for e in warm.engine.planner.replay.values())
        warm.close()
        cold.close()

    run_spmd(1, worker)
    assert box["bound"]
    assert box["warm"] is not None and box["warm"] == box["cold"]
    assert "touches buffer bytes" in box["warm"]
    assert not box["moved"]


# ----------------------------------------------------------------------
# A cold access: bind first, then run through the call just bound
# ----------------------------------------------------------------------
def test_cold_access_looks_up_and_classifies_once(monkeypatch):
    """A cold mapped write, then a cold read, each look the pair program
    up once and classify once — one two-sided classification, which
    reads the file side and the memory side once each.  The file-side
    program the planner navigates with is never classified: a mapped
    access copies through the pair kernel."""
    lookups, classified = [], []
    real_pair, real_classify = dataplane.pair_program, gather.classify

    def pair(*args):
        lookups.append(1)
        return real_pair(*args)

    def counting_classify(offsets, lengths, idx_cap=None, other=None):
        classified.append(other is not None)
        return real_classify(offsets, lengths, idx_cap, other)

    monkeypatch.setattr(dataplane, "pair_program", pair)
    monkeypatch.setattr(executor, "pair_program", pair)
    monkeypatch.setattr(blockprog, "classify", counting_classify)
    monkeypatch.setattr(gather, "classify", counting_classify)
    fs = SimFileSystem()
    box = {}

    def worker(comm):
        fh = File.open(comm, fs, "/c", MODE_CREATE | MODE_RDWR)
        fh.set_view(0, dt.BYTE, _hv(8, 8, 16))
        mt = _hv(8, 8, 16)
        buf = np.arange(128, dtype=np.uint8)
        for access in (fh.write_at, fh.read_at):
            del lookups[:], classified[:]
            access(0, buf, 1, mt)
            box[access.__name__] = (list(lookups), list(classified))
        box["bound"] = len(fh.engine.planner.replay)
        fh.close()

    run_spmd(1, worker)
    assert box["write_at"] == ([1], [True])
    assert box["read_at"] == ([1], [True])
    assert box["bound"] == 2


def test_any_c_contiguous_buffer_replays_unvalidated(monkeypatch):
    """A ``float64`` or 2-D buffer is C-contiguous, so its flat byte view
    is O(1): its replays build no ``MemDescriptor`` and leave the bytes
    and every counter a ``uint8`` buffer's replays leave."""
    from repro.core.gather import kernel_path_counts
    from repro.io.fileview import MemDescriptor

    built = []
    real_init = MemDescriptor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(MemDescriptor, "__init__", counting_init)
    disp, ft, count, mt = VIEWS["strided_multiple"][:4]
    out = {}
    for buf_kind in BUFFERS:
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/b", MODE_CREATE | MODE_RDWR)
            fh.set_view(disp, dt.BYTE, ft)
            paths0 = kernel_path_counts()
            raw = np.arange(2 * mt.size, dtype=np.uint8)
            fh.write_at(0, raw, count, mt)  # binds, on a uint8 buffer
            fh.read_at(0, raw.copy(), count, mt)
            del built[:]
            reads = []
            for k in range(1, 5):
                fh.write_at(k * mt.size, _buffer_of(buf_kind, raw[::-1]
                                                    .copy()), count, mt)
                got = np.zeros(2 * mt.size, dtype=np.uint8)
                fh.read_at(k * mt.size, _buffer_of(buf_kind, got), count,
                           mt)
                reads.append(got)
            counters = dict(fh.engine.stats.snapshot())
            counters.update(fh.simfile.stats.snapshot())
            counters.update({k: v - paths0[k]
                             for k, v in kernel_path_counts().items()})
            out[buf_kind] = (len(built), reads, counters,
                             fh.simfile.contents())
            fh.close()

        run_spmd(1, worker)
    assert out["uint8"][2]["plan_replays"] == 8
    for buf_kind in BUFFERS:
        n_built, reads, counters, image = out[buf_kind]
        assert n_built == 0, buf_kind
        assert counters == out["uint8"][2], buf_kind
        assert np.array_equal(image, out["uint8"][3]), buf_kind
        for a, b in zip(reads, out["uint8"][1]):
            assert np.array_equal(a, b), buf_kind
