"""Gather/scatter kernels: every dispatch path, bounds, and a
differential property test of compiled and one-shot kernels against a
per-block slice-copy loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blockprog import _IDX_CAP, BlockProgram
from repro.core.gather import (
    _ELEM_MIN,
    _SMALL_N,
    _uniform_stride,
    block_index,
    classify,
    gather_blocks,
    kernel_path_counts,
    pair_blocks,
    scatter_blocks,
)
from repro.errors import FFError
from tests.conftest import fill_pattern


def ref_gather(src, offs, lens):
    return np.concatenate(
        [src[o : o + ln] for o, ln in zip(offs, lens)]
    ) if len(offs) else np.empty(0, dtype=np.uint8)


def arrs(pairs):
    offs = np.array([o for o, _ in pairs], dtype=np.int64)
    lens = np.array([ln for _, ln in pairs], dtype=np.int64)
    return offs, lens


class TestBlockIndex:
    def test_uniform(self):
        offs, lens = arrs([(0, 2), (10, 2)])
        assert block_index(offs, lens).tolist() == [0, 1, 10, 11]

    def test_ragged(self):
        offs, lens = arrs([(0, 3), (10, 1), (20, 2)])
        assert block_index(offs, lens).tolist() == [0, 1, 2, 10, 20, 21]

    def test_empty(self):
        offs, lens = arrs([])
        assert block_index(offs, lens).size == 0


class TestGather:
    @pytest.mark.parametrize(
        "pairs",
        [
            [(0, 16)],  # single block
            [(0, 4), (8, 4), (16, 4)],  # uniform stride (strided view)
            [(0, 4), (9, 4), (30, 4)],  # irregular offsets, uniform len
            [(0, 3), (9, 1), (30, 7)],  # ragged
            [(8, 4), (0, 4)],  # backwards (type-map order)
        ],
    )
    def test_matches_reference(self, pairs):
        src = fill_pattern(64)
        offs, lens = arrs(pairs)
        total = int(lens.sum())
        out = np.zeros(total + 4, dtype=np.uint8)
        n = gather_blocks(src, offs, lens, out, 2)
        assert n == total
        assert (out[2 : 2 + total] == ref_gather(src, offs, lens)).all()
        assert out[0] == 0 and out[total + 2] == 0

    def test_empty(self):
        src = fill_pattern(8)
        offs, lens = arrs([])
        assert gather_blocks(src, offs, lens, np.zeros(4, np.uint8)) == 0

    def test_overlapping_blocks_read_ok(self):
        src = fill_pattern(16)
        offs, lens = arrs([(0, 8), (4, 8)])
        out = np.zeros(16, dtype=np.uint8)
        gather_blocks(src, offs, lens, out)
        assert (out == ref_gather(src, offs.tolist(), lens.tolist())).all()


class TestScatter:
    @pytest.mark.parametrize(
        "pairs",
        [
            [(0, 16)],
            [(0, 4), (8, 4), (16, 4)],
            [(0, 4), (9, 4), (30, 4)],
            [(0, 3), (9, 1), (30, 7)],
            [(8, 4), (0, 4)],
        ],
    )
    def test_inverse_of_gather(self, pairs):
        offs, lens = arrs(pairs)
        total = int(lens.sum())
        data = fill_pattern(total, seed=8)
        dst = np.zeros(64, dtype=np.uint8)
        n = scatter_blocks(dst, offs, lens, data)
        assert n == total
        regathered = np.zeros(total, dtype=np.uint8)
        gather_blocks(dst, offs, lens, regathered)
        assert (regathered == data).all()

    def test_untouched_bytes_stay(self):
        offs, lens = arrs([(4, 4)])
        dst = np.full(16, 9, dtype=np.uint8)
        scatter_blocks(dst, offs, lens, np.zeros(4, np.uint8))
        assert (dst[:4] == 9).all() and (dst[8:] == 9).all()
        assert (dst[4:8] == 0).all()

    def test_src_pos(self):
        offs, lens = arrs([(0, 4)])
        data = fill_pattern(12)
        dst = np.zeros(4, dtype=np.uint8)
        scatter_blocks(dst, offs, lens, data, src_pos=8)
        assert (dst == data[8:12]).all()


class TestUniformStride:
    def test_uniform(self):
        assert _uniform_stride(np.array([3, 8, 13, 18], np.int64)) == 5

    def test_negative(self):
        assert _uniform_stride(np.array([30, 20, 10, 0], np.int64)) == -10

    def test_degenerate(self):
        assert _uniform_stride(np.array([], np.int64)) == 0
        assert _uniform_stride(np.array([7], np.int64)) == 0

    def test_early_exit_on_first_mismatch(self):
        # Third offset breaks the step: the O(n) diff must be skipped —
        # feed an array whose tail would *also* match the step so only
        # the early exit can return None here.
        offs = np.array([0, 8, 17] + [17 + 8 * i for i in range(1, 50)],
                        np.int64)
        assert _uniform_stride(offs) is None

    def test_late_mismatch_detected(self):
        offs = np.arange(0, 400, 8, dtype=np.int64)
        offs[-1] += 1
        assert _uniform_stride(offs) is None


class TestHardening:
    """Negative-stride and overlapping-offset inputs above _SMALL_N.

    Type-map order need not be buffer order (non-monotonic memtypes):
    the strided-view fast path must refuse these and the index paths
    must reproduce the per-block reference loop, including its
    last-block-wins overwrite order for overlapping scatters.
    """

    N = _SMALL_N + 8  # force past the small-loop path

    def _ref_scatter(self, span, offs, lens, data):
        dst = np.zeros(span, dtype=np.uint8)
        pos = 0
        for o, ln in zip(offs.tolist(), lens.tolist()):
            dst[o : o + ln] = data[pos : pos + ln]
            pos += ln
        return dst

    def cases(self):
        n = self.N
        return {
            # uniform lengths, offsets running backwards (fancy-index)
            "negative_stride": arrs([((n - 1 - i) * 8, 4)
                                     for i in range(n)]),
            # uniform lengths, stride < length: blocks overlap
            "overlapping_stride": arrs([(i * 2, 4) for i in range(n)]),
            # backwards *and* overlapping
            "negative_overlapping": arrs([((n - 1 - i) * 2, 4)
                                          for i in range(n)]),
            # ragged + duplicate offsets (ragged-index path)
            "duplicate_offsets": arrs([(8 * (i // 2), (i % 3) + 1)
                                       for i in range(n)]),
            # long blocks backwards (big-block loop path)
            "negative_big": arrs([((n - 1 - i) * 600, 512)
                                  for i in range(n)]),
            # long blocks overlapping
            "overlapping_big": arrs([(i * 100, 512) for i in range(n)]),
        }

    @pytest.mark.parametrize("name", [
        "negative_stride", "overlapping_stride", "negative_overlapping",
        "duplicate_offsets", "negative_big", "overlapping_big",
    ])
    def test_gather_matches_reference(self, name):
        offs, lens = self.cases()[name]
        span = int(offs.max() + lens.max()) + 8
        src = fill_pattern(span, seed=5)
        total = int(lens.sum())
        out = np.zeros(total, dtype=np.uint8)
        assert gather_blocks(src, offs, lens, out) == total
        assert (out == ref_gather(src, offs.tolist(), lens.tolist())).all()

    @pytest.mark.parametrize("name", [
        "negative_stride", "overlapping_stride", "negative_overlapping",
        "duplicate_offsets", "negative_big", "overlapping_big",
    ])
    def test_scatter_matches_reference(self, name):
        offs, lens = self.cases()[name]
        span = int(offs.max() + lens.max()) + 8
        total = int(lens.sum())
        data = fill_pattern(total, seed=6)
        dst = np.zeros(span, dtype=np.uint8)
        assert scatter_blocks(dst, offs, lens, data) == total
        assert (dst == self._ref_scatter(span, offs, lens, data)).all()


def ref_scatter(dst, offs, lens, data, pos=0):
    """Per-block slice-copy loop, in list order (last block wins)."""
    for o, ln in zip(offs.tolist(), lens.tolist()):
        dst[o : o + ln] = data[pos : pos + ln]
        pos += ln


def fired(before):
    """Kernel paths bumped since the ``before`` snapshot."""
    after = kernel_path_counts()
    return {k: after[k] - before[k] for k in after if after[k] != before[k]}


class TestKernelChoice:
    """Which kernel a block list gets, and what it precomputes."""

    @pytest.mark.parametrize("pairs,path", [
        # small_indep's 8 x 8 B: a short uniform list still takes one view
        ([(i * 16, 8) for i in range(8)], "strided_view"),
        ([(i * 8, 8) for i in range(40)], "strided_view"),
        # uniform negative step, blocks apart: a view with a negative stride
        ([((39 - i) * 16, 8) for i in range(40)], "strided_view"),
        ([(0, 3), (9, 1), (30, 7)], "small_loop"),
        ([(7, 5)], "single"),
        # uniform, ascending, irregular: one element per block
        ([(i * 20 + (i % 3), 16) for i in range(40)], "fancy_index"),
        ([(i * 600 + (i % 3), 512) for i in range(40)], "fancy_index"),
        # tiny uniform blocks: byte index
        ([(i * 8 + (i % 3), 2) for i in range(40)], "fancy_index"),
        # long overlapping blocks: per-block loop
        ([(i * 100 + (i % 3), 512) for i in range(40)], "big_block"),
        ([(i * 9, (i % 5) + 1) for i in range(40)], "ragged_index"),
    ])
    def test_path_same_for_compiled_and_one_shot(self, pairs, path):
        offs, lens = arrs(pairs)
        assert classify(offs, lens).name == path
        assert BlockProgram(offs, lens).kind_name == path
        src = fill_pattern(int((offs + lens).max()), seed=2)
        out = np.zeros(int(lens.sum()), np.uint8)
        before = kernel_path_counts()
        gather_blocks(src, offs, lens, out)
        assert fired(before) == {f"kernel_path_{path}": 1}

    def test_element_index_is_one_entry_per_block(self):
        n, size = 64, 32
        offs, lens = arrs([(i * 40 + (i % 5), size) for i in range(n)])
        prog = BlockProgram(offs, lens)
        assert prog.kind_name == "fancy_index"
        assert prog.index_nbytes == 8 * n  # a byte index: 8 * n * size

    def test_tiny_blocks_keep_the_byte_index(self):
        n, size = 64, _ELEM_MIN - 1
        offs, lens = arrs([(i * 16 + (i % 5), size) for i in range(n)])
        assert BlockProgram(offs, lens).index_nbytes == 8 * n * size

    def test_overlapping_tiny_scatter_last_block_wins(self):
        offs, lens = arrs([(i * 2, 4) for i in range(_SMALL_N + 8)])
        data = fill_pattern(int(lens.sum()), seed=1)
        got = np.zeros(64, np.uint8)
        ref = np.zeros(64, np.uint8)
        scatter_blocks(got, offs, lens, data)
        ref_scatter(ref, offs, lens, data)
        assert (got == ref).all()


class TestBounds:
    """A block list outside the buffer raises ``FFError`` before any byte
    moves — on every kernel, compiled and one-shot, both directions."""

    CASES = {
        "single": [(200, 64)],
        "small_loop": [(0, 3), (9, 1), (250, 7)],
        "strided_view": [(i * 16, 8) for i in range(64)],
        "strided_backwards": [((63 - i) * 16, 8) for i in range(64)],
        "fancy_index": [(i * 20 + (i % 3), 16) for i in range(40)],
        "byte_index": [(i * 8 + (i % 3), 2) for i in range(40)],
        "big_block": [(i * 100 + (i % 3), 512) for i in range(40)],
        "ragged_index": [(i * 9, (i % 5) + 1) for i in range(40)],
    }

    @staticmethod
    def run(mode, direction, offs, lens, buf, base):
        """One kernel call on ``buf``; the other side is a fresh array."""
        other = np.zeros(int(lens.sum()) + 8, np.uint8)
        if mode == "compiled":
            prog = BlockProgram(offs, lens)
            if direction == "gather":
                return prog.gather(buf, base, other, 0)
            return prog.scatter(buf, base, other, 0)
        if direction == "gather":
            return gather_blocks(buf, offs + base, lens, other, 0)
        return scatter_blocks(buf, offs + base, lens, other, 0)

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("mode", ["compiled", "one_shot"])
    @pytest.mark.parametrize("direction", ["gather", "scatter"])
    def test_past_the_end(self, name, mode, direction):
        offs, lens = arrs(self.CASES[name])
        hi = int((offs + lens).max())
        buf = np.full(hi - 1, 7, np.uint8)  # one byte short
        with pytest.raises(FFError, match=rf"\[\d+, {hi}\).*holds {hi - 1}"):
            self.run(mode, direction, offs, lens, buf, 0)
        assert (buf == 7).all()

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("mode", ["compiled", "one_shot"])
    @pytest.mark.parametrize("direction", ["gather", "scatter"])
    def test_negative_translated_offset(self, name, mode, direction):
        offs, lens = arrs(self.CASES[name])
        lo = int(offs.min())
        buf = np.full(int((offs + lens).max()) + 64, 7, np.uint8)
        with pytest.raises(FFError, match=rf"\[-1, "):
            self.run(mode, direction, offs, lens, buf, -lo - 1)
        assert (buf == 7).all()

    def test_strided_program_past_a_short_source(self):
        # 64 blocks of 8 B at stride 16 span 1016 bytes; the source
        # holds 256, so no byte may be read from past its end.
        prog = BlockProgram(np.arange(64) * 16, np.full(64, 8))
        out = np.zeros(512, np.uint8)
        with pytest.raises(FFError, match=r"\[0, 1016\).*holds 256"):
            prog.gather(fill_pattern(256), 0, out)
        assert (out == 0).all()


@st.composite
def block_lists(draw):
    """``(offsets, lengths)`` in one of the layouts a type map produces,
    all offsets >= 0."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(4900, 5100)))
    size = draw(st.integers(1, 300))
    layout = draw(st.sampled_from([
        "dense", "gapped", "irregular", "overlapping", "negative_step",
        "shuffled", "ragged",
    ]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lens = np.full(n, size, np.int64)
    if layout == "dense":
        offs = np.arange(n, dtype=np.int64) * size
    elif layout == "gapped":
        offs = np.arange(n, dtype=np.int64) * (size + draw(
            st.integers(1, 64)))
    elif layout == "irregular":
        offs = np.cumsum(size + rng.integers(0, size + 1, n)) - size
    elif layout == "overlapping":
        offs = np.cumsum(rng.integers(0, size, n))
    elif layout == "negative_step":
        offs = (np.arange(n, dtype=np.int64)[::-1]
                * (size + draw(st.integers(0, 8))))
    elif layout == "shuffled":
        offs = rng.permutation(np.arange(n, dtype=np.int64) * (size + 3))
    else:
        lens = rng.integers(1, size + 1, n).astype(np.int64)
        offs = np.cumsum(lens + rng.integers(0, 9, n)) - lens
    return offs.astype(np.int64), lens


def one_shot_path(offs, lens, compiled):
    """The path a one-shot call must fire, given the compiled call's:
    the same one, except where a program's byte index would pass
    ``_IDX_CAP`` and the program loops instead."""
    assert len(compiled) == 1 and list(compiled.values()) == [1]
    if classify(offs, lens).name != classify(offs, lens, _IDX_CAP).name:
        assert compiled == {"kernel_path_big_block": 1}
        assert int(lens.sum()) > _IDX_CAP
        return {f"kernel_path_{classify(offs, lens).name}": 1}
    return compiled


class TestDifferential:
    """Compiled and one-shot kernels against a per-block slice-copy loop:
    same bytes, same return, one kernel-path count per call."""

    @settings(max_examples=120, deadline=None)
    @given(blocks=block_lists(), pad=st.integers(0, 40),
           base=st.integers(-40, 40), pos=st.integers(0, 16))
    def test_gather(self, blocks, pad, base, pos):
        offs, lens = blocks
        offs = offs + pad  # where the blocks sit in the buffer
        total = int(lens.sum())
        src = fill_pattern(int((offs + lens).max()) + pad, seed=3)
        src.setflags(write=False)
        ref = np.zeros(total + pos + 8, np.uint8)
        ref[pos : pos + total] = np.concatenate(
            [src[o : o + ln] for o, ln in zip(offs.tolist(), lens.tolist())])

        prog = BlockProgram(offs - base, lens)
        got = np.zeros_like(ref)
        before = kernel_path_counts()
        assert prog.gather(src, base, got, pos) == total
        compiled = fired(before)
        assert (got == ref).all()

        got = np.zeros_like(ref)
        before = kernel_path_counts()
        assert gather_blocks(src, offs, lens, got, pos) == total
        assert fired(before) == one_shot_path(offs, lens, compiled)
        assert (got == ref).all()

    @settings(max_examples=120, deadline=None)
    @given(blocks=block_lists(), pad=st.integers(0, 40),
           base=st.integers(-40, 40), pos=st.integers(0, 16))
    def test_scatter(self, blocks, pad, base, pos):
        offs, lens = blocks
        offs = offs + pad
        total = int(lens.sum())
        span = int((offs + lens).max()) + pad
        data = fill_pattern(total + pos, seed=4)
        data.setflags(write=False)
        ref = fill_pattern(span, seed=5)
        start = ref.copy()
        ref_scatter(ref, offs, lens, data, pos)

        prog = BlockProgram(offs - base, lens)
        got = start.copy()
        before = kernel_path_counts()
        assert prog.scatter(got, base, data, pos) == total
        compiled = fired(before)
        assert (got == ref).all()

        got = start.copy()
        before = kernel_path_counts()
        assert scatter_blocks(got, offs, lens, data, pos) == total
        assert fired(before) == one_shot_path(offs, lens, compiled)
        assert (got == ref).all()


# ----------------------------------------------------------------------
# Two-sided (pair) kernels
# ----------------------------------------------------------------------
def byte_index(offs, lens):
    """Per-byte positions of a block list, in list order (oracle)."""
    if not len(offs):
        return np.empty(0, np.int64)
    return np.concatenate([np.arange(o, o + ln, dtype=np.int64)
                           for o, ln in zip(offs.tolist(), lens.tolist())])


def lay_out(lens, layout, rng, size):
    """Offsets (all >= 0) placing blocks of ``lens`` in ``layout``."""
    n = lens.size
    if layout == "dense":
        return np.cumsum(lens) - lens
    if layout == "gapped":
        gap = int(rng.integers(1, 64))
        return np.cumsum(lens + gap) - lens
    if layout == "irregular":
        return np.cumsum(lens + rng.integers(0, size + 1, n)) - lens
    if layout == "negative_step":
        gap = int(rng.integers(0, 9))
        rev = lens[::-1]
        return (np.cumsum(rev + gap) - rev)[::-1]
    if layout == "shuffled":
        order = rng.permutation(n)
        placed = np.cumsum(lens[order] + 3) - lens[order]
        offs = np.empty(n, np.int64)
        offs[order] = placed
        return offs
    # overlapping: each block starts inside its predecessor
    return np.cumsum(rng.integers(0, max(1, int(lens.min())), n))


@st.composite
def block_pairs(draw):
    """``(write, (file offs, lens), (mem offs, lens))``: two block lists
    holding the same bytes.  The file side never overlaps; the memory
    side may overlap only as a write source."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(300, 700)))
    size = draw(st.integers(1, 300))
    write = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        flens = np.full(n, size, np.int64)
    else:
        flens = rng.integers(1, size + 1, n).astype(np.int64)
    flay = draw(st.sampled_from(["dense", "gapped", "irregular"]))
    foffs = lay_out(flens, flay, rng, size).astype(np.int64)
    if draw(st.booleans()):
        mlens = flens.copy()  # equal lengths: paired as they are
    else:  # re-cut the same bytes at other boundaries
        total = int(flens.sum())
        k = int(rng.integers(1, min(total, 2 * n) + 1))
        cuts = np.unique(rng.integers(1, total, k - 1)) if total > 1 \
            else np.empty(0, np.int64)
        ends = np.concatenate((cuts, [total]))
        mlens = np.diff(np.concatenate(([0], ends))).astype(np.int64)
    layouts = ["dense", "gapped", "irregular", "negative_step", "shuffled"]
    if write:
        layouts.append("overlapping")
    mlay = draw(st.sampled_from(layouts))
    moffs = lay_out(mlens, mlay, rng, size).astype(np.int64)
    return write, (foffs, flens), (moffs, mlens)


def side_buffer(span, pad, misaligned, seed):
    """A buffer of ``span + pad`` bytes, one byte off 8-alignment when
    ``misaligned``."""
    raw = fill_pattern(span + pad + 9, seed=seed)
    start = 1 if misaligned else 0
    return raw[start : start + span + pad]


class TestPairKernel:
    """Two-sided kernels against a per-byte oracle: same bytes, one
    kernel-path count per call, misaligned and read-only buffers."""

    def test_pair_blocks_equal_lengths_pass_through(self):
        fo, fl = arrs([(0, 4), (8, 4)])
        mo = np.array([100, 50], np.int64)
        a, b, lens = pair_blocks(fo, fl, mo, fl)
        assert a is fo and b is mo and lens is fl

    def test_pair_blocks_ragged_cuts_at_union(self):
        fo, fl = arrs([(0, 3), (10, 5)])  # data [0, 3) [3, 8)
        mo, ml = arrs([(100, 2), (200, 6)])  # data [0, 2) [2, 8)
        a, b, lens = pair_blocks(fo, fl, mo, ml)
        assert a.tolist() == [0, 2, 10]
        assert b.tolist() == [100, 200, 201]
        assert lens.tolist() == [2, 1, 5]

    def test_pair_blocks_rejects_unequal_totals(self):
        fo, fl = arrs([(0, 3)])
        with pytest.raises(FFError, match="cannot pair"):
            pair_blocks(fo, fl, fo, fl + 1)

    @settings(max_examples=150, deadline=None)
    @given(pair=block_pairs(), fpad=st.integers(0, 24),
           mpad=st.integers(0, 24), fmis=st.booleans(),
           mmis=st.booleans(), ro=st.booleans())
    def test_matches_per_byte_oracle(self, pair, fpad, mpad, fmis, mmis,
                                     ro):
        write, (fo, fl), (mo, ml) = pair
        fbuf = side_buffer(int((fo + fl).max()), fpad, fmis, seed=1)
        mbuf = side_buffer(int((mo + ml).max()), mpad, mmis, seed=2)
        fidx, midx = byte_index(fo, fl), byte_index(mo, ml)
        a, b, lens = pair_blocks(fo, fl, mo, ml)
        # Compile relocated by the pads; each call translates back.
        prog = BlockProgram(a - fpad, lens, other=b - mpad)
        if write:  # memory -> file
            ref = fbuf.copy()
            ref[fidx] = mbuf[midx]
            if ro:
                mbuf.setflags(write=False)
            before = kernel_path_counts()
            n = prog.kernel.scatter(fbuf, fpad, mbuf, mpad)
            got = fbuf
        else:  # file -> memory
            ref = mbuf.copy()
            ref[midx] = fbuf[fidx]
            if ro:
                fbuf.setflags(write=False)
            before = kernel_path_counts()
            n = prog.kernel.gather(fbuf, fpad, mbuf, mpad)
            got = mbuf
        assert n == int(fl.sum())
        assert list(fired(before).values()) == [1]
        assert (got == ref).all()

    @pytest.mark.parametrize("misaligned", [False, True])
    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_integer_elements_and_misaligned_fallback(self, size,
                                                      misaligned):
        n = 64
        fo, fl = arrs([(i * 2 * size, size) for i in range(n)])
        mo = np.arange(n, dtype=np.int64)[::-1] * 3 * size
        prog = BlockProgram(fo, fl, other=mo)
        assert prog.kind_name == "strided_view"
        assert prog.kernel.dtype == np.dtype(f"u{size}")
        fbuf = side_buffer(2 * n * size, 0, misaligned, seed=3)
        mbuf = side_buffer(3 * n * size, 0, misaligned, seed=4)
        ref = mbuf.copy()
        ref[byte_index(mo, fl)] = fbuf[byte_index(fo, fl)]
        before = kernel_path_counts()
        prog.kernel.gather(fbuf, 0, mbuf, 0)
        assert fired(before) == {"kernel_path_strided_view": 1}
        assert (mbuf == ref).all()

    @pytest.mark.parametrize("direction", ["gather", "scatter"])
    def test_staged_void_copy_with_an_element_index(self, direction):
        # 8-byte blocks, strided on one side and an element index on the
        # other: the index view cannot take uint64, so the void copy goes
        # through a contiguous temporary.
        n = 64
        fo, fl = arrs([(i * 16, 8) for i in range(n)])
        mo = np.cumsum(np.full(n, 8) + np.arange(n) % 3) - 8
        prog = BlockProgram(fo, fl, other=mo)
        k = prog.kernel
        assert prog.kind_name == "fancy_index" and k.stage
        assert k.dtype == np.dtype((np.void, 8))
        fbuf = fill_pattern(16 * n, seed=5)
        mbuf = fill_pattern(int(mo[-1]) + 8, seed=6)
        fidx, midx = byte_index(fo, fl), byte_index(mo, fl)
        if direction == "gather":
            ref = mbuf.copy()
            ref[midx] = fbuf[fidx]
            k.gather(fbuf, 0, mbuf, 0)
            assert (mbuf == ref).all()
        else:
            ref = fbuf.copy()
            ref[fidx] = mbuf[midx]
            k.scatter(fbuf, 0, mbuf, 0)
            assert (fbuf == ref).all()

    def test_contiguous_memory_side_needs_no_index(self):
        # Ragged file blocks against one memory run: only the file side
        # carries a byte index.
        fo, fl = arrs([(i * 9, (i % 5) + 1) for i in range(40)])
        total = int(fl.sum())
        a, b, lens = pair_blocks(fo, fl, np.array([7], np.int64),
                                 np.array([total], np.int64))
        prog = BlockProgram(a, lens, other=b)
        assert prog.kind_name == "ragged_index"
        assert prog.index_nbytes == 8 * total

    @pytest.mark.parametrize("side", ["file", "memory"])
    def test_bounds_on_both_sides(self, side):
        fo, fl = arrs([(i * 16, 8) for i in range(40)])
        mo = np.arange(40, dtype=np.int64) * 24
        prog = BlockProgram(fo, fl, other=mo)
        # The sides span [0, 632) and [0, 944): one of them a byte short.
        fbuf = np.full(632 - (side == "file"), 7, np.uint8)
        mbuf = np.full(944 - (side == "memory"), 5, np.uint8)
        with pytest.raises(FFError, match="spans bytes"):
            prog.kernel.gather(fbuf, 0, mbuf, 0)
        with pytest.raises(FFError, match="spans bytes"):
            prog.kernel.scatter(fbuf, 0, mbuf, 0)
        assert (fbuf == 7).all() and (mbuf == 5).all()
