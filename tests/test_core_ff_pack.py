"""``ff_pack``/``ff_unpack`` against the typemap oracle.

The critical property is *segment consistency*: packing a buffer in
arbitrary (skipbytes, packsize) segments must produce exactly the bytes
of a whole-type oracle pack, for any segmentation — that is what the
engine's bounded-buffer loops rely on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import datatypes as dt
from repro.core import ff_pack, ff_unpack
from repro.datatypes.packing import pack_typemap, unpack_typemap
from repro.errors import FFError
from repro.intervals import tile
from tests.conftest import datatype_trees, fill_pattern


class TestFFPackWhole:
    def test_matches_oracle(self, sample_types):
        for name, t in sample_types.items():
            if t.size == 0:
                continue
            src = fill_pattern(t.true_ub + 8, seed=1)
            ref = pack_typemap(src, 1, t)
            out = np.zeros(t.size, dtype=np.uint8)
            n = ff_pack(src, 1, t, 0, out, t.size)
            assert n == t.size, name
            assert (out == ref).all(), name

    def test_multi_count(self, sample_types):
        for name, t in sample_types.items():
            if t.size == 0 or t.extent <= 0:
                continue
            count = 3
            span = (count - 1) * t.extent + t.true_ub + 8
            src = fill_pattern(span, seed=2)
            ref = pack_typemap(src, count, t)
            out = np.zeros(ref.size, dtype=np.uint8)
            n = ff_pack(src, count, t, 0, out, ref.size)
            assert n == ref.size and (out == ref).all(), name

    def test_zero_count(self):
        out = np.zeros(8, dtype=np.uint8)
        assert ff_pack(np.zeros(8, np.uint8), 0, dt.DOUBLE, 0, out, 8) == 0

    def test_origin(self):
        src = fill_pattern(40)
        t = dt.vector(2, 1, 2, dt.DOUBLE)
        out = np.zeros(16, dtype=np.uint8)
        ff_pack(src, 1, t, 0, out, 16, origin=8)
        assert (out == pack_typemap(src, 1, t, origin=8)).all()

    def test_negative_skip_rejected(self):
        with pytest.raises(FFError):
            ff_pack(np.zeros(8, np.uint8), 1, dt.DOUBLE, -1,
                    np.zeros(8, np.uint8), 8)


class TestFFPackSegments:
    @pytest.mark.parametrize("seg", [1, 3, 7, 16, 1000])
    def test_any_segmentation_equals_whole(self, seg, sample_types):
        for name, t in sample_types.items():
            if t.size == 0:
                continue
            count = 2 if t.extent > 0 else 1
            span = (count - 1) * max(t.extent, 0) + t.true_ub + 8
            src = fill_pattern(span, seed=5)
            ref = pack_typemap(src, count, t)
            got = np.zeros(ref.size, dtype=np.uint8)
            for skip, end in tile(0, ref.size, seg):
                n = end - skip
                buf = np.zeros(n, dtype=np.uint8)
                copied = ff_pack(src, count, t, skip, buf, n)
                assert copied == n
                got[skip : skip + n] = buf
            assert (got == ref).all(), (name, seg)

    def test_packsize_larger_than_remaining(self):
        t = dt.contiguous(8, dt.BYTE)
        src = fill_pattern(8)
        buf = np.zeros(100, dtype=np.uint8)
        assert ff_pack(src, 1, t, 6, buf, 100) == 2

    def test_skip_at_end_returns_zero(self):
        t = dt.contiguous(8, dt.BYTE)
        buf = np.zeros(4, dtype=np.uint8)
        assert ff_pack(fill_pattern(8), 1, t, 8, buf, 4) == 0

    @settings(max_examples=60, deadline=None)
    @given(datatype_trees(), st.data())
    def test_random_skip_size(self, t, data):
        src = fill_pattern(t.true_ub + 8, seed=9)
        ref = pack_typemap(src, 1, t)
        skip = data.draw(st.integers(0, t.size))
        size = data.draw(st.integers(0, t.size - skip))
        buf = np.zeros(max(size, 1), dtype=np.uint8)
        copied = ff_pack(src, 1, t, skip, buf, size)
        assert copied == size
        assert (buf[:size] == ref[skip : skip + size]).all()


class TestFFUnpack:
    def test_roundtrip_whole(self, sample_types):
        for name, t in sample_types.items():
            if t.size == 0:
                continue
            src = fill_pattern(t.true_ub + 8, seed=3)
            packed = pack_typemap(src, 1, t)
            dst = np.zeros(t.true_ub + 8, dtype=np.uint8)
            n = ff_unpack(packed, t.size, dst, 1, t, 0)
            assert n == t.size
            assert (pack_typemap(dst, 1, t) == packed).all(), name

    def test_matches_oracle_unpack(self, sample_types):
        for name, t in sample_types.items():
            if t.size == 0 or not t.is_monotonic:
                continue
            packed = fill_pattern(t.size, seed=4)
            dst_ff = np.zeros(t.true_ub + 8, dtype=np.uint8)
            dst_ref = np.zeros(t.true_ub + 8, dtype=np.uint8)
            ff_unpack(packed, t.size, dst_ff, 1, t, 0)
            unpack_typemap(packed, dst_ref, 1, t)
            assert (dst_ff == dst_ref).all(), name

    @pytest.mark.parametrize("seg", [1, 5, 13])
    def test_segmented_unpack(self, seg):
        t = dt.vector(5, 3, 7, dt.INT)
        packed = fill_pattern(t.size, seed=6)
        dst = np.zeros(t.true_ub + 4, dtype=np.uint8)
        for skip, end in tile(0, t.size, seg):
            ff_unpack(packed[skip:end], end - skip, dst, 1, t, skip)
        ref = np.zeros_like(dst)
        unpack_typemap(packed, ref, 1, t)
        assert (dst == ref).all()

    def test_readonly_destination_rejected(self):
        t = dt.contiguous(4, dt.BYTE)
        dst = np.zeros(4, dtype=np.uint8)
        dst.flags.writeable = False
        with pytest.raises(FFError):
            ff_unpack(fill_pattern(4), 4, dst, 1, t, 0)


class TestBufferLayout:
    def test_non_contiguous_destination_rejected(self):
        # A flat byte view of a strided 2-D buffer is a copy: unpacking
        # into it would report success and leave the buffer unchanged.
        t = dt.contiguous(16, dt.BYTE)
        dst = np.zeros((4, 32), dtype=np.uint8)[:, :4]
        with pytest.raises(FFError, match="not C-contiguous"):
            ff_unpack(fill_pattern(16), 16, dst, 1, t, 0)
        assert (dst == 0).all()
        with pytest.raises(FFError, match="not C-contiguous"):
            ff_pack(fill_pattern(16), 1, t, 0, dst, 16)

    def test_non_contiguous_source_is_copied(self):
        t = dt.vector(4, 2, 4, dt.BYTE)
        src = fill_pattern(64, seed=2).reshape(4, 16)[:, :4]
        out = np.zeros(t.size, dtype=np.uint8)
        assert ff_pack(src, 1, t, 0, out, t.size) == t.size
        flat = np.ascontiguousarray(src).reshape(-1)
        assert (out == pack_typemap(flat, 1, t)).all()
