"""Shared fixtures and hypothesis strategies for the test suite.

The central oracle is the type map (:func:`repro.datatypes.packing`):
every engine-level operation must move exactly the bytes the type map
says.  ``datatype_trees`` generates random constructor trees bounded in
size so property tests explore vectors-of-structs-of-indexed shapes the
hand-written tests would never contain.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro import datatypes as dt
from repro.datatypes.base import Datatype

# ----------------------------------------------------------------------
# Hypothesis strategies for datatype trees
# ----------------------------------------------------------------------
_BASICS = [dt.BYTE, dt.INT, dt.DOUBLE, dt.SHORT]


def _leaf() -> st.SearchStrategy[Datatype]:
    return st.sampled_from(_BASICS)


def _combine(children: st.SearchStrategy[Datatype]) -> st.SearchStrategy:
    def mk_contig(base, count):
        return dt.contiguous(count, base)

    def mk_vector(base, count, blocklen, gap):
        return dt.vector(count, blocklen, blocklen + gap, base)

    def mk_hvector(base, count, blocklen, gapbytes):
        stride = blocklen * base.extent + gapbytes
        return dt.hvector(count, blocklen, stride, base)

    def mk_indexed(base, blocklens, gaps):
        displs = []
        pos = 0
        for b, g in zip(blocklens, gaps):
            displs.append(pos)
            pos += b + g
        return dt.indexed(blocklens, displs, base)

    def mk_struct(specs):
        # specs: list of (blocklen, gap, type); displacements stacked
        # forward so the result stays monotonic-friendly.
        blocklens, displs, types = [], [], []
        pos = 0
        for b, g, t in specs:
            displs.append(pos)
            blocklens.append(b)
            types.append(t)
            pos += b * t.extent + g
        return dt.struct(blocklens, displs, types)

    small = st.integers(min_value=1, max_value=4)
    gap = st.integers(min_value=0, max_value=9)
    return st.one_of(
        st.builds(mk_contig, children, small),
        st.builds(mk_vector, children, small, small, gap),
        st.builds(mk_hvector, children, small, small, gap),
        st.builds(
            mk_indexed,
            children,
            st.lists(small, min_size=1, max_size=4),
            st.lists(gap, min_size=4, max_size=4),
        ),
        st.builds(
            mk_struct,
            st.lists(st.tuples(small, gap, children), min_size=1,
                     max_size=3),
        ),
    )


def datatype_trees(max_depth: int = 3) -> st.SearchStrategy[Datatype]:
    """Random, data-carrying datatype trees (monotonic by construction,
    so they are also legal filetypes over BYTE)."""
    return st.recursive(_leaf(), _combine, max_leaves=6).filter(
        lambda t: 0 < t.size <= 4096
    )


# ----------------------------------------------------------------------
# Deterministic sample types used across many tests
# ----------------------------------------------------------------------
@pytest.fixture
def sample_types():
    """A dict of representative datatypes covering every constructor."""
    vec = dt.vector(4, 2, 5, dt.DOUBLE)
    return {
        "basic": dt.DOUBLE,
        "contig": dt.contiguous(6, dt.INT),
        "vector": vec,
        "hvector": dt.hvector(3, 2, 50, dt.INT),
        "indexed": dt.indexed([3, 1, 2], [0, 5, 9], dt.INT),
        "hindexed": dt.hindexed([1, 2], [4, 40], dt.DOUBLE),
        "struct": dt.struct(
            [1, 1, 1], [0, 8, 200], [dt.LB, vec, dt.UB]
        ),
        "resized": dt.resized(vec, 0, 200),
        "subarray": dt.subarray([6, 6], [3, 2], [2, 1], dt.DOUBLE),
        "nested": dt.contiguous(2, dt.vector(3, 1, 2, dt.INT)),
    }


def fill_pattern(nbytes: int, seed: int = 0) -> np.ndarray:
    """Deterministic non-trivial byte pattern."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)
