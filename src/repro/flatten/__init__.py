"""Explicit (list-based) flattening of MPI datatypes — the ROMIO baseline.

This subpackage reproduces the conventional technique the paper's §2
analyzes: a datatype is *explicitly flattened* into an **ol-list** of
``(offset, length)`` tuples, one per maximal contiguous block, which is

* built in O(Nblock) time (:func:`flatten_datatype`),
* stored in O(Nblock) memory (16 bytes per tuple, as the paper counts),
* traversed linearly for navigation (:class:`OLList` search operations),
* expanded per access range and exchanged between processes for collective
  I/O (:func:`repro.flatten.list_ops.expand_range`),
* merged across processes for ROMIO's collective-write contiguity
  optimization (:func:`repro.flatten.list_ops.merge_lists`).

The list-based I/O engine (:mod:`repro.io.engines.list_based`) is built
exclusively on these primitives so that its costs mirror ROMIO's.
"""

from repro.flatten.ol_list import OLList
from repro.flatten.flattener import (
    flatten_cached,
    flatten_count,
    flatten_datatype,
)
from repro.flatten.list_ops import expand_range, merge_lists

__all__ = [
    "OLList",
    "flatten_datatype",
    "flatten_cached",
    "flatten_count",
    "expand_range",
    "merge_lists",
]
