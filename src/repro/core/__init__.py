"""Listless I/O core — the paper's contribution.

This subpackage implements *flattening-on-the-fly* (Träff et al. [14] in
the paper) and the datatype-navigation machinery of listless I/O:

* :mod:`repro.core.dataloop` — compilation of a datatype tree into a
  compact, non-recursive loop program.  Compilation cost is proportional
  to the *constructor tree*, never to Nblock.
* :mod:`repro.core.ff_pack` — ``ff_pack`` / ``ff_unpack``: pack or unpack
  an arbitrary byte range (``skipbytes``, limited by ``packsize``) of a
  typed buffer, with all copying done by NumPy gather/scatter kernels (the
  stand-in for the SX vector gather/scatter hardware).
* :mod:`repro.core.navigation` — ``ff_size`` / ``ff_extent``: size↔extent
  conversion at arbitrary offsets, O(depth · log k) per call.
* :mod:`repro.core.fileview_cache` — the compact fileview representation
  exchanged once per ``set_view`` (paper §3.2.3, "fileview caching").
* :mod:`repro.core.mergeview` — the merged view of all processes'
  filetypes and the single-call collective-write contiguity check.
* :mod:`repro.core.blockprog` — compiled block programs: cached,
  relocatable ``blocks_range`` results with precompiled gather/scatter
  dispatch, reused across the periodic windows of sieving and two-phase
  loops (see ``docs/kernels.md``).
"""

from repro.core.blockprog import (
    BlockProgram,
    blockprog_stats,
    blocks_range_cached,
    program_for,
)
from repro.core.dataloop import Dataloop, compile_dataloop
from repro.core.ff_pack import ff_pack, ff_unpack
from repro.core.gather import kernel_path_counts
from repro.core.navigation import (
    ff_extent,
    ff_size,
    ext_of_size,
    size_of_ext,
)
from repro.core.fileview_cache import FileviewCache, CompactFileview
from repro.core.mergeview import build_mergeview, Mergeview

__all__ = [
    "BlockProgram",
    "blockprog_stats",
    "blocks_range_cached",
    "program_for",
    "kernel_path_counts",
    "Dataloop",
    "compile_dataloop",
    "ff_pack",
    "ff_unpack",
    "ff_extent",
    "ff_size",
    "ext_of_size",
    "size_of_ext",
    "FileviewCache",
    "CompactFileview",
    "build_mergeview",
    "Mergeview",
]
