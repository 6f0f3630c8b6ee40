"""Simulated parallel file system.

An in-memory, byte-addressed file store with a POSIX-like access
interface, advisory byte-range locks, optional striping across simulated
disks, and a calibrated device-time model.

The paper's test platforms (NEC SX-6/SX-7) had local file systems with
sustained bandwidths of ~6.5 GB/s (write) and ~8 GB/s (read) — fast
enough that CPU-side datatype handling, not the storage device, dominated
non-contiguous access cost.  The device model defaults to exactly those
figures: every read/write operation charges ``latency + bytes/bandwidth``
of *simulated device time*, which the benchmark harness adds to measured
CPU time, reproducing the paper's regime without sleeping.

Public surface:

* :class:`SimFileSystem` — namespace, open/unlink/stat.
* :class:`SimFile` — the shared file object (pread/pwrite at absolute
  offsets, thread-safe, growable).
* :class:`repro.fs.posix.PosixFile` — a per-open cursor with
  ``lseek/read/write`` for code written against the POSIX interface.
* :class:`RangeLockManager` — advisory byte-range locks, used by
  data-sieving writes exactly as ROMIO uses ``fcntl`` locks.
* :class:`DeviceModel`, :class:`FileStats` — cost accounting.
* :class:`OsFileSystem`, :class:`OsFile`,
  :class:`FcntlRangeLockManager` — the same surfaces over a real
  directory, real descriptors and real ``fcntl`` locks, for the
  multi-process runtime (``docs/runtime.md``).
* :class:`ShardedFileSystem`, :class:`ShardedFile` — one logical file
  striped round-robin across N shard server processes, the request-
  shipping backend of ``docs/shipping.md``.
* :func:`repro.fs.unmapped.unmapped` — a namespace seen through files
  that are not file buffers, so its accesses sieve and its collectives
  run two-phase (what the paper's figures measure).
"""

from repro.fs.stats import DeviceModel, FileStats
from repro.fs.locks import FcntlRangeLockManager, RangeLockManager
from repro.fs.simfile import SimFile
from repro.fs.striping import (
    StripingConfig,
    global_size,
    local_size,
    split_blocks,
    to_global,
    to_local,
)
from repro.fs.filesystem import OsFileSystem, SimFileSystem
from repro.fs.posix import OsFile, PosixFile
from repro.fs.sharded import ShardedFile, ShardedFileSystem

__all__ = [
    "DeviceModel",
    "FileStats",
    "FcntlRangeLockManager",
    "RangeLockManager",
    "SimFile",
    "StripingConfig",
    "OsFile",
    "OsFileSystem",
    "SimFileSystem",
    "PosixFile",
    "ShardedFile",
    "ShardedFileSystem",
    "global_size",
    "local_size",
    "split_blocks",
    "to_global",
    "to_local",
]
