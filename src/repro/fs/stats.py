"""Cost accounting for the simulated file system.

:class:`DeviceModel` converts operations into *simulated device seconds*;
:class:`FileStats` accumulates counts, bytes and simulated time.  The
benchmark harness reports bandwidths over ``measured CPU time + simulated
device time``, so a fast device model (the default, calibrated to the
paper's SX-6 local file system) leaves datatype handling as the dominant
cost — the regime the paper studies.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro import tally

__all__ = ["DeviceModel", "FileStats"]


@dataclass(frozen=True)
class DeviceModel:
    """Latency/bandwidth model of the storage device.

    Defaults mirror the paper's platform: 8 GB/s sustained read, 6.5 GB/s
    sustained write, and a small per-operation latency typical of a local
    high-end RAID of the era.
    """

    read_bandwidth: float = 8.0e9  # bytes/second
    write_bandwidth: float = 6.5e9  # bytes/second
    latency: float = 50e-6  # seconds per operation

    def read_time(self, nbytes: int, nstreams: int = 1) -> float:
        """Simulated seconds for one read of ``nbytes`` over ``nstreams``
        parallel stripes."""
        return self.latency + nbytes / (self.read_bandwidth * max(nstreams, 1))

    def write_time(self, nbytes: int, nstreams: int = 1) -> float:
        """Simulated seconds for one write of ``nbytes``."""
        return self.latency + nbytes / (
            self.write_bandwidth * max(nstreams, 1)
        )

    def extents_time(self, offsets, nbytes, striping, write: bool) -> float:
        """Simulated seconds for one op per extent: the sum of
        :meth:`read_time`/:meth:`write_time` over ``(offsets[i],
        nbytes[i])``, each with its own stream count.

        Unstriped (one disk) the sum is closed-form; striped, it is one
        NumPy expression over the offset/length arrays.  Either way the
        byte count is summed by NumPy, not in a Python loop over an
        array.
        """
        bw = self.write_bandwidth if write else self.read_bandwidth
        nb = np.asarray(nbytes, dtype=np.int64)
        if striping.ndisks == 1:
            return len(offsets) * self.latency + int(nb.sum()) / bw
        offs = np.asarray(offsets, dtype=np.int64)
        ss = striping.stripe_size
        streams = np.minimum(
            (offs + np.maximum(nb, 1) - 1) // ss - offs // ss + 1,
            striping.ndisks,
        )
        return float(offs.size * self.latency + (nb / (bw * streams)).sum())


class _LastCharge(threading.local):
    """Per-thread device seconds of the last charged op."""

    seconds = 0.0


@tally.tallied
@dataclass
class FileStats(tally.Tallied):
    """Mutable operation counters (thread-safe).

    Each thread's last :meth:`record_read`/:meth:`record_write` charge
    is kept too (``last.seconds``, 0.0 before the thread's first): the
    plan executor bills the device time of its own one-extent ops from
    it instead of recomputing the backend's figure.  A mapped access
    returns its seconds instead.

    The counters a replayed access bills (:data:`TERMS`) read as their
    base, ``_<name>``, which the ``record_*`` calls bill, plus the live
    bound calls' tallies (:mod:`repro.tally`), all under ``_mu``.
    """

    TERMS = {
        "n_reads": tally.reads,
        "n_writes": tally.writes,
        "bytes_read": tally.bytes_read,
        "bytes_written": tally.bytes_written,
        "sim_time": tally.seconds,
    }

    _n_reads: int = 0
    _n_writes: int = 0
    _bytes_read: int = 0
    _bytes_written: int = 0
    _sim_time: float = 0.0
    n_locks: int = 0
    _mu: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    last: _LastCharge = field(
        default_factory=_LastCharge, repr=False, compare=False
    )
    #: live tallies (see :class:`~repro.tally.Tallied`)
    _tallies: tuple = field(default=(), repr=False, compare=False)

    def record_read(self, nbytes: int, sim_time: float,
                    ops: int = 1) -> None:
        """Charge ``ops`` reads moving ``nbytes`` in total (a vectored
        call counts one read per extent)."""
        mu = self._mu
        mu.acquire()  # every file op passes here: not ``with``
        try:
            self._n_reads += ops
            self._bytes_read += nbytes
            self._sim_time += sim_time
        finally:
            mu.release()
        self.last.seconds = sim_time

    def record_write(self, nbytes: int, sim_time: float,
                     ops: int = 1) -> None:
        mu = self._mu
        mu.acquire()
        try:
            self._n_writes += ops
            self._bytes_written += nbytes
            self._sim_time += sim_time
        finally:
            mu.release()
        self.last.seconds = sim_time

    def record_lock(self) -> None:
        with self._mu:
            self.n_locks += 1

    def snapshot(self) -> dict:
        """A plain-dict copy for reporting."""
        with self._mu:
            total = self._total
            return {
                "n_reads": total("n_reads"),
                "n_writes": total("n_writes"),
                "bytes_read": total("bytes_read"),
                "bytes_written": total("bytes_written"),
                "sim_time": total("sim_time"),
                "n_locks": self.n_locks,
            }

    def reset(self) -> None:
        with self._mu:
            self._n_reads = 0
            self._n_writes = 0
            self._bytes_read = 0
            self._bytes_written = 0
            self._sim_time = 0.0
            self.n_locks = 0
            self._rebase()
