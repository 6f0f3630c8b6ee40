"""Communication cost accounting.

Payload sizes are measured the way the paper counts them: 16 bytes per
ol-list tuple, 8 bytes per integer of a compact representation, the raw
``nbytes`` of data arrays.  Each rank accumulates its own wire time from a
latency+bandwidth :class:`NetworkModel`; since ranks communicate in
parallel, the harness adds the *maximum* per-rank wire time to the
measured CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkModel",
    "StorageModel",
    "Traffic",
    "PIPELINE_DEPTH",
    "PIPELINE_MIN_ROUNDS",
    "choose_access_strategy",
    "choose_domain_align",
    "choose_pipeline",
    "payload_nbytes",
]

#: Minimum round count at which ``cb_pipeline=auto`` turns pipelining
#: on.  A single-round collective has nothing to overlap with — the
#: drain would serialize right behind the submit and the plan would
#: only pay the worker hand-off — so the pipeline needs at least two
#: rounds to win.
PIPELINE_MIN_ROUNDS = 2

#: Read-prefetch depth of the pipelined plan shape: how many windows
#: ahead of the current round an IOP may have in flight.  Depth 1
#: (classic double buffering) only hides one round of exchange time per
#: window; when per-window device time exceeds one round of CPU, the
#: drain stalls every round.  Depth 2 gives the device two rounds of
#: slack per window at the cost of one more in-flight window per IOP —
#: still O(cb_buffer_size) staging, tracked by
#: ``pipeline_inflight_peak_bytes``.
PIPELINE_DEPTH = 2


def payload_nbytes(obj) -> int:
    """Wire size of a message payload in bytes.

    Honors objects that know their own wire size (``wire_bytes`` for
    compact fileviews, ``nbytes_repr`` for ol-lists — 16 bytes/tuple as in
    the paper's accounting), NumPy buffers, and plain Python containers
    (8 bytes per scalar).
    """
    if obj is None:
        return 0
    t = type(obj)
    if t is np.ndarray:
        return obj.nbytes
    if t is tuple and len(obj) == 3 and type(obj[2]) is np.ndarray \
            and type(obj[0]) is int and type(obj[1]) is int:
        # The collective data payload ``(d_lo, d_hi, bytes)``, sized
        # directly: two scalars plus the array.
        return 16 + obj[2].nbytes
    wire = getattr(obj, "wire_bytes", None)
    if wire is not None:
        return int(wire)
    rep = getattr(obj, "nbytes_repr", None)
    if rep is not None:
        return int(rep)
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (int, float, bool)):
        return 8
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, dict):
        return sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set)):
        return sum(payload_nbytes(x) for x in obj)
    return 64  # unknown object: flat charge


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth model of the message-passing interconnect.

    Defaults approximate the intra-node MPI of the paper's SX-6 (shared
    memory transport: microsecond latency, multi-GB/s bandwidth).

    A multi-node topology — the "different communication topologies" of
    the paper's outlook — is modelled by ``ranks_per_node``: messages
    between ranks on different nodes use the ``inter_*`` parameters
    (defaults approximate the SX IXS crossbar: higher latency, lower
    per-link bandwidth than shared memory).
    """

    latency: float = 3e-6  # seconds per message (intra-node)
    bandwidth: float = 8.0e9  # bytes/second (intra-node)
    ranks_per_node: int = 0  # 0 → single node / uniform network
    inter_latency: float = 12e-6
    inter_bandwidth: float = 2.0e9

    def is_inter_node(self, src: int, dst: int) -> bool:
        """True when ``src`` and ``dst`` live on different nodes."""
        if self.ranks_per_node <= 0:
            return False
        return src // self.ranks_per_node != dst // self.ranks_per_node

    def transfer_time(self, nbytes: int, src: int = 0,
                      dst: int = 0) -> float:
        """Simulated wire seconds for one message of ``nbytes``."""
        if self.is_inter_node(src, dst):
            return self.inter_latency + nbytes / self.inter_bandwidth
        return self.latency + nbytes / self.bandwidth


class Traffic:
    """Per-rank message accounting of one world: the bytes, messages
    and modelled wire time each rank sent.  Each rank writes only its
    own slot, so no lock is needed."""

    def __init__(self, size: int, network: NetworkModel | None = None):
        self.size = size
        self.network = network or NetworkModel()
        self.bytes_sent = [0] * size
        self.messages_sent = [0] * size
        self.net_time = [0.0] * size

    def account(self, rank: int, nbytes: int, dst: int | None = None) -> None:
        """Charge rank for one message of ``nbytes`` (to ``dst`` when the
        topology matters)."""
        self.bytes_sent[rank] += nbytes
        self.messages_sent[rank] += 1
        self.net_time[rank] += self.network.transfer_time(
            nbytes, rank, rank if dst is None else dst
        )

    def max_net_time(self) -> float:
        """Wire time of the busiest rank (ranks communicate in parallel)."""
        return max(self.net_time)

    def total_bytes_sent(self) -> int:
        return sum(self.bytes_sent)


@dataclass(frozen=True)
class StorageModel:
    """First-order file access cost: per-access latency plus bytes/bw.

    Defaults approximate a parallel file system doing small-request I/O
    (paper §2.2's motivation for data sieving): each access pays a high
    fixed cost, so many small block accesses lose to a few large window
    accesses even though the windows move extra gap bytes.
    """

    latency: float = 1.0e-4  # seconds per file access
    bandwidth: float = 5.0e8  # bytes/second for contiguous transfer

    def access_time(self, nbytes: int, naccesses: int = 1) -> float:
        """Model seconds for ``naccesses`` accesses moving ``nbytes``."""
        return naccesses * self.latency + nbytes / self.bandwidth

    def fingerprint(self) -> tuple:
        """The strategy-relevant parameters, for plan-cache keys (a
        planner swapping storage models must never replay plans whose
        sieve-vs-direct decision was taken under the old one)."""
        return (self.latency, self.bandwidth)


def choose_domain_align(
    *,
    total_bytes: int,
    niops: int,
    ndisks: int,
    stripe_size: int,
    max_ft_extent: int,
) -> str:
    """Pick a file-domain partitioning strategy when the
    ``cb_domain_align`` hint is unset.

    Stripe alignment pays off when domains are large enough that whole
    stripes can be owned exclusively (no two IOPs contending for one
    stripe); block alignment pays off when domains span several fileview
    block periods, so snapping boundaries to block edges saves the IOPs
    from splitting a block's read-modify-write.  Tiny accesses keep
    ROMIO's even byte split — alignment would only skew the domains.
    """
    if niops <= 1 or total_bytes <= 0:
        return "even"
    per_domain = total_bytes // niops
    if ndisks > 1 and per_domain >= stripe_size:
        return "stripe"
    if max_ft_extent > 1 and per_domain >= 4 * max_ft_extent:
        return "block"
    return "even"


def choose_pipeline(*, mode: str, nrounds: int) -> bool:
    """Pipeline the collective rounds?  Resolves the ``cb_pipeline``
    hint to a decision.

    Deterministic in rank-identical inputs (the hint and the round
    count both are), so every rank reaches the same answer without a
    coordinating collective — required, because a pipelined plan
    exchanges point-to-point while a serial one calls alltoall, and the
    two cannot interoperate within one round.
    """
    if nrounds <= 0:
        return False
    if mode == "on":
        return True
    if mode == "off":
        return False
    return nrounds >= PIPELINE_MIN_ROUNDS


def choose_access_strategy(
    model: StorageModel,
    *,
    write: bool,
    nbytes: int,
    span: int,
    est_blocks: int,
    bufsize: int,
) -> str:
    """Sieve or go direct?  Returns ``"sieve"`` or ``"direct"``.

    Compares the modelled cost of one file access per block against the
    windowed alternative: a sieved write pays a pre-read *and* a
    write-back per window (read-modify-write), a sieved read pays one
    read per window, and both move the whole window span including gaps.
    """
    if nbytes <= 0 or span <= 0:
        return "direct"
    nwin = -(-span // max(1, bufsize))  # ceil
    t_direct = model.access_time(nbytes, est_blocks)
    per_window = 2 if write else 1
    t_sieve = model.access_time(per_window * span, per_window * nwin)
    return "sieve" if t_sieve <= t_direct else "direct"
