"""MPI-IO hints (the ``MPI_Info`` knobs ROMIO honors).

Both engines obey the same buffer-size hints, so a hint change affects
them identically and measured differences stay attributable to the
datatype handling:

``ind_rd_buffer_size`` / ``ind_wr_buffer_size``
    file-buffer sizes for independent data sieving (ROMIO defaults:
    4 MB read, 512 kB write — writes sieve in smaller blocks because the
    region must be locked).
``cb_buffer_size``
    file-buffer size per IOP window in two-phase collective I/O (4 MB).
``cb_nodes``
    number of I/O processes (IOPs); default: every rank (the usual
    configuration on the paper's single-node SX runs).
``ds_read`` / ``ds_write``
    enable data sieving for independent reads/writes; disabling falls
    back to one file access per contiguous block (the "multiple file
    accesses" alternative the paper's outlook discusses).  These and
    the ``ind_*_buffer_size`` hints shape only backends that are not a
    file buffer: on ``SimFile``/``OsFile`` every independent access is
    mapped, which is neither (``docs/planning.md`` §2).
``obs_trace``
    turn on span tracing (``repro.obs.trace``) when the file is opened —
    a per-open convenience for the process-wide ``REPRO_TRACE`` /
    ``set_tracing()`` switch (see ``docs/observability.md``).
``cb_domain_align``
    file-domain partitioning strategy for two-phase collectives
    (``even`` / ``stripe`` / ``block``; see ``docs/collective.md``) —
    unset lets the cost model choose per access.
``cb_pipeline``
    pipelining of collective aggregation rounds (``auto`` / ``on`` /
    ``off``; see ``docs/collective.md``): overlap each round's file I/O
    with the next round's pack/exchange and relax the per-round
    alltoall to point-to-point completion tracking.  ``auto`` lets the
    cost model decide from the round count.
``ship_protocol``
    request-shipping protocol against a striped multi-server backend
    (``repro.fs.sharded``; see ``docs/shipping.md``): ``list`` ships
    exploded per-shard offset/length lists, ``dtype`` ships the compact
    fileview descriptor plus access params and lets the servers flatten
    on the fly — the list-I/O vs datatype-I/O comparison of
    "Noncontiguous I/O through PVFS".  Unset (the default) keeps every
    access on the plain per-primitive wire path; ignored on
    non-sharded backends.

The ``cb_*`` hints (``cb_buffer_size``, ``cb_nodes``,
``cb_domain_align``, ``cb_pipeline``) shape two-phase collectives, which
only backends that are not a file buffer run: on ``SimFile``/``OsFile``
a collective is mapped — one barrier and each rank's own mapped copy —
and none of them changes it (``docs/collective.md``, "Mapped vs
two-phase").  Whether they stay is left to the knob audit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

from repro.errors import HintError

__all__ = ["Hints", "DOMAIN_ALIGNMENTS", "PIPELINE_MODES",
           "SHIP_PROTOCOLS"]

#: Legal values of the ``cb_domain_align`` hint (``None`` → automatic).
DOMAIN_ALIGNMENTS = ("even", "stripe", "block")

#: Legal values of the ``cb_pipeline`` hint.
PIPELINE_MODES = ("auto", "on", "off")

#: Legal values of the ``ship_protocol`` hint (``None`` → no shipping).
SHIP_PROTOCOLS = ("list", "dtype")


def _to_bool(value: str) -> bool:
    return value.lower() in ("true", "1", "enable", "yes")


@dataclass(frozen=True)
class Hints:
    """Validated hint set for one open file."""

    ind_rd_buffer_size: int = 4 * 1024 * 1024
    ind_wr_buffer_size: int = 512 * 1024
    cb_buffer_size: int = 4 * 1024 * 1024
    cb_nodes: Optional[int] = None  # None → all ranks
    ds_read: bool = True
    ds_write: bool = True
    #: Enable span tracing for the process when this file is opened
    #: (never disables: tracing already on stays on).
    obs_trace: bool = False
    #: Striping hints, honored only at file creation (as in ROMIO/Lustre):
    #: number of simulated disks and stripe width.  None → file-system
    #: defaults.
    striping_factor: Optional[int] = None
    striping_unit: Optional[int] = None
    #: File-domain partitioning strategy for two-phase collectives:
    #: ``even`` (ROMIO's byte split), ``stripe`` (domains aligned to
    #: stripe boundaries) or ``block`` (boundaries snapped to fileview
    #: block edges).  ``None`` → the cost model picks per access.
    cb_domain_align: Optional[str] = None
    #: Pipelining of collective aggregation rounds: ``on`` overlaps each
    #: round's file I/O with the next round's pack/exchange (double-
    #: buffered windows, relaxed p2p round synchronization), ``off``
    #: keeps the strict exchange→file-I/O sequence, ``auto`` lets the
    #: cost model decide from the round count.
    cb_pipeline: str = "auto"
    #: Request-shipping protocol against a sharded multi-server backend:
    #: ``list`` (exploded per-shard ol-lists) or ``dtype`` (compact
    #: fileview + access params, server-side flattening).  ``None``
    #: disables shipping; silently ignored on non-sharded backends.
    ship_protocol: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("ind_rd_buffer_size", "ind_wr_buffer_size",
                     "cb_buffer_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise HintError(f"{name} must be a positive int, got {v!r}")
        if self.cb_nodes is not None and self.cb_nodes < 1:
            raise HintError(f"cb_nodes must be >= 1, got {self.cb_nodes}")
        if self.striping_factor is not None and self.striping_factor < 1:
            raise HintError(
                f"striping_factor must be >= 1, got {self.striping_factor}"
            )
        if self.striping_unit is not None and self.striping_unit < 1:
            raise HintError(
                f"striping_unit must be >= 1, got {self.striping_unit}"
            )
        if (self.cb_domain_align is not None
                and self.cb_domain_align not in DOMAIN_ALIGNMENTS):
            raise HintError(
                f"cb_domain_align must be one of "
                f"{'/'.join(DOMAIN_ALIGNMENTS)}, got "
                f"{self.cb_domain_align!r}"
            )
        if self.cb_pipeline not in PIPELINE_MODES:
            raise HintError(
                f"cb_pipeline must be one of "
                f"{'/'.join(PIPELINE_MODES)}, got {self.cb_pipeline!r}"
            )
        if (self.ship_protocol is not None
                and self.ship_protocol not in SHIP_PROTOCOLS):
            raise HintError(
                f"ship_protocol must be one of "
                f"{'/'.join(SHIP_PROTOCOLS)}, got {self.ship_protocol!r}"
            )

    #: Per-field string coercion for :meth:`from_mapping` (``MPI_Info``
    #: values arrive as strings).  Explicit per field — guessing from
    #: the annotation text broke as soon as a non-int/bool field showed
    #: up.  Fields without an entry (``cb_domain_align``,
    #: ``cb_pipeline``) take the string as-is and are validated by
    #: ``__post_init__``.
    _CONVERTERS = {
        "ind_rd_buffer_size": int,
        "ind_wr_buffer_size": int,
        "cb_buffer_size": int,
        "cb_nodes": int,
        "striping_factor": int,
        "striping_unit": int,
        "ds_read": _to_bool,
        "ds_write": _to_bool,
        "obs_trace": _to_bool,
    }

    @classmethod
    def from_mapping(cls, info: Optional[Mapping[str, object]]) -> "Hints":
        """Build hints from an ``MPI_Info``-style string mapping.

        Unknown keys raise (silently ignoring typos hides performance
        bugs; real ROMIO ignores them, but a library should not).
        String values are coerced through the per-field converter table;
        a malformed value raises a :class:`~repro.errors.HintError`
        naming the hint.
        """
        if not info:
            return cls()
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        kwargs = {}
        for key, value in info.items():
            if key not in known:
                raise HintError(f"unknown hint {key!r}")
            convert = cls._CONVERTERS.get(key)
            if convert is not None and isinstance(value, str):
                try:
                    value = convert(value)
                except ValueError as exc:
                    raise HintError(
                        f"hint {key!r} has malformed value {value!r}"
                    ) from exc
            kwargs[key] = value
        return cls(**kwargs)  # type: ignore[arg-type]

    def effective_cb_nodes(self, comm_size: int) -> int:
        """IOP count clamped to the communicator size."""
        if self.cb_nodes is None:
            return comm_size
        return min(self.cb_nodes, comm_size)

    def fingerprint(self) -> tuple:
        """The planning-relevant hint values, as a hashable tuple.

        Included in plan-cache and replay-table keys so a ``set_info``
        hint change — which does *not* bump the planner's view epoch —
        can never replay a plan built under different planning inputs
        (sieve toggles, buffer sizes, partitioning, shipping).
        Presentation hints (``obs_trace``) and creation-time hints
        (striping) are deliberately excluded: they never affect what a
        plan contains.
        """
        return (
            self.ind_rd_buffer_size,
            self.ind_wr_buffer_size,
            self.cb_buffer_size,
            self.cb_nodes,
            self.ds_read,
            self.ds_write,
            self.cb_domain_align,
            self.cb_pipeline,
            self.ship_protocol,
        )

    def with_(self, **kwargs) -> "Hints":
        """A copy with selected fields replaced."""
        return replace(self, **kwargs)
