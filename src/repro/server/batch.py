"""Cross-client plan batching: merge concurrently posted accesses.

Requests dispatched in the same scheduling pass that touch the same
file are folded into one server-side access when the merged access is
semantically equivalent to executing them individually:

* **writes** merge only when, sorted by offset, they *exactly tile* a
  contiguous byte range (no gap, no overlap) — the merged buffer is
  then independent of execution order.  A write group containing any
  overlap falls back to one-batch-per-request in arrival order, because
  merging (or even offset-sorting) overlapping writes would pick a
  winner the client never asked for;
* **reads** merge while the gap between consecutive requests stays
  within ``max_read_gap`` — the server reads the covering range once
  and each request slices its sub-range out (the service-level analogue
  of data sieving: trade ``gap`` wasted bytes for one access instead of
  two).

Every batch becomes exactly one ``read_at``/``write_at`` on the
server-side file handle, so ``file_accesses`` (vs requests executed)
is the counter that proves batching reduces access rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.intervals import runs

__all__ = ["Batch", "plan_batches"]

#: Default largest read gap (bytes) bridged by a merged read.
DEFAULT_MAX_READ_GAP = 4096


@dataclass
class Batch:
    """One server-side access covering ``[lo, hi)`` of ``path`` on
    behalf of ``items`` (dispatch-ordered requests)."""

    path: str
    write: bool
    lo: int
    hi: int
    items: List[object] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return self.hi - self.lo

    def __repr__(self) -> str:  # pragma: no cover
        kind = "write" if self.write else "read"
        return (f"<Batch {kind} {self.path!r} [{self.lo}, {self.hi}) "
                f"x{len(self.items)}>")


def plan_batches(items: List[object], merge: bool = True,
                 max_read_gap: int = DEFAULT_MAX_READ_GAP) -> List[Batch]:
    """Fold one dispatch set into server-side accesses.

    ``items`` need ``path``, ``write``, ``offset``, ``nbytes``
    attributes.  ``merge=False`` (the batching-off baseline) emits one
    batch per request in dispatch order.
    """
    if not merge:
        return [
            Batch(it.path, it.write, it.offset, it.offset + it.nbytes,
                  [it])
            for it in items
        ]
    groups: Dict[Tuple[str, bool], List[object]] = {}
    order: List[Tuple[str, bool]] = []
    for it in items:
        key = (it.path, it.write)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(it)
    out: List[Batch] = []
    for key in order:
        path, write = key
        group = groups[key]
        by_off = sorted(group, key=lambda it: (it.offset, it.nbytes))
        if write:
            overlap = any(
                b.offset < a.offset + a.nbytes
                for a, b in zip(by_off, by_off[1:])
            )
            if overlap:
                # Arrival order, one batch each: the only order-safe
                # execution of overlapping writes.
                for it in group:
                    out.append(Batch(path, True, it.offset,
                                     it.offset + it.nbytes, [it]))
                continue
        # With no overlap, a gap-0 run of writes tiles its range exactly.
        i = 0
        for lo, n, count in runs([(it.offset, it.nbytes) for it in by_off],
                                 0 if write else max_read_gap):
            out.append(Batch(path, write, lo, lo + n, by_off[i:i + count]))
            i += count
    return out
