"""Replay tallies: what a replayed access bills, counted on its own
bound call and added into the shared counters when they are read.

A replayed mapped access (:class:`~repro.plan.executor.BoundCall`)
bills the same constants every time it runs: one executed op, one file
read or write of ``nbytes``, the same device seconds on one disk, one
copy of the same kernel kind, and — on a replay — one planner hit and
one pair-program hit.  So it bumps its :class:`Tally` instead: ``runs``,
``replays`` for the runs that were replays, and ``secsum`` on a striped
file (where the seconds depend on the stripes).  Every counter it used
to bump is an *owner's* counter (a :class:`Tallied` subclass:
``PlanStats``, ``EngineStats``, ``FileStats``, the session's
block-program and kernel-path counters), read as

    base + the sum, over the owner's live tallies, of each tally's term

where the base is what the cold and two-phase paths bill eagerly, as
before, and a term is a tally's count times a constant of its call
(:func:`runs`, :func:`bytes_written`, :func:`seconds` …).  Integer
counters read exactly what eager billing would; seconds read the same
sum to rounding (``runs * secs`` instead of ``runs`` additions).

A tally is registered with its owners when the call is bound
(:meth:`Tallied.add_tally`) and folded into their bases when the call
leaves its replay entry (:meth:`Tallied.fold`: eviction, a new view or
hints, close), or once it ran if no entry keeps it — by the thread that
owns the call.  No reader writes a
counter.  A reset sets each base to minus its live tallies' terms, so
the counters read 0 and count each tally on from its state then; a
fold adds a tally's whole term to the base.  Registration, folds,
resets and reads of an owner take its ``_mu``: the file's stats lock
for ``FileStats``, else the one lock of this module, which no access
takes — only binds, folds and readers do.
"""

from __future__ import annotations

import threading

__all__ = ["Tally", "Tallied", "tallied", "runs", "replays",
           "reads", "writes", "bytes_read", "bytes_written", "seconds"]

#: Guards the tallies of the owners that have no lock of their own.
_MU = threading.Lock()


class Tally:
    """What one bound call has billed since it was bound."""

    __slots__ = ("runs", "replays", "secsum", "secs", "nbytes", "write",
                 "kind")

    def __init__(self, write: bool, nbytes: int, secs, kind: int) -> None:
        #: Runs that completed, cold or replayed.
        self.runs = 0
        #: Of those, replays (a planner hit and a pair-program hit each).
        self.replays = 0
        #: Device seconds of the runs when ``secs`` is None (striped).
        self.secsum = 0.0
        #: Device seconds of one run on one disk, else None.
        self.secs = secs
        self.nbytes, self.write, self.kind = nbytes, write, kind


# Terms: what one tally adds to a counter.
def runs(t: Tally) -> int:
    return t.runs


def replays(t: Tally) -> int:
    return t.replays


def reads(t: Tally) -> int:
    return 0 if t.write else t.runs


def writes(t: Tally) -> int:
    return t.runs if t.write else 0


def bytes_read(t: Tally) -> int:
    return 0 if t.write else t.runs * t.nbytes


def bytes_written(t: Tally) -> int:
    return t.runs * t.nbytes if t.write else 0


def seconds(t: Tally) -> float:
    return t.secsum if t.secs is None else t.runs * t.secs


class Tallied:
    """An owner of tallied counters.

    A subclass lists them in ``TERMS`` (``{name: term}``), keeps each
    one's eagerly billed base in attribute ``_<name>`` and the live
    tallies in ``_tallies``, a tuple replaced whole (so a reader
    iterates a snapshot), and passes itself to
    :func:`tallied`, which makes each name a property: the base plus the
    live tallies' terms.  Assigning one sets what it reads.
    """

    __slots__ = ()
    TERMS: dict = {}
    _mu = _MU

    def add_tally(self, t: Tally) -> None:
        """Count ``t`` in this owner's counters from now on."""
        with self._mu:
            self._tallies += (t,)

    def fold(self, t: Tally) -> None:
        """Move ``t``'s terms into the bases and forget it."""
        with self._mu:
            tallies = self._tallies
            if t in tallies:
                self._fold(t, 1)
                self._tallies = tuple(x for x in tallies if x is not t)

    def _fold(self, t: Tally, sign: int) -> None:
        """Add ``sign`` times ``t``'s terms to the bases."""
        for name, term in self.TERMS.items():
            base = "_" + name
            setattr(self, base, getattr(self, base) + sign * term(t))

    def _rebase(self) -> None:
        """Count every live tally from its state now (a reset, after
        the bases were zeroed; under ``_mu``)."""
        for t in self._tallies:
            self._fold(t, -1)

    def _total(self, name: str):
        """Counter ``name``: its base plus the live tallies' terms."""
        term = self.TERMS[name]
        v = getattr(self, "_" + name)
        for t in self._tallies:
            v += term(t)
        return v


def tallied(cls):
    """Install ``cls.TERMS`` as properties of ``cls`` (see
    :class:`Tallied`); returns ``cls``."""
    for name in cls.TERMS:
        setattr(cls, name, _counter(name))
    return cls


def _counter(name: str) -> property:
    base = "_" + name

    def get(self):
        with self._mu:
            return self._total(name)

    def put(self, value) -> None:
        with self._mu:
            setattr(self, base, value - (self._total(name)
                                         - getattr(self, base)))

    return property(get, put, doc=f"``{base}`` plus the live tallies' "
                                  "terms (see :mod:`repro.tally`).")
