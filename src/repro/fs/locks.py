"""Advisory byte-range locks.

Data-sieving writes must lock the file region they read-modify-write so
that the gaps in the file buffer do not clobber concurrent writers (paper
§2.2).  ROMIO uses ``fcntl`` range locks; :class:`RangeLockManager`
provides the same semantics for the in-memory file system: exclusive
locks over ``[lo, hi)`` ranges, blocking on conflict up to the
runtime's deadline.

:class:`FcntlRangeLockManager` is the real thing behind the same
interface — POSIX ``fcntl(F_SETLKW)`` record locks on an open file
descriptor, used by the disk-backed files of the multi-process runtime
(:class:`repro.fs.posix.OsFile`).  It adds the bookkeeping POSIX makes
necessary: per *process*, releasing ``[lo, hi)`` drops the process'
lock over **every** byte of that range, even bytes still covered by
another logical lock the same rank took (e.g. atomic mode's
whole-access lock nested around per-window sieving locks).  The manager
refcounts held ranges and, on unlock, only releases bytes no residual
logical lock covers — overlapping locks from the same rank neither
self-deadlock (POSIX never blocks a process on its own locks) nor lose
protection mid-access.
"""

from __future__ import annotations

import threading
import time
from threading import get_ident
from typing import Dict, List, Optional, Tuple

from repro.deadline import recv_timeout
from repro.errors import LockError
from repro.intervals import overlaps, subtract

__all__ = ["FcntlRangeLockManager", "RangeLockManager"]


class RangeLockManager:
    """Exclusive byte-range locks over one file.

    The uncontended case — no other thread holds any range, which is
    every lock of a single rank — is one plain mutex round trip: no
    condition variable, no conflict scan.  Only a lock that finds
    another thread's range in the table takes the slow path, which
    waits on a condition over the same mutex, bounded by the runtime's
    blocking deadline (:func:`repro.deadline.recv_timeout`); an unlock
    notifies only while some thread waits.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._cond = threading.Condition(self._mu)
        # owner (thread ident) -> list of held (lo, hi) ranges
        self._held: Dict[int, List[Tuple[int, int]]] = {}
        # threads blocked in the slow path of :meth:`lock`
        self._waiters = 0

    def _conflict(self, me: int, lo: int,
                  hi: int) -> Optional[Tuple[int, int]]:
        """Another thread's held range overlapping ``[lo, hi)``."""
        for owner, ranges in self._held.items():
            if owner == me:
                continue
            for rlo, rhi in ranges:
                if overlaps(rlo, rhi, lo, hi):
                    return rlo, rhi
        return None

    def lock(self, lo: int, hi: int) -> None:
        """Acquire an exclusive lock on ``[lo, hi)``; blocks on conflict,
        raising :class:`~repro.errors.LockError` (naming the range it
        waited on) if the conflict outlasts the blocking deadline."""
        if hi <= lo:
            raise LockError(f"empty lock range [{lo}, {hi})")
        me = get_ident()
        with self._mu:
            held = self._held
            if held and (len(held) > 1 or me not in held):
                self._wait_clear(me, lo, hi)
            mine = held.get(me)
            if mine is None:
                held[me] = [(lo, hi)]
            else:
                mine.append((lo, hi))

    def _wait_clear(self, me: int, lo: int, hi: int) -> None:
        """The slow path of :meth:`lock` (``_mu`` held): wait until no
        other thread's range overlaps ``[lo, hi)``."""
        deadline = None
        while True:
            other = self._conflict(me, lo, hi)
            if other is None:
                return
            now = time.monotonic()
            if deadline is None:
                deadline = now + recv_timeout()
            elif now >= deadline:
                raise LockError(
                    f"lock [{lo}, {hi}) timed out waiting on the held "
                    f"range [{other[0]}, {other[1]})"
                )
            self._waiters += 1
            try:
                self._cond.wait(deadline - now)
            finally:
                self._waiters -= 1

    def unlock(self, lo: int, hi: int) -> None:
        """Release a previously acquired lock on exactly ``[lo, hi)``."""
        me = get_ident()
        with self._mu:
            ranges = self._held.get(me)
            if ranges is None or (lo, hi) not in ranges:
                raise LockError(f"thread does not hold lock [{lo}, {hi})")
            ranges.remove((lo, hi))
            if not ranges:
                del self._held[me]
            if self._waiters:
                self._cond.notify_all()

    def held_by_me(self) -> List[Tuple[int, int]]:
        """Ranges currently held by the calling thread (for tests)."""
        with self._mu:
            return list(self._held.get(get_ident(), []))


class FcntlRangeLockManager:
    """Real POSIX ``fcntl`` byte-range locks over one open descriptor.

    Same interface as :class:`RangeLockManager`.  ``lock`` blocks via
    ``F_SETLKW`` until conflicting locks of *other processes* clear;
    ``unlock`` releases only the bytes of ``[lo, hi)`` not covered by a
    remaining logical lock of this process (see the module docstring
    for why plain ``F_UNLCK`` over the range would be wrong).

    The held-range list is a multiset: locking the same range twice
    requires unlocking it twice before the bytes actually release.
    """

    def __init__(self, fd: int) -> None:
        self._fd = fd
        self._mu = threading.Lock()
        self._held: List[Tuple[int, int]] = []

    def lock(self, lo: int, hi: int) -> None:
        """Acquire an exclusive lock on ``[lo, hi)``; blocks on conflict
        with other processes (own overlapping locks never conflict)."""
        import fcntl
        import os

        if hi <= lo:
            raise LockError(f"empty lock range [{lo}, {hi})")
        try:
            fcntl.lockf(self._fd, fcntl.LOCK_EX, hi - lo, lo, os.SEEK_SET)
        except OSError as exc:
            raise LockError(
                f"fcntl lock of [{lo}, {hi}) failed: {exc}"
            ) from exc
        with self._mu:
            self._held.append((lo, hi))

    def unlock(self, lo: int, hi: int) -> None:
        """Release one logical lock on exactly ``[lo, hi)``.

        Bytes still covered by another held range stay locked at the
        OS level (POSIX would otherwise drop them with this release).
        """
        import fcntl
        import os

        with self._mu:
            try:
                self._held.remove((lo, hi))
            except ValueError:
                raise LockError(
                    f"process does not hold lock [{lo}, {hi})"
                ) from None
            residual = [(lo, hi - lo)]
            for rlo, rhi in self._held:
                residual = subtract(residual, rlo, rhi)
        for off, ln in residual:
            try:
                fcntl.lockf(self._fd, fcntl.LOCK_UN, ln, off, os.SEEK_SET)
            except OSError as exc:  # pragma: no cover - closed fd etc.
                raise LockError(
                    f"fcntl unlock of [{off}, {off + ln}) failed: {exc}"
                ) from exc

    def held_by_me(self) -> List[Tuple[int, int]]:
        """Logical ranges currently held by this process (for tests)."""
        with self._mu:
            return list(self._held)
