"""Byte-range locks: exclusion, blocking, release.

Covers both managers behind the same interface: the in-memory
:class:`RangeLockManager` of the simulated file system and the real
``fcntl``-backed :class:`FcntlRangeLockManager` of the proc backend.
POSIX ``fcntl`` semantics need careful bookkeeping — a process' locks
never conflict with themselves, and *unlocking a range drops every lock
the process holds over it* — so overlapping windows (sieving loop
inside an atomic-mode whole-access lock) must release only the bytes no
other held range still covers."""

import multiprocessing as mp
import fcntl
import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LockError
from repro.fs.locks import FcntlRangeLockManager, RangeLockManager
from repro.intervals import subtract


class TestBasics:
    def test_lock_unlock(self):
        m = RangeLockManager()
        m.lock(0, 10)
        assert m.held_by_me() == [(0, 10)]
        m.unlock(0, 10)
        assert m.held_by_me() == []

    def test_empty_range_rejected(self):
        with pytest.raises(LockError):
            RangeLockManager().lock(5, 5)

    def test_unlock_not_held_rejected(self):
        with pytest.raises(LockError):
            RangeLockManager().unlock(0, 10)

    def test_same_thread_may_hold_overlapping(self):
        # Re-entrant by owner: the sieving loop locks window by window,
        # and atomic mode can nest a whole-access lock outside them.
        m = RangeLockManager()
        m.lock(0, 100)
        m.lock(10, 20)
        m.unlock(10, 20)
        m.unlock(0, 100)

    def test_disjoint_ranges_from_threads_dont_block(self):
        m = RangeLockManager()
        done = []

        def t1():
            m.lock(0, 10)
            time.sleep(0.05)
            done.append("t1")
            m.unlock(0, 10)

        def t2():
            m.lock(10, 20)
            done.append("t2")
            m.unlock(10, 20)

        a = threading.Thread(target=t1)
        b = threading.Thread(target=t2)
        a.start()
        time.sleep(0.01)
        b.start()
        b.join(timeout=1)
        a.join(timeout=1)
        assert "t2" in done and "t1" in done
        # t2 must not have waited for t1.
        assert done[0] == "t2"


class TestExclusion:
    def test_overlap_blocks_until_release(self):
        m = RangeLockManager()
        order = []
        m_acquired = threading.Event()

        def holder():
            m.lock(0, 100)
            m_acquired.set()
            time.sleep(0.08)
            order.append("holder-release")
            m.unlock(0, 100)

        def waiter():
            m_acquired.wait(timeout=1)
            m.lock(50, 150)  # overlaps [0,100)
            order.append("waiter-acquired")
            m.unlock(50, 150)

        a = threading.Thread(target=holder)
        b = threading.Thread(target=waiter)
        a.start()
        b.start()
        a.join(timeout=2)
        b.join(timeout=2)
        assert order == ["holder-release", "waiter-acquired"]

    def test_many_writers_serialize_on_same_range(self):
        m = RangeLockManager()
        counter = {"v": 0, "max_inside": 0}
        mu = threading.Lock()

        def writer():
            for _ in range(20):
                m.lock(0, 8)
                with mu:
                    counter["v"] += 1
                    counter["max_inside"] = max(
                        counter["max_inside"], counter["v"]
                    )
                with mu:
                    counter["v"] -= 1
                m.unlock(0, 8)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert counter["max_inside"] == 1


def _probe_range(path, lo, hi, out):
    """Child process: try a non-blocking exclusive lock on [lo, hi)."""
    fd = os.open(path, os.O_RDWR)
    try:
        fcntl.lockf(fd, fcntl.LOCK_EX | fcntl.LOCK_NB, hi - lo, lo,
                    os.SEEK_SET)
        out.put("acquired")
    except OSError:
        out.put("blocked")
    finally:
        os.close(fd)


class TestFcntlManager:
    """Regressions for the real-lock path of the proc backend.

    POSIX never blocks a process on its own locks, and a plain unlock
    over a range drops *every* lock the process holds there — the
    manager's multiset bookkeeping must keep residual bytes locked.
    The held/released distinction is only visible to *another* process,
    so assertions probe with a forked child doing LOCK_NB attempts.
    """

    @pytest.fixture
    def lockfile(self, tmp_path):
        path = str(tmp_path / "lk")
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o600)
        os.ftruncate(fd, 4096)
        yield path, fd
        os.close(fd)

    @staticmethod
    def probe(path, lo, hi):
        q = mp.Queue()
        p = mp.Process(target=_probe_range, args=(path, lo, hi, q))
        p.start()
        result = q.get(timeout=10)
        p.join(timeout=10)
        return result

    def test_overlapping_same_process_locks_dont_self_deadlock(
            self, lockfile):
        # The sieving loop takes per-window locks while atomic mode
        # already holds a whole-access lock: must return immediately.
        path, fd = lockfile
        m = FcntlRangeLockManager(fd)
        done = []

        def body():
            m.lock(0, 100)
            m.lock(50, 150)  # overlaps — POSIX merges, must not block
            m.lock(0, 100)   # exact duplicate
            done.append(True)

        t = threading.Thread(target=body)
        t.start()
        t.join(timeout=5)
        assert done, "overlapping same-process lock deadlocked"
        assert sorted(m.held_by_me()) == [(0, 100), (0, 100), (50, 150)]

    def test_partial_unlock_keeps_residual_bytes_locked(self, lockfile):
        # The bug this pins: naive LOCK_UN over [0,100) would also drop
        # the [50,150) lock's claim on bytes [50,100).
        path, fd = lockfile
        m = FcntlRangeLockManager(fd)
        m.lock(0, 100)
        m.lock(50, 150)
        m.unlock(0, 100)
        assert m.held_by_me() == [(50, 150)]
        # Bytes of the released range not covered elsewhere are free...
        assert self.probe(path, 0, 50) == "acquired"
        # ...but the overlap is still held by the surviving lock.
        assert self.probe(path, 60, 90) == "blocked"
        assert self.probe(path, 100, 150) == "blocked"
        m.unlock(50, 150)
        assert self.probe(path, 60, 90) == "acquired"

    def test_duplicate_range_releases_on_last_unlock(self, lockfile):
        path, fd = lockfile
        m = FcntlRangeLockManager(fd)
        m.lock(10, 20)
        m.lock(10, 20)
        m.unlock(10, 20)
        # One logical lock remains: bytes stay locked.
        assert self.probe(path, 10, 20) == "blocked"
        m.unlock(10, 20)
        assert self.probe(path, 10, 20) == "acquired"

    def test_empty_range_rejected(self, lockfile):
        _, fd = lockfile
        with pytest.raises(LockError):
            FcntlRangeLockManager(fd).lock(5, 5)

    def test_unlock_not_held_rejected(self, lockfile):
        _, fd = lockfile
        with pytest.raises(LockError, match=r"does not hold"):
            FcntlRangeLockManager(fd).unlock(0, 10)

    def test_blocks_against_other_process_until_release(self, lockfile):
        path, fd = lockfile
        m = FcntlRangeLockManager(fd)
        m.lock(0, 64)
        assert self.probe(path, 0, 64) == "blocked"
        m.unlock(0, 64)
        assert self.probe(path, 0, 64) == "acquired"


class TestSubtractRanges:
    """The residual computation behind ``FcntlRangeLockManager.unlock``
    (``(offset, length)`` pairs minus ``[lo, hi)``)."""

    def test_middle_cut_splits(self):
        assert subtract([(0, 100)], 20, 30) == [(0, 20), (30, 70)]

    def test_no_overlap_is_identity(self):
        assert subtract([(0, 10), (20, 10)], 10, 20) == [(0, 10), (20, 10)]

    def test_full_cover_removes(self):
        assert subtract([(5, 3)], 0, 100) == []

    def test_edge_overlaps_trim(self):
        assert subtract([(0, 10)], 5, 15) == [(0, 5)]
        assert subtract([(10, 10)], 5, 15) == [(15, 5)]


class TestDeadline:
    """A conflicting lock waits at most the runtime's blocking deadline
    (``REPRO_RECV_TIMEOUT``), then raises naming the range it waited
    on — never a hang."""

    def test_conflicting_lock_raises_instead_of_hanging(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "0.2")
        m = RangeLockManager()
        m.lock(0, 100)
        out = {}

        def waiter():
            t0 = time.monotonic()
            try:
                m.lock(50, 60)
            except LockError as exc:
                out["error"] = str(exc)
            out["waited"] = time.monotonic() - t0

        t = threading.Thread(target=waiter)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        assert "[0, 100)" in out["error"]
        assert 0.15 <= out["waited"] < 5
        m.unlock(0, 100)
        assert m._held == {}

    def test_release_before_the_deadline_grants_the_lock(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "5")
        m = RangeLockManager()
        m.lock(0, 100)
        got = threading.Event()

        def waiter():
            m.lock(50, 60)
            got.set()
            m.unlock(50, 60)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        assert not got.is_set()
        m.unlock(0, 100)
        t.join(timeout=5)
        assert got.is_set()
        assert m._held == {}


_ranges = st.lists(
    st.tuples(st.integers(0, 60), st.integers(1, 16)).map(
        lambda t: (t[0], t[0] + t[1])),
    min_size=1, max_size=6,
)


class TestConcurrentExclusion:
    @settings(max_examples=25, deadline=None)
    @given(plans=st.lists(_ranges, min_size=2, max_size=4))
    def test_no_two_held_ranges_overlap(self, plans):
        """Threads lock random ranges, some overlapping and some not;
        whichever path each acquisition takes — uncontended fast path
        or waiting slow path — no two threads ever hold overlapping
        ranges at once, and the table is empty at the end (a lost
        wake-up would surface as a deadline ``LockError``)."""
        m = RangeLockManager()
        mu = threading.Lock()
        inside = {}  # thread index -> range it holds now
        bad = []

        def worker(i, ranges):
            for lo, hi in ranges:
                m.lock(lo, hi)
                with mu:
                    for j, (olo, ohi) in inside.items():
                        if olo < hi and lo < ohi:
                            bad.append(((lo, hi), (olo, ohi), i, j))
                    inside[i] = (lo, hi)
                time.sleep(0)
                with mu:
                    del inside[i]
                m.unlock(lo, hi)

        threads = [threading.Thread(target=worker, args=(i, r))
                   for i, r in enumerate(plans)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert bad == []
        assert m._held == {}
