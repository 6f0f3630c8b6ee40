"""Per-layer perf-budget gate for the windowed block-program bench.

The committed ``results/BENCH_blockprog.json`` records, for the
listless arm of the end-to-end engine case, how its wall time
decomposes into *kernel* (batched pack/unpack copies), *io* (simulated
device) and *engine overhead* (planning, op dispatch, Python glue).
The engine-overhead share of wall time is the budget: the listless
speedup only survives end-to-end while the engine layer stays thin, so
CI treats the recorded share like a perf baseline and fails when a
fresh run regresses past it by more than the slack.

Usage (CI bench-smoke, after the bench wrote a fresh record)::

    python benchmarks/check_perf_budget.py --bench BENCH_blockprog.json

Shares are wall-time ratios, so the check is robust to the absolute
speed of the CI box; the default slack (0.15 absolute) absorbs
scheduler noise on loaded runners.

``--collective`` gates the round-overlap record of
``bench_collective_rounds`` instead: in every (engine, alignment) cell
the median, over at least :data:`MIN_COLLECTIVE_RUNS` interleaved runs,
of the pipelined/one-shot effective-time ratio must stay within
``1 + collective-slack``, every pipelined cell must hide *some* device time
(overlap efficiency > 0), and the round modes' peak staging must
respect the O(cb_buffer_size x APs) bound the aggregation layer
exists to enforce::

    python benchmarks/check_perf_budget.py \
        --collective BENCH_collective.json

``--trace-overhead`` gates the cost of the tracing layer itself on the
windowed pack microbench (``bench_blockprog_windowed.run_pack_windowed``
— one hot-guard span per window call).  Three configs are timed:
tracing off (the baseline every production run pays), category-filtered
on with the hot ``ff`` category excluded (the guard fires but the span
is rejected at record), and fully on.  Gates: the filtered config must
stay within 2% of off — the promise that narrowing ``REPRO_TRACE`` to
the categories you need keeps hot kernels effectively untraced — and
fully-on within 10%::

    python benchmarks/check_perf_budget.py --trace-overhead

``--calls`` is a deterministic gate on the fixed per-access cost: it
counts the Python-level calls of ``repro`` functions (``sys.setprofile``
"call" events, the access's own frame included) in one *replayed*
access of the repository benchmark's workloads — a ``small_indep``
write and read (and the write from a ``float64`` buffer), a
``sparse_os`` write on a real file, and a
``coll_interleaved`` write on each rank, mapped and two-phase — and
fails above :data:`CALL_BUDGETS`.  It also counts, through a counting
proxy on the file's ``_mu`` and its ``FileStats._mu``, the locks one
replayed mapped access takes, and fails above :data:`LOCK_BUDGETS`.
Counts do not depend on the host's speed, so the gate cannot flake on
a slow runner::

    python benchmarks/check_perf_budget.py --calls
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

BASELINE = pathlib.Path(__file__).resolve().parent.parent / "results" / (
    "BENCH_blockprog.json"
)


#: Interleaved runs per cell the ``--collective`` gate takes the median
#: of: one quick run of the noisiest cell read 1.056–1.091 against the
#: 1.05 limit on an unchanged tree.
MIN_COLLECTIVE_RUNS = 3

#: The strict read of :data:`LOCK_BUDGETS`.
STRICT_READ = "64 B read_at, BYTE view (strict)"

#: Calls of ``repro`` functions one replayed access may make per rank
#: (``--calls``).  Before plans were compiled to step tuples they were
#: 66 (write) / 54 (read) on ``small_indep`` and 642 on
#: ``coll_interleaved``.  Mapped independent access took
#: ``small_indep`` from 31 / 22 to 20 / 20, and the mapped collective
#: took the ``coll_interleaved`` write from 516 to 31.  Binding a
#: replayed mapped access into one step took ``small_indep`` to 12 / 12,
#: the ``OsFile`` write of ``sparse_os`` (one call more: its mapping)
#: from 20 to 13 and the mapped ``coll_interleaved`` write to 26.  One
#: bound call from the file handle to the copy kernel took them to 6 / 6,
#: 7 and 21.  Compiling the bound call's copy kept 6 / 6 and 7; the
#: mapped collective passing its raw buffer to the bound call, and a
#: barrier that builds no span with tracing off, took
#: ``coll_interleaved`` to 14.  Each checked kernel copy now calls its
#: copy core, one call more per copy: the two-phase write went from 527
#: to 540.  One communicator for the world and its groups made a barrier
#: one call from ``Comm.barrier`` to the barrier's wait (3 before), and
#: the collective's flight breadcrumb takes the world rank from its
#: caller and its ring in one lookup (2 calls, 4 before): the mapped
#: ``coll_interleaved`` write went from 14 to 11, the two-phase one from
#: 540 to 510.  Billing a replay on its bound call's tally
#: (:mod:`repro.tally`) instead of 13 shared counters kept every count —
#: that billing was statements, not calls — and took the replay's file
#: locks from 2 to 1 (:data:`LOCK_BUDGETS`).  Moving the two-phase round
#: driver out of the executor, with the deferred worker's causal-edge
#: stamps inlined and the offload check made once when a plan is
#: lowered, took the two-phase write from 510 to 501.  Those budgets are
#: the counts plus 2.  The traced entry is
#: the same ``small_indep`` write with tracing on: tracing adds its spans
#: to the bound call and never sends a replay back through the planner
#: and the executor (29 calls; 35 before the bound call, 38 unbound).
#: The ``float64`` entry is the ``small_indep`` write from a ``float64``
#: view of the same bytes: any C-contiguous buffer takes the bound call
#: unvalidated (6 calls; 8 when a ``MemDescriptor`` validated it
#: first).  The two-phase entry runs the same collective on
#: an :func:`~repro.fs.unmapped.unmapped` ``SimFile``.
CALL_BUDGETS = {
    "small_indep write": 8,
    "small_indep read": 8,
    "small_indep write (traced)": 31,
    "small_indep write (float64)": 8,
    "sparse_os write": 9,
    "coll_interleaved write": 13,
    "coll_interleaved write (two-phase)": 503,
}


#: Acquisitions of the file's ``_mu`` and of its ``FileStats._mu`` one
#: replayed mapped access may make per rank (``--calls``; a barrier's
#: own lock is not counted).  The copy holds ``_mu``; the access bills
#: the file's stats on its bound call's tally, which takes no lock, so
#: the count is 1.  Billing them under ``FileStats._mu`` made it 2: a
#: shared-counter lock back on the replay path fails this gate.  The
#: strict entry is a replayed 64 B ``read_at`` through a ``dt.BYTE``
#: view, a read that fails short of end-of-file: its size check is made
#: under the copy's ``_mu`` (2 when the size was read under a lock of
#: its own first).
LOCK_BUDGETS = {
    "small_indep write": 1,
    "small_indep read": 1,
    "sparse_os write": 1,
    "coll_interleaved write": 1,
    STRICT_READ: 1,
}


class _CountingLock:
    """A lock that counts its acquisitions per thread, wrapping (and
    locking) the real one."""

    def __init__(self, lock, counts: dict) -> None:
        self.lock, self.counts = lock, counts

    def acquire(self, *args, **kwargs):
        import threading

        ident = threading.get_ident()
        self.counts[ident] = self.counts.get(ident, 0) + 1
        return self.lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self.lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def _count_locks(comm, f, fn, *args) -> int:
    """Acquisitions of ``f._mu`` and ``f.stats._mu`` that ``fn(*args)``
    makes on this thread.  Collective over ``comm``: rank 0 wraps the
    file's locks while every rank waits, so no rank holds one, and
    unwraps them after every rank's call."""
    import threading

    comm.barrier()
    if comm.rank == 0:
        counts: dict = {}
        real = f._mu, f.stats._mu
        f._mu = _CountingLock(real[0], counts)
        f.stats._mu = _CountingLock(real[1], counts)
    comm.barrier()
    fn(*args)
    n = f._mu.counts.get(threading.get_ident(), 0)
    comm.barrier()
    if comm.rank == 0:
        f._mu, f.stats._mu = real
    comm.barrier()
    return n


def _count_calls(fn, *args) -> int:
    """Calls of ``repro`` functions ``fn(*args)`` makes on this thread,
    its own frame included.  Library frames (NumPy's Python wrappers,
    :mod:`threading`, whose waits loop as often as thread timing
    dictates) are left out, so the count is a property of the program
    alone."""
    import os

    import repro

    home = os.path.dirname(repro.__file__) + os.sep
    n = 0

    def prof(frame, event, arg):
        nonlocal n
        if event == "call" and frame.f_code.co_filename.startswith(home):
            n += 1

    sys.setprofile(prof)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return n


def measure_calls() -> tuple:
    """``({access: calls per rank}, {access: locks per rank})`` of one
    replayed access of each gated workload, after a warm pass over
    every slot (so plans, programs and views are cached, as in the
    benchmark's steady state).  A collective's count is the mean over
    its ranks: which rank does a shared one-time step first varies run
    to run, their sum does not.  Locks are counted for the accesses of
    :data:`LOCK_BUDGETS`, in an access of their own.
    """
    import tempfile

    import numpy as np

    from perfbench.workloads import WORKLOADS
    from repro import datatypes as dt
    from repro.fs import OsFileSystem, SimFileSystem
    from repro.fs.unmapped import unmapped
    from repro.io import File, MODE_CREATE, MODE_RDWR
    from repro.io.hints import Hints
    from repro.mpi import run_spmd
    from repro.obs import trace

    out, locks = {}, {}
    tmp = tempfile.TemporaryDirectory()
    osfs = OsFileSystem(tmp.name)
    for name, dirs, path, fs in (
            ("small_indep", ("write", "read", "write (traced)",
                             "write (float64)"), "", SimFileSystem()),
            ("sparse_os", ("write",), "", osfs),
            ("coll_interleaved", ("write",), "", SimFileSystem()),
            ("coll_interleaved", ("write",), " (two-phase)",
             unmapped(SimFileSystem()))):
        spec = WORKLOADS[name]

        def rank(comm):
            count, memtype = spec.memtype()
            fh = File.open(comm, fs, "/calls", MODE_CREATE | MODE_RDWR,
                           hints=Hints.from_mapping(spec.hints))
            fh.set_view(0, dt.BYTE, spec.filetype(comm.rank))
            fh.preallocate(spec.region_bytes)
            w = np.arange(spec.buf_bytes, dtype=np.uint8)
            r = np.zeros(spec.buf_bytes, dtype=np.uint8)
            write, read = ((fh.write_at_all, fh.read_at_all)
                           if spec.collective else (fh.write_at, fh.read_at))
            step = spec.access_bytes
            for slot in range(spec.slots):
                write(slot * step, w, count, memtype)
                read(slot * step, r, count, memtype)
            calls, held = {}, {}
            for d in dirs:
                call, buf = (write, w) if d != "read" else (read, r)
                if d.endswith("(float64)"):
                    buf = w.view(np.float64)
                comm.barrier()
                traced = d.endswith("(traced)")
                prev = trace.set_tracing(traced)
                try:
                    if traced:  # the tracer's first span sets up its ring
                        call(step, buf, count, memtype)
                    calls[d] = _count_calls(call, step, buf, count, memtype)
                finally:
                    trace.set_tracing(prev)
                    trace.TRACER.clear()
                if f"{name} {d}{path}" in LOCK_BUDGETS:
                    held[d] = _count_locks(comm, fh.simfile, call, step,
                                           buf, count, memtype)
            comm.barrier()
            fh.close()
            return calls, held

        per_rank = run_spmd(spec.nprocs, rank)
        for d in dirs:
            what = f"{name} {d}{path}"
            out[what] = sum(c[d] for c, _ in per_rank) / spec.nprocs
            if what in LOCK_BUDGETS:
                locks[what] = (sum(h[d] for _, h in per_rank)
                               / spec.nprocs)
    osfs.close()
    tmp.cleanup()

    def strict(comm):
        fh = File.open(comm, SimFileSystem(), "/strict",
                       MODE_CREATE | MODE_RDWR)
        fh.set_view(0, dt.BYTE, dt.BYTE)
        fh.write_at(0, np.arange(128, dtype=np.uint8))
        r = np.zeros(64, dtype=np.uint8)
        fh.read_at(0, r)  # binds the read's replay entry
        n = _count_locks(comm, fh.simfile, fh.read_at, 64, r)
        fh.close()
        return n

    (locks[STRICT_READ],) = run_spmd(1, strict)
    return out, locks


def check_calls() -> int:
    """Call-count gate over :data:`CALL_BUDGETS` and lock-count gate
    over :data:`LOCK_BUDGETS`."""
    counts, locks = measure_calls()
    failed = []
    for what, budget in CALL_BUDGETS.items():
        n = counts[what]
        print(f"  {what:>34}: {n:6g} Python calls (budget {budget})")
        if n > budget:
            failed.append(f"{what} makes {n} calls (budget {budget})")
    for what, budget in LOCK_BUDGETS.items():
        n = locks[what]
        print(f"  {what:>34}: {n:6g} file locks (budget {budget})")
        if n > budget:
            failed.append(f"{what} takes {n} file locks (budget {budget})")
    if failed:
        print("FAIL: " + "; ".join(failed), file=sys.stderr)
        return 1
    print("PASS: per-access call and lock counts within budget")
    return 0


def _engine_share(record: dict, which: str) -> float:
    try:
        d = record["cases"]["engine"]["decomposition"]["listless"]
        return float(d[which])
    except (KeyError, TypeError):
        raise SystemExit(
            f"record has no engine decomposition ({which}) — "
            "was the bench run with this tree's bench script?"
        )


def check_collective(path: str, slack: float) -> int:
    """Round-overlap gate over a fresh BENCH_collective.json."""
    with open(path) as f:
        rec = json.load(f)
    bound = rec["acceptance"]["bound_bytes"]
    limit = 1.0 + slack
    failed = []
    for name, cell in rec["cells"].items():
        runs = cell.get("pipelined_vs_one_shot_runs", [])
        if len(runs) < MIN_COLLECTIVE_RUNS:
            print(f"  {name:>18}: {len(runs)} run(s), the gate needs "
                  f"{MIN_COLLECTIVE_RUNS}  <-- FAIL")
            failed.append(name)
            continue
        ratio = statistics.median(runs)
        overlap = cell["overlap_efficiency"]
        peak = max(cell["serial"]["peak_staging"],
                   cell["pipelined"]["peak_staging"])
        ok = ratio <= limit and overlap > 0.0 and peak <= bound
        print(f"  {name:>18}: pipelined/one-shot {ratio:.3f} "
              f"(median of {len(runs)}, limit {limit:.2f})  "
              f"overlap {overlap:.2f}  "
              f"round peak {peak} B (bound {bound} B)"
              f"{'' if ok else '  <-- FAIL'}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"FAIL: round-overlap gate broken in {len(failed)} "
              f"cell(s): {', '.join(failed)}", file=sys.stderr)
        return 1
    print("PASS: pipelined rounds within the one-shot budget in every "
          "cell, staging bound held")
    return 0


def check_trace_overhead(iters: int, repeats: int, off_limit: float,
                         on_limit: float) -> int:
    """Tracing-cost gate on the windowed pack microbench (see module
    docstring).  The three configs are timed *interleaved*: ``repeats``
    rounds of one short run each, in an order that rotates per round,
    and each round yields its own filtered/off and on/off ratios; the
    gate holds the median ratio over the rounds.  A ratio within one
    round compares runs milliseconds apart, so a host that switches
    between fast and slow states hits both sides of it alike, and the
    median drops the rounds a switch landed in.  Comparing each
    config's best run over all rounds instead — as this gate did
    before — compares runs from different host states; it failed about
    half the time on an unchanged tree."""
    try:
        from benchmarks.bench_blockprog_windowed import run_pack_windowed
    except ImportError:  # run as a script: benchmarks/ is sys.path[0]
        from bench_blockprog_windowed import run_pack_windowed
    from repro.obs import trace

    # A collective-buffer-sized window (128 periods = 256 KiB of file
    # range, the default cb_buffer_size) so one span weighs against the
    # kernel work a production pack call actually does per stamp.
    win_periods = 128

    # Hot spans are category ``ff``; the filtered config excludes them
    # while keeping exec/aggregation recordable (satellite promise: a
    # narrowed REPRO_TRACE leaves hot kernels effectively untraced).
    configs = [
        ("off", False),
        ("filtered", frozenset(("exec", "aggregation"))),
        ("on", True),
    ]
    vals: dict = {name: [] for name, _ in configs}
    run_pack_windowed(4, win_periods=win_periods)  # warm caches untimed
    for r in range(repeats):
        for name, config in configs[r % 3:] + configs[:r % 3]:
            prev = trace.set_tracing(config)
            try:
                trace.TRACER.clear()
                vals[name].append(run_pack_windowed(
                    iters, win_periods=win_periods))
            finally:
                trace.set_tracing(prev)
    base = statistics.median(vals["off"])
    ov_filtered = statistics.median(
        f / o for f, o in zip(vals["filtered"], vals["off"])) - 1.0
    ov_full = statistics.median(
        f / o for f, o in zip(vals["on"], vals["off"])) - 1.0
    print(f"trace overhead on windowed pack ({iters} windows, median of "
          f"{repeats} interleaved rounds):")
    print(f"  off      {base * 1e3:8.2f} ms  (baseline)")
    print(f"  filtered {max(ov_filtered, 0.0) * 100:+8.2f}%  "
          f"(limit {off_limit * 100:.0f}%)")
    print(f"  on       {max(ov_full, 0.0) * 100:+8.2f}%  "
          f"(limit {on_limit * 100:.0f}%)")
    failed = []
    if ov_filtered >= off_limit:
        failed.append("category-filtered tracing exceeds the "
                      f"{off_limit * 100:.0f}% budget")
    if ov_full >= on_limit:
        failed.append(f"full tracing exceeds the {on_limit * 100:.0f}% "
                      "budget")
    if failed:
        print("FAIL: " + "; ".join(failed), file=sys.stderr)
        return 1
    print("PASS: tracing overhead within budget")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench",
                    help="fresh BENCH_blockprog.json to check")
    ap.add_argument("--baseline", default=str(BASELINE),
                    help="committed record holding the budget")
    ap.add_argument("--slack", type=float, default=0.15,
                    help="allowed absolute engine-share regression")
    ap.add_argument("--collective", metavar="JSON",
                    help="gate a fresh BENCH_collective.json "
                         "(round-overlap) instead")
    ap.add_argument("--collective-slack", type=float, default=0.05,
                    help="allowed pipelined-vs-one-shot excess")
    ap.add_argument("--trace-overhead", action="store_true",
                    dest="trace_overhead",
                    help="gate tracing cost on the windowed pack "
                         "microbench instead")
    ap.add_argument("--trace-iters", type=int, default=50,
                    help="windows per timed run of the trace gate")
    ap.add_argument("--trace-repeats", type=int, default=201,
                    help="interleaved rounds of the trace gate (the "
                    "median of the per-round ratios is gated)")
    ap.add_argument("--trace-off-limit", type=float, default=0.02,
                    help="allowed overhead of category-filtered tracing")
    ap.add_argument("--trace-on-limit", type=float, default=0.10,
                    help="allowed overhead of full tracing")
    ap.add_argument("--calls", action="store_true",
                    help="gate the Python calls of one replayed access "
                         "instead")
    args = ap.parse_args()

    if args.calls:
        return check_calls()
    if args.trace_overhead:
        return check_trace_overhead(args.trace_iters, args.trace_repeats,
                                    args.trace_off_limit,
                                    args.trace_on_limit)
    if args.collective:
        return check_collective(args.collective, args.collective_slack)
    if not args.bench:
        ap.error("one of --bench, --collective, --trace-overhead or "
                 "--calls is required")

    with open(args.bench) as f:
        fresh = json.load(f)
    with open(args.baseline) as f:
        base = json.load(f)

    fresh_share = _engine_share(fresh, "engine_share")
    base_share = _engine_share(base, "engine_share")
    budget = base_share + args.slack
    ratio = _engine_share(fresh, "engine_kernel_ratio")
    print(f"engine-layer share: fresh {fresh_share:.3f}  "
          f"baseline {base_share:.3f}  budget {budget:.3f}  "
          f"(engine:kernel {ratio:.2f})")
    if fresh_share > budget:
        print("FAIL: engine-layer share regressed past the recorded "
              "baseline + slack", file=sys.stderr)
        return 1
    print("PASS: engine-layer share within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
