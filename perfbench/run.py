"""Repository benchmark: one workload per invocation, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced + traced

A single-workload run prints a readable report, then as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).  The exit code is non-zero on any
failed operation, byte mismatch or count that does not repeat.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Cold set-ups per run; ``setup_s`` is their median.
N_SETUPS = 15
#: ``peak_rss_MB`` is read after this many write + read batch pairs: a
#: fixed amount of work, because the resident set of a workload that
#: grows per access would otherwise follow the host's speed.
RSS_PAIRS = 256
#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def host_speed(comm, spec, plain, n):
    """Rank 0: the plain yardstick's rate over ``n`` write and ``n`` read
    accesses, as a multiple of its reference rate ``spec.plain_MBps``;
    ``None`` on other ranks.  The barriers keep the other ranks idle
    while it runs."""
    comm.barrier()
    h = None
    if plain is not None:
        t0 = time.perf_counter()
        plain.batch(True, n)
        plain.batch(False, n)
        el = time.perf_counter() - t0
        nbytes = 2 * n * spec.nprocs * spec.access_bytes
        h = nbytes / el / 1e6 / spec.plain_MBps
    comm.barrier()
    return h


def _tail(samples):
    """``(percentile, value)`` of the highest ladder percentile with at
    least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, xs[min(n - 1, int(n * p / 100.0))]
    return 50.0, _median(xs)


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MiB."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Counts read from session-wide counters that rank threads bump without
#: a lock (block-program cache hits/misses, kernel paths): with two rank
#: threads, two ranks can both miss and compile the same program, so
#: these are reported but not required to repeat on multi-rank workloads.
SHARED_COUNTERS = ("core.kernel_calls_per_access", "core.blockprog_hit_ratio")


# ----------------------------------------------------------------------
# Exact counts: one cold set-up plus one steady pass, in a fresh session
# ----------------------------------------------------------------------
def count_pass(spec, seed, fs, tally, k):
    from repro.core.blockprog import blockprog_stats
    from repro.core.gather import kernel_path_counts
    from repro.mpi import run_spmd
    from repro.session import IOSession

    from perfbench.workloads import Rig, make_patterns

    sess = IOSession(f"count-{k}")
    worlds = []
    path = f"/count-{k}"

    def snap(rig):
        world = worlds[0]
        return {
            "engine": rig.fh.engine.stats.snapshot(),
            "file": rig.fh.simfile.stats.snapshot(),
            "prog": blockprog_stats(),
            "kpath": kernel_path_counts(),
            "mpi_bytes": world.total_bytes_sent(),
            "mpi_msgs": sum(world.messages_sent),
        }

    def rank_main(comm):
        rig = Rig(spec, comm, fs, path, make_patterns(spec, seed, comm.rank),
                  seed % spec.slots, tally)
        rig.warm()
        comm.barrier()
        s0 = snap(rig)
        comm.barrier()
        rig.batch(True, spec.slots)
        rig.batch(False, spec.slots)
        comm.barrier()
        s1 = snap(rig)
        comm.barrier()
        rig.close()
        return s0, s1

    with sess:
        per_rank = run_spmd(spec.nprocs, rank_main, world_out=worlds,
                            session=sess)
    fs.unlink(path)
    return derive_counts(spec, per_rank)


def derive_counts(spec, per_rank):
    """Per-access counts of the steady pass (2 * slots accesses) and
    hit ratios of the whole pass, cold set-up included."""
    steps = 2 * spec.slots
    user = steps * spec.nprocs * spec.access_bytes
    # Rank 0's snapshot: session, world and file counters are shared,
    # and every rank schedules the same rounds.
    s0, s1 = per_rank[0]

    def eng(key, which=1):
        return sum(r[which]["engine"][key] for r in per_rank)

    def d_eng(key):
        return eng(key, 1) - eng(key, 0)

    def d(sect, key):
        return s1[sect][key] - s0[sect][key]

    hits, misses = eng("plan_cache_hits"), eng("plan_cache_misses")
    ph, pm = s1["prog"]["blockprog_hits"], s1["prog"]["blockprog_misses"]
    kcalls = sum(s1["kpath"].values()) - sum(s0["kpath"].values())
    return {
        "plan.cache_hit_ratio": hits / max(1, hits + misses),
        "plan.ops_per_access": d_eng("executed_ops") / steps,
        "core.kernel_calls_per_access": kcalls / steps,
        "core.blockprog_hit_ratio": ph / max(1, ph + pm),
        "fs.calls_per_access":
            (d("file", "n_reads") + d("file", "n_writes")) / steps,
        "fs.bytes_per_user_byte":
            (d("file", "bytes_read") + d("file", "bytes_written")) / user,
        "fs.locks_per_access": d("file", "n_locks") / steps,
        "mpi.bytes_per_user_byte": (s1["mpi_bytes"] - s0["mpi_bytes"]) / user,
        "mpi.messages_per_access": (s1["mpi_msgs"] - s0["mpi_msgs"]) / steps,
        "io.aggregation.rounds_per_access": d("engine", "coll_rounds") / steps,
        "io.aggregation.peak_staging_bytes":
            max(r[1]["engine"]["peak_staging_bytes"] for r in per_rank),
    }


# ----------------------------------------------------------------------
# The measured run
# ----------------------------------------------------------------------
def measure(spec, seed, seconds, trace, workdir, tally):
    from repro.fs import SimFileSystem
    from repro.fs.filesystem import OsFileSystem
    from repro.mpi import run_spmd

    from perfbench.reference import Ceiling, Plain, oracle_file
    from perfbench.tracing import Tracer
    from perfbench.workloads import Rig, file_contents, make_patterns

    if spec.backend == "os":
        fs = OsFileSystem(os.path.join(workdir, "fs"))
    else:
        fs = SimFileSystem()
    out = {}

    if trace:
        passes = [count_pass(spec, seed, fs, tally, k) for k in range(2)]
        racy = SHARED_COUNTERS if spec.nprocs > 1 else ()
        a, b = ({k: v for k, v in p.items() if k not in racy}
                for p in passes)
        if a != b:
            tally.fail(f"counts differ between two passes: {a} vs {b}")
        out.update(passes[0])

    tracer = Tracer() if trace else None
    start = seed % spec.slots
    rec = {"setup": [], "W": [], "R": [], "lat_W": [], "lat_R": [],
           "cW": [], "cR": [], "tW": [], "tR": [], "h_setup": [], "h": []}
    final = {}

    def rank_main(comm):
        rank = comm.rank
        lead = rank == 0
        patterns = make_patterns(spec, seed, rank)
        plain = None
        if lead and not trace:
            plain = Plain(
                spec, [make_patterns(spec, seed, r)
                       for r in range(spec.nprocs)],
                os.path.join(workdir, "plain")
                if spec.backend == "os" else None)
        rig = None
        for k in range(1 if trace else N_SETUPS):
            if rig is not None:
                path = rig.path
                rig.close()
                rig = None
                comm.barrier()
                if lead:
                    fs.unlink(path)
                    # Free the closed file now (the handle graph has
                    # cycles), so peak RSS holds one set-up, not all.
                    gc.collect()
            comm.barrier()
            t0 = time.perf_counter()
            rig = Rig(spec, comm, fs, f"/bench-{k}", patterns, start, tally)
            rig.warm()
            comm.barrier()
            if lead:
                rec["setup"].append(time.perf_counter() - t0)
            if not trace:
                h = host_speed(comm, spec, plain, spec.batch)
                if lead:
                    rec["h_setup"].append(h)

        ceiling = None
        if trace:
            ospath = (os.path.join(workdir, f"ceiling-{rank}")
                      if spec.backend == "os" else None)
            ceiling = Ceiling(spec, patterns, ospath)
        nbytes = spec.nprocs * spec.access_bytes * spec.batch
        deadline = time.perf_counter() + seconds
        while comm.bcast(time.perf_counter() < deadline if lead else None):
            for write, key in ((True, "W"), (False, "R")):
                el, lat = rig.batch(write, spec.batch)
                if lead:
                    rec[key].append(nbytes / el)
                if not trace:
                    continue
                if lead:
                    rec["lat_" + key].extend(lat)
                comm.barrier()
                t0 = time.perf_counter()
                ceiling.batch(write, spec.batch)
                comm.barrier()
                if lead:
                    rec["c" + key].append(nbytes / (time.perf_counter() - t0))
                    tracer.install()
                try:
                    el, _ = rig.batch(write, spec.batch, tracer=tracer)
                finally:
                    if lead:
                        tracer.uninstall()
                if lead:
                    rec["t" + key].append(nbytes / el)
            if not trace:
                h = host_speed(comm, spec, plain, spec.batch)
                if lead:
                    rec["h"].append(h)
                    if len(rec["h"]) == RSS_PAIRS:
                        rec["rss"] = _peak_rss_mb()
        if ceiling is not None:
            ceiling.close()
        if plain is not None:
            plain.close()
        rig.close()
        final[rank] = (patterns, rig.written)
        return rig.path

    paths = run_spmd(spec.nprocs, rank_main)
    # Before the oracle's own allocations, if the run was too short.
    peak_rss_mb = rec.get("rss") or _peak_rss_mb()
    # Byte identity of the whole region against the type-map oracle.
    got = file_contents(fs, paths[0])
    want = oracle_file(spec, [final[r][0] for r in range(spec.nprocs)],
                       [final[r][1] for r in range(spec.nprocs)])
    tally.ok(1)
    if got.size != want.size or not np.array_equal(got, want):
        n = min(got.size, want.size)
        bad = np.flatnonzero(got[:n] != want[:n])
        tally.fail(f"final file differs from the type-map oracle "
                   f"(size {got.size} vs {want.size}, first bad byte "
                   f"{int(bad[0]) if bad.size else n})")
    if spec.backend == "os":
        fs.close()

    MB = 1e6
    if not trace:
        # Each time is scaled to the reference host speed by the
        # yardstick batch run right after it.
        out["write_MBps"] = _median(
            [r / h for r, h in zip(rec["W"], rec["h"])]) / MB
        out["read_MBps"] = _median(
            [r / h for r, h in zip(rec["R"], rec["h"])]) / MB
        out["setup_s"] = _median(
            [t * h for t, h in zip(rec["setup"], rec["h_setup"])])
        out["peak_rss_MB"] = peak_rss_mb
        out["_batches"] = len(rec["W"])
        out["_raw"] = {"write_MBps": _median(rec["W"]) / MB,
                       "read_MBps": _median(rec["R"]) / MB,
                       "setup_s": _median(rec["setup"]),
                       "host_speed": _median(rec["h"])}
        return out, tracer

    steps = spec.batch * len(rec["tW"])  # traced accesses per direction
    for d, key in (("write", "W"), ("read", "R")):
        lat = rec["lat_" + key]
        p, v = _tail(lat)
        out[f"io.{d}_p50_us"] = _median(lat) * 1e6
        out[f"io.{d}_tail_us"] = v * 1e6
        out[f"io.{d}_tail_pct"] = p
        out[f"io.{d}_samples"] = len(lat)
        for layer, name in (("plan", "plan.{}_self_us"),
                            ("exec", "plan.{}_exec_self_us"),
                            ("core", "core.{}_pack_self_us"),
                            ("fs", "fs.{}_self_us"),
                            ("mpi", "mpi.{}_self_us")):
            s = tracer.self_s.get((layer, d), 0.0)
            out[name.format(d)] = s / max(1, steps) * 1e6
        u = _median(rec[key])
        out[f"ceiling.{d}_MBps"] = _median(rec["c" + key]) / MB
        out[f"ceiling.{d}_frac"] = u / max(1e-12, _median(rec["c" + key]))
    out["trace.overhead_frac"] = statistics.mean(
        _median(rec["t" + k]) / max(1e-12, _median(rec[k]))
        for k in ("W", "R"))
    out["_batches"] = len(rec["W"])
    return out, tracer


# ----------------------------------------------------------------------
def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def pin_to_one_cpu() -> None:
    """Run on a single CPU.  Sim ranks are threads that take turns on
    the interpreter lock; handing it across CPUs costs a cross-CPU
    wake-up whose latency swings with host load (the 2-rank workload
    moved 2x between runs unpinned)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args) -> int:
    from perfbench.workloads import WORKLOADS, Tally

    spec = WORKLOADS[args.workload]
    pin_to_one_cpu()
    bench = load_spec()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    try:
        out, tracer = measure(spec, args.seed, args.seconds, args.trace,
                              workdir, tally)
    except Exception as exc:  # an operation raised: the run is failed
        print(f"{spec.name}: run aborted: {exc!r}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(1, tally.attempted),
                          "failed": max(1, tally.failed), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        spans_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.dump(os.path.join(
            spans_dir, f"{spec.name}-seed{args.seed}.spans.jsonl"))

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(out[m["name"]]),
                              "unit": m["unit"]}
    mode = "traced" if args.trace else "untraced"
    print(f"{spec.name} ({mode}, seed {args.seed}, {out['_batches']} "
          f"write + {out['_batches']} read batches of {spec.batch} "
          f"accesses)")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}")
    if "_raw" in out:
        raw = out["_raw"]
        print(f"  unscaled: write {raw['write_MBps']:.6g} MB/s, read "
              f"{raw['read_MBps']:.6g} MB/s, setup {raw['setup_s']:.6g} s "
              f"at host speed {raw['host_speed']:.4g} x reference")
    if tally.first_error:
        print(f"  FAILED: {tally.first_error}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=600)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: the repro sources (src/repro) are not in this "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} "
                 f"(one of: {', '.join(WORKLOADS)}, all)")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
