"""Round-based aggregation: staging bound, and pipelined-round overlap.

The round-based collective driver (``repro.io.aggregation``) walks each
I/O-process domain in ``cb_buffer_size`` windows and ships only the
current window's bytes per exchange, so an aggregator never stages more
than O(cb_buffer_size x participating APs) at once.  This bench pins
that bound against the *one-shot* configuration (``cb_buffer_size``
large enough that every domain is a single window — the pre-refactor
behaviour), sweeps the pluggable file-domain partitioning strategies
(``cb_domain_align`` in even/stripe/block), and measures what the
pipelined plan shape (``cb_pipeline=on``: deferred window I/O, relaxed
p2p round synchronization) buys back of the wall time serial rounds pay
for their bounded staging.

Timing follows the repo's substitution rule (DESIGN.md §5.5): effective
time = measured wall + charged simulated device seconds, where the
pipelined executor charges only the *unhidden* device time
(``device_sync_seconds + device_stall_seconds``) — offloaded window I/O
the device worked off behind round CPU costs nothing.  The device model
is deliberately slow (a few MB/s per rank, microsecond access latency:
one round's window costs a few ms, commensurate with one round of CPU)
because that is the regime aggregated I/O exists for; with a device
much faster than the CPU there is nothing to overlap, with one much
slower nothing can hide it.  Plans are warmed before timing — the
paper's collectives replay cached plans, so steady-state cells must not
pay one-time planning.

Cells per (engine, strategy): ``one_shot``, ``serial``
(``cb_pipeline=off``) and ``pipelined`` (``cb_pipeline=on``), each with
effective time, peak staging, the pipelined cell's *overlap
efficiency* — the fraction of total device time hidden behind round
CPU, ``(device_async - device_stall) / (device_sync + device_async)`` —
and per-round *skew* columns: the cross-rank spread of each timed
round's wall (and exchange) seconds, worst round and mean, from the
per-rank round logs.  Skew is the per-round face of what ``repro trace
--waits`` attributes causally: a rank whose rounds persistently run
long shows up both here and as the straggler the others wait on.
The cells run on an :func:`~repro.fs.unmapped.unmapped` ``SimFile``:
on the ``SimFile`` itself a collective is mapped (one barrier, one copy
per rank) and has no rounds to measure.  Every cell is measured
``RUNS`` times, interleaved (run *k* of every cell before run *k + 1* of
any), and each cell reports the median run's ratios next to every
run's ``pipelined_vs_one_shot``: ``check_perf_budget.py --collective``
gates that median, because one run per cell is within noise of its
limit.

The record's ``probe`` row is the small-collective probe: 8 sim ranks,
each with a 128 B Fig. 4 view (Sblock 8, Nblock 16), milliseconds of
wall time per replayed ``write_at_all`` and per ``write_at``, on the
mapped path (the ``SimFile``) and on the two-phase path (the unmapped
``SimFile``) — "collective ≤ independent" as a number for each path.
It is reported, not gated.  Standalone run writes the machine-readable
record::

    python benchmarks/bench_collective_rounds.py --quick \
        --out results/BENCH_collective.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
import pytest

from repro import datatypes as dt
from repro.bench.noncontig import build_noncontig_filetype
from repro.fs import DeviceModel, SimFileSystem
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.hints import DOMAIN_ALIGNMENTS, Hints
from repro.mpi import run_spmd

#: Ranks in the collective; every rank is both AP and IOP by default.
NPROCS = 4
#: Bytes each rank contributes per collective access.
BYTES_PER_RANK = 1 << 19
#: Interleave granularity (one vector block).
BLOCK = 1 << 10
#: Round-based window; one-shot mode uses the whole aggregate range.
ROUND_CB = 1 << 15

#: Device model of the measured cells: a slow store whose per-window
#: time is a few ms — the regime where hiding window I/O behind round
#: CPU is visible.  Latency is kept tiny so the pipelined mode's extra
#: per-window accesses (16 windows vs one-shot's single access) do not
#: drown the comparison in seek charges.
DEVICE = dict(read_bandwidth=6e6, write_bandwidth=6e6, latency=1e-5)

#: Timed write+read pairs per run (after one untimed warm-up pair that
#: populates the plan cache).  Cell times take the *fastest* of REPEATS
#: runs (as bench_ext_multidim does): the cells are compared as ratios,
#: and a best-of estimate suppresses the threaded scheduler's one-sided
#: noise far better than a median.
NREPS = 2
REPEATS = 6
#: Interleaved runs of every cell; the gate compares their median.
RUNS = 3

#: The small-collective probe: ranks, Sblock, Nblock of each rank's
#: Fig. 4 view, and the warm and timed accesses per call.
PROBE_RANKS, PROBE_SBLOCK, PROBE_NBLOCK = 8, 8, 16
PROBE_WARM, PROBE_ACCESSES = 20, 200


def _run_once(engine: str, cb: int, align, nbytes: int,
              pipeline: str = "off") -> dict:
    """One warmed, repeated collective write+read pair on ``NPROCS``
    ranks.

    Returns per-pair effective seconds plus the per-rank maxima of the
    staging and round counters and the rank-summed device-time
    decomposition.
    """
    fs = unmapped(SimFileSystem(device=DeviceModel(**DEVICE)))
    nblocks = nbytes // BLOCK
    fs.create("/coll").truncate(NPROCS * nbytes)

    def worker(comm):
        fh = File.open(
            comm, fs, "/coll", MODE_CREATE | MODE_RDWR, engine=engine,
            hints=Hints(cb_buffer_size=cb, cb_domain_align=align,
                        cb_pipeline=pipeline),
        )
        ft = dt.vector(nblocks, BLOCK, NPROCS * BLOCK, dt.BYTE)
        fh.set_view(comm.rank * BLOCK, dt.BYTE, ft)
        wbuf = np.full(nbytes, comm.rank + 1, dtype=np.uint8)
        rbuf = np.zeros(nbytes, dtype=np.uint8)
        # Warm-up pair: populates the plan cache (and the executor's
        # worker), so the timed pairs measure steady-state replay.
        fh.write_at_all(0, wbuf)
        fh.read_at_all(0, rbuf)
        st = fh.engine.stats
        base = (st.plan.device_sync_seconds, st.plan.device_async_seconds,
                st.plan.device_stall_seconds)
        nwarm_rounds = len(st.rounds)
        t0 = time.perf_counter()
        for _ in range(NREPS):
            fh.write_at_all(0, wbuf)
            fh.read_at_all(0, rbuf)
        wall = (time.perf_counter() - t0) / NREPS
        assert np.array_equal(rbuf, wbuf)
        dsync, dasync, dstall = (
            b - a for a, b in zip(base, (
                st.plan.device_sync_seconds,
                st.plan.device_async_seconds,
                st.plan.device_stall_seconds,
            ))
        )
        timed_rounds = st.rounds.snapshot()[nwarm_rounds:]
        out = {
            "wall": wall,
            "device": (dsync + dstall) / NREPS,
            "dev_hidden": dasync - dstall,
            "dev_total": dsync + dasync,
            "peak_staging": st.plan.peak_staging_bytes,
            "rounds": st.coll_rounds,
            "domain_skew": st.coll_domain_skew,
            "pipelined_ops": st.plan.pipelined_file_ops,
            "idle_synced": st.plan.rounds_idle_synced,
            "round_walls": [r["wall"] for r in timed_rounds],
            "round_exchanges": [r["exchange"] for r in timed_rounds],
        }
        fh.close()
        return out

    rows = run_spmd(NPROCS, worker)

    def skews(key: str) -> list:
        # Ranks replay the same deterministic round schedule, so the
        # i-th timed round row on every rank is the same round: the
        # cross-rank spread of its per-round seconds is the skew the
        # wait-attribution report explains (straggler ranks).
        series = [r[key] for r in rows]
        n = min(len(s) for s in series)
        return [max(s[i] for s in series) - min(s[i] for s in series)
                for i in range(n)]

    wall_skew = skews("round_walls")
    exch_skew = skews("round_exchanges")
    return {
        # Effective pair time: slowest rank's wall + slowest rank's
        # charged (unhidden) device seconds — ranks drive their domain
        # devices in parallel, like the per-rank wire-time convention.
        "time": max(r["wall"] for r in rows)
        + max(r["device"] for r in rows),
        "dev_hidden": sum(r["dev_hidden"] for r in rows),
        "dev_total": sum(r["dev_total"] for r in rows),
        "peak_staging": max(r["peak_staging"] for r in rows),
        "rounds": max(r["rounds"] for r in rows),
        "domain_skew": max(r["domain_skew"] for r in rows),
        "pipelined_ops": sum(r["pipelined_ops"] for r in rows),
        "idle_synced": sum(r["idle_synced"] for r in rows),
        "round_skew": max(wall_skew) if wall_skew else 0.0,
        "round_skew_mean": (sum(wall_skew) / len(wall_skew)
                            if wall_skew else 0.0),
        "exchange_skew": max(exch_skew) if exch_skew else 0.0,
    }


def _cell(engine: str, cb: int, align, nbytes: int,
          pipeline: str = "off", repeats: int = REPEATS) -> dict:
    runs = [_run_once(engine, cb, align, nbytes, pipeline)
            for _ in range(repeats)]
    mid = min(runs, key=lambda r: r["time"])
    out = {
        "time": mid["time"],
        "peak_staging": max(r["peak_staging"] for r in runs),
        "rounds": runs[0]["rounds"],
        "domain_skew": runs[0]["domain_skew"],
        "pipelined_ops": runs[0]["pipelined_ops"],
        "idle_synced": runs[0]["idle_synced"],
        # Skew columns ride the best run: the per-round cross-rank
        # spread of wall/exchange seconds (worst round, and the
        # per-round mean for the wall spread).
        "round_skew": mid["round_skew"],
        "round_skew_mean": mid["round_skew_mean"],
        "exchange_skew": mid["exchange_skew"],
    }
    out["overlap_efficiency"] = (
        mid["dev_hidden"] / mid["dev_total"] if mid["dev_total"] > 0
        else 0.0
    )
    return out


def _probe_ms(fs, call: str) -> float:
    """Milliseconds of wall time per replayed ``call`` (``write_at_all``
    or ``write_at``) of the probe's ranks on ``fs``."""
    out = {}

    def worker(comm):
        fh = File.open(comm, fs, "/probe", MODE_CREATE | MODE_RDWR)
        fh.set_view(0, dt.BYTE, build_noncontig_filetype(
            PROBE_RANKS, comm.rank, PROBE_SBLOCK, PROBE_NBLOCK))
        buf = np.full(PROBE_SBLOCK * PROBE_NBLOCK, comm.rank + 1,
                      dtype=np.uint8)
        access = getattr(fh, call)
        for _ in range(PROBE_WARM):
            access(0, buf)
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(PROBE_ACCESSES):
            access(0, buf)
        comm.barrier()
        if comm.rank == 0:
            out["ms"] = (time.perf_counter() - t0) / PROBE_ACCESSES * 1e3
        fh.close()

    run_spmd(PROBE_RANKS, worker)
    return out["ms"]


def probe() -> dict:
    """The small-collective probe row: ms per access of each call on
    the mapped and on the two-phase path."""
    row: dict = {"config": {
        "nprocs": PROBE_RANKS, "sblock": PROBE_SBLOCK,
        "nblock": PROBE_NBLOCK, "warm": PROBE_WARM,
        "accesses": PROBE_ACCESSES,
    }}
    for path, make in (("mapped", SimFileSystem),
                       ("two_phase", lambda: unmapped(SimFileSystem()))):
        row[path] = {f"{call}_ms": _probe_ms(make(), call)
                     for call in ("write_at_all", "write_at")}
    return row


def collect(quick: bool) -> dict:
    nbytes = BYTES_PER_RANK // (4 if quick else 1)
    one_shot_cb = 4 * NPROCS * nbytes  # any window >= the aggregate range
    # Tame the GIL's 5 ms default handoff latency for the measurement:
    # per-round cross-rank wakeups otherwise dominate the (threaded)
    # round CPU and swamp the overlap signal with scheduler noise.
    swi = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        samples: dict = {}
        for _ in range(RUNS):
            for engine in ("list_based", "listless"):
                for align in DOMAIN_ALIGNMENTS:
                    one = _cell(engine, one_shot_cb, align, nbytes)
                    ser = _cell(engine, ROUND_CB, align, nbytes, "off")
                    pipe = _cell(engine, ROUND_CB, align, nbytes, "on")
                    samples.setdefault(f"{engine}/{align}", []).append(
                        (pipe["time"] / one["time"], one, ser, pipe))
    finally:
        sys.setswitchinterval(swi)
    cells: dict = {}
    for name, got in samples.items():
        # The median run supplies every column; all runs' ratios ride
        # along for the gate.
        ratio, one, ser, pipe = sorted(got, key=lambda g: g[0])[
            len(got) // 2]
        cells[name] = {
            "one_shot": one,
            "serial": ser,
            "pipelined": pipe,
            "staging_ratio": one["peak_staging"]
            / max(1, pipe["peak_staging"]),
            "overlap_efficiency": pipe["overlap_efficiency"],
            "pipelined_vs_one_shot": ratio,
            "pipelined_vs_one_shot_runs": [g[0] for g in got],
            "pipelined_vs_serial": pipe["time"] / ser["time"],
        }
    bound = NPROCS * ROUND_CB
    worst = max(
        max(c["serial"]["peak_staging"], c["pipelined"]["peak_staging"])
        for c in cells.values()
    )
    worst_ratio = max(c["pipelined_vs_one_shot"] for c in cells.values())
    min_overlap = min(c["overlap_efficiency"] for c in cells.values())
    record = {
        "bench": "collective_rounds",
        "quick": quick,
        "config": {
            "nprocs": NPROCS,
            "bytes_per_rank": nbytes,
            "block": BLOCK,
            "round_cb": ROUND_CB,
            "one_shot_cb": one_shot_cb,
            "device": DEVICE,
            "nreps": NREPS,
            "runs": RUNS,
        },
        "cells": cells,
        "probe": probe(),
        "acceptance": {
            "bound_bytes": bound,
            "worst_round_peak": worst,
            "worst_pipelined_vs_one_shot": worst_ratio,
            "min_overlap_efficiency": min_overlap,
            # Pipelining must claw back the serial rounds' wall-time
            # loss: no cell may run meaningfully slower than one-shot,
            # every cell must actually hide some device time, and the
            # staging bound must survive untouched.
            "pass": bool(worst <= bound and worst_ratio <= 1.05
                         and min_overlap > 0.0),
        },
    }
    try:
        from benchmarks._common import obs_record
    except ImportError:  # run as a script: benchmarks/ is sys.path[0]
        from _common import obs_record
    record["observability"] = obs_record()
    return record


# ----------------------------------------------------------------------
# pytest cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["list_based", "listless"])
def test_round_based_bounds_peak_staging(engine):
    """The aggregator's staging must stay within O(cb x APs) in round
    mode — pipelined or not — and the one-shot run must stage at least
    a whole rank's access (the contrast the refactor exists to
    create)."""
    nbytes = BYTES_PER_RANK // 8
    one = _run_once(engine, 4 * NPROCS * nbytes, None, nbytes)
    for pipeline in ("off", "on"):
        rnd = _run_once(engine, ROUND_CB, None, nbytes, pipeline)
        assert rnd["peak_staging"] <= NPROCS * ROUND_CB, rnd
        assert rnd["rounds"] > one["rounds"]
    assert one["peak_staging"] >= nbytes, one


@pytest.mark.parametrize("align", DOMAIN_ALIGNMENTS)
def test_strategies_complete(align):
    """Every partitioning strategy round-trips the interleaved pattern
    under the pipelined plan shape (byte-identity is asserted inside
    the worker), without a single synchronizing fallback round."""
    out = _run_once("listless", ROUND_CB, align, BYTES_PER_RANK // 16,
                    "on")
    assert out["rounds"] > 0
    assert out["pipelined_ops"] > 0
    assert out["idle_synced"] == 0


def test_pipelined_hides_device_time():
    """The pipelined cells must hide real device time behind round CPU
    (positive overlap efficiency), and the serial cells must not charge
    any async device time at all."""
    pipe = _run_once("listless", ROUND_CB, None, BYTES_PER_RANK // 16,
                     "on")
    assert pipe["dev_hidden"] > 0
    ser = _run_once("listless", ROUND_CB, None, BYTES_PER_RANK // 16,
                    "off")
    assert ser["dev_total"] > 0
    assert ser["dev_hidden"] == 0


# ----------------------------------------------------------------------
def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="smaller access (CI smoke)")
    ap.add_argument("--out", default=None,
                    help="write the JSON record to this path")
    args = ap.parse_args()

    rec = collect(args.quick)
    cfg = rec["config"]
    print("=== Round-based aggregation: one-shot vs serial vs pipelined "
          f"({'quick' if rec['quick'] else 'full'}) ===")
    print(f"P={cfg['nprocs']}, {cfg['bytes_per_rank']} B/rank, "
          f"round cb={cfg['round_cb']} B, device "
          f"{cfg['device']['read_bandwidth']/1e6:.0f} MB/s")
    hdr = (f"{'cell':>18} {'mode':>10} {'time [ms]':>10} "
           f"{'peak staging [B]':>17} {'rounds':>7} {'overlap':>8} "
           f"{'skew [ms]':>10}")
    print(hdr)
    for name, c in rec["cells"].items():
        for mode in ("one_shot", "serial", "pipelined"):
            m = c[mode]
            eff = (f"{m['overlap_efficiency']:>8.2f}"
                   if mode == "pipelined" else f"{'-':>8}")
            print(f"{name:>18} {mode:>10} {m['time']*1e3:>10.2f} "
                  f"{m['peak_staging']:>17} {m['rounds']:>7} {eff} "
                  f"{m['round_skew']*1e3:>10.3f}")
        runs = ", ".join(f"{r:.3f}"
                         for r in c["pipelined_vs_one_shot_runs"])
        print(f"{'':>18} staging ratio one-shot/pipelined: "
              f"{c['staging_ratio']:.1f}x   "
              f"pipelined/one-shot: {c['pipelined_vs_one_shot']:.2f} "
              f"(runs {runs})  "
              f"pipelined/serial: {c['pipelined_vs_serial']:.2f}")
    acc = rec["acceptance"]
    print(f"acceptance (round peak <= P x cb = {acc['bound_bytes']} B, "
          f"pipelined <= 1.05 x one-shot, overlap > 0): "
          f"{'PASS' if acc['pass'] else 'FAIL'} "
          f"(worst peak {acc['worst_round_peak']} B, worst ratio "
          f"{acc['worst_pipelined_vs_one_shot']:.2f}, min overlap "
          f"{acc['min_overlap_efficiency']:.2f})")
    p = rec["probe"]
    pc = p["config"]
    print(f"probe ({pc['nprocs']} ranks x {pc['sblock'] * pc['nblock']} B, "
          f"ms per access over {pc['accesses']}):")
    for path in ("mapped", "two_phase"):
        print(f"  {path:>9}: write_at_all {p[path]['write_at_all_ms']:.3f}"
              f"  write_at {p[path]['write_at_ms']:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(rec, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
