"""Windowed reuse: compiled block programs vs flattening every call.

Periodic access patterns — a sieving loop marching window by window
through a tiled view, the two-phase exchange repeating the same window
shape per round — re-issue the *same* ``blocks_range`` query shifted by
whole periods.  The block-program layer (``repro.core.blockprog``)
compiles the query once and replays it with a scalar translation; this
bench measures what that saves at steady state against a cold baseline
that re-traverses and rebuilds per call.

Three cases, each an A/B of a cold arm against the program path:

* **pack** / **unpack** — raw ``ff_pack``/``ff_unpack`` of a recurring
  window over a ragged periodic type (the kernel in isolation), against
  a cold arm calling ``loop.blocks_range`` plus the one-shot
  ``gather_blocks``/``scatter_blocks`` kernel per window;
* **engine** — windowed ``read_at``/``write_at`` through the listless
  engine with a non-contiguous memtype, showing the layer composes with
  plan caching end to end, against the list-based engine on the same
  access.

Standalone run writes the machine-readable record::

    python benchmarks/bench_blockprog_windowed.py --quick \
        --out results/BENCH_blockprog.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np
import pytest

from repro import datatypes as dt
from repro.core import blockprog
from repro.core.ff_pack import ff_pack, ff_unpack, top_dataloop
from repro.core.gather import gather_blocks, scatter_blocks
from repro.fs import SimFileSystem
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.mpi import run_spmd
from repro.session import current

#: Ragged periodic pattern: 48 blocks of 1..16 B at uneven displacements
#: inside a 2 KiB period — ugly enough that the cold path must take the
#: ragged-index kernel and rebuild its byte-index array every window.
_K = 48
_PERIOD = 2048
_COUNT = 512
#: A window spans 4 periods and marches one period per iteration, so
#: every window shape repeats with a translated base.
_WIN_PERIODS = 4

REPEATS = 3


def _ragged_type():
    lens = [(i % 16) + 1 for i in range(_K)]
    displs, pos = [], 0
    for ln in lens:
        displs.append(pos)
        pos += ln + 7
    return dt.resized(dt.hindexed(lens, displs, dt.BYTE), 0, _PERIOD)


# ----------------------------------------------------------------------
# Case 1/2: raw ff_pack / ff_unpack windowed loops
# ----------------------------------------------------------------------
def run_pack_windowed(iters: int, unpack: bool = False,
                      win_periods: int = _WIN_PERIODS,
                      cold: bool = False) -> float:
    """Seconds for ``iters`` windowed ff_pack (or ff_unpack) calls.

    ``win_periods`` widens the window (more packed bytes per call) —
    the trace-overhead gate uses a wider, collective-buffer-sized
    window so the per-call span cost is weighed against representative
    kernel work, not the deliberately tiny program-compilation window.
    ``cold`` times the baseline instead: ``loop.blocks_range`` plus a
    one-shot ``gather_blocks``/``scatter_blocks`` call per window.
    """
    t = _ragged_type()
    loop = top_dataloop(t, _COUNT)
    src = np.zeros(_COUNT * _PERIOD + 64, dtype=np.uint8)
    win = win_periods * t.size
    buf = np.empty(win, dtype=np.uint8)
    nwin = _COUNT - win_periods

    def one(skip: int) -> None:
        if cold:
            offs, lens = loop.blocks_range(skip, skip + win)
            if unpack:
                scatter_blocks(src, offs, lens, buf, 0)
            else:
                gather_blocks(src, offs, lens, buf, 0)
        elif unpack:
            ff_unpack(buf, win, src, _COUNT, t, skip)
        else:
            ff_pack(src, _COUNT, t, skip, buf, win)

    # Warm the dataloop and program caches so steady state is measured,
    # not compilation.
    for w in range(2):
        one(w * t.size)
    t0 = time.perf_counter()
    for w in range(iters):
        one((w % nwin) * t.size)
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Case 3: windowed access through an engine
# ----------------------------------------------------------------------
def run_engine_windowed(windows: int, detail: dict = None,
                        engine: str = "listless") -> float:
    """Seconds of ``engine`` time for ``windows`` read+write pairs over
    a periodic fileview with a non-contiguous memtype.

    ``detail`` (optional dict) receives the per-layer decomposition of
    the timed loop: the PR-3 phase buckets split into *kernel* time
    (pack+unpack batched copies), *io* time (file ops against the
    simulated device) and *engine overhead* (everything else: planning,
    op dispatch, Python glue) — the engine:kernel ratio CI budgets.
    """
    fs = SimFileSystem()
    ft = _ragged_type()
    fs.create("/f").truncate(_COUNT * _PERIOD)
    mt = dt.vector(_WIN_PERIODS * _K // 2, 1, 2, dt.contiguous(8, dt.BYTE))
    elapsed = [0.0]

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine=engine)
        fh.set_view(0, dt.BYTE, ft)
        buf = np.zeros(2 * mt.extent, dtype=np.uint8)
        win = ft.size  # one period of data bytes per access
        fh.write_at(0, buf, count=2, memtype=mt)  # warm plan + programs
        ph = fh.engine.stats.phases
        base = {b: getattr(ph, b) for b in
                ("plan", "pack", "unpack", "file_io")}
        t0 = time.perf_counter()
        for w in range(windows):
            off = (w % (_COUNT - 1)) * win
            fh.write_at(off, buf, count=2, memtype=mt)
            fh.read_at(off, buf, count=2, memtype=mt)
        elapsed[0] = time.perf_counter() - t0
        if detail is not None:
            wall = elapsed[0]
            kernel = (ph.pack - base["pack"]) + (ph.unpack - base["unpack"])
            io = ph.file_io - base["file_io"]
            overhead = max(wall - kernel - io, 0.0)
            detail.update(
                wall=wall,
                kernel=kernel,
                io=io,
                plan=ph.plan - base["plan"],
                engine_overhead=overhead,
                engine_share=overhead / wall if wall else 0.0,
                engine_kernel_ratio=(overhead / kernel) if kernel else 0.0,
            )
        fh.close()

    run_spmd(1, worker)
    return elapsed[0]


# ----------------------------------------------------------------------
# A/B harness
# ----------------------------------------------------------------------
#: Arm labels per case: the cold baseline first, then the program path.
PACK_ARMS = ("cold", "programs")
ENGINE_ARMS = ("list_based", "listless")


def _ab_pack(iters: int, unpack: bool) -> dict:
    """Cold arm then program arm of the pack (or unpack) case; median
    seconds."""
    out = {}
    for label in PACK_ARMS:
        blockprog.clear()
        out[label] = statistics.median(
            run_pack_windowed(iters, unpack, cold=label == "cold")
            for _ in range(REPEATS)
        )
    out["speedup"] = out["cold"] / out["programs"]
    return out


def _ab_engine(windows: int) -> dict:
    """List-based arm then listless arm of the engine case, recording
    the per-layer decomposition of each arm's final repeat (the
    steady-state run)."""
    out = {"decomposition": {}}
    for label in ENGINE_ARMS:
        blockprog.clear()
        vals = []
        for rep in range(REPEATS):
            detail = {} if rep == REPEATS - 1 else None
            vals.append(run_engine_windowed(windows, detail, label))
        out["decomposition"][label] = detail
        out[label] = statistics.median(vals)
    out["speedup"] = out["list_based"] / out["listless"]
    return out


def collect(quick: bool) -> dict:
    iters = 120 if quick else 400
    windows = 60 if quick else 200
    current().prog_stats.reset()
    record = {
        "bench": "blockprog_windowed",
        "quick": quick,
        "pattern": {
            "blocks_per_period": _K,
            "period_bytes": _PERIOD,
            "count": _COUNT,
            "window_periods": _WIN_PERIODS,
        },
        "cases": {
            "pack": _ab_pack(iters, False),
            "unpack": _ab_pack(iters, True),
            "engine": _ab_engine(windows),
        },
        "stats": blockprog.blockprog_stats(),
    }
    try:
        from benchmarks._common import obs_record
    except ImportError:  # run as a script: benchmarks/ is sys.path[0]
        from _common import obs_record
    record["observability"] = obs_record()
    record["acceptance"] = {
        "threshold": 3.0,
        "pack_speedup": record["cases"]["pack"]["speedup"],
        "unpack_speedup": record["cases"]["unpack"]["speedup"],
        "engine_speedup": record["cases"]["engine"]["speedup"],
        "pass": record["cases"]["pack"]["speedup"] >= 3.0
        and record["cases"]["unpack"]["speedup"] >= 3.0
        and record["cases"]["engine"]["speedup"] >= 3.0,
    }
    return record


# ----------------------------------------------------------------------
# pytest cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("unpack", [False, True])
def test_windowed_pack_program_speedup(unpack):
    """Steady-state windowed pack must be several times faster through
    the program cache than the cold ``blocks_range`` + one-shot kernel
    arm; assert a conservative floor (the recorded runs show >3x — see
    results/BENCH_blockprog.json) so scheduler noise on a loaded CI box
    cannot flake the suite."""
    res = _ab_pack(120, unpack)
    assert res["speedup"] > 1.5, res

    # And the cache actually served the loop: one compile per window
    # shape, everything else hits.
    current().prog_stats.reset()
    blockprog.clear()
    run_pack_windowed(120, unpack)
    assert current().prog_stats.hits > 100
    assert current().prog_stats.compiled <= _WIN_PERIODS + 2


def test_windowed_engine_runs_both_modes():
    """End-to-end listless speedup over the list-based engine on the
    same windowed access (replay fast path + fused data-plane copies
    against per-access list building); assert a conservative floor so
    scheduler noise on a loaded CI box cannot flake the suite."""
    res = _ab_engine(20)
    assert res["listless"] > 0 and res["list_based"] > 0
    assert res["speedup"] > 1.5, res
    d = res["decomposition"]["listless"]
    assert d["kernel"] > 0 and d["engine_overhead"] >= 0


# ----------------------------------------------------------------------
def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="fewer iterations (CI smoke)")
    ap.add_argument("--out", default=None,
                    help="write the JSON record to this path")
    args = ap.parse_args()

    rec = collect(args.quick)
    print("=== Windowed reuse: compiled block programs "
          f"({'quick' if args.quick else 'full'}) ===")
    for name, c in rec["cases"].items():
        cold, hot = ENGINE_ARMS if name == "engine" else PACK_ARMS
        print(f"{name:>8}: {cold} {c[cold]*1e3:8.2f} ms   "
              f"{hot} {c[hot]*1e3:8.2f} ms   "
              f"speedup {c['speedup']:.2f}x")
    s = rec["stats"]
    print(f"programs: {s['blockprog_compiled']} compiled, "
          f"{s['blockprog_hits']} hits, {s['blockprog_misses']} misses, "
          f"{s['blockprog_translations']} translations")
    print("engine-case decomposition (steady-state repeat):")
    for label, d in rec["cases"]["engine"]["decomposition"].items():
        if not d:
            continue
        print(f"  {label:>10}: kernel {d['kernel']*1e3:7.2f} ms   "
              f"io {d['io']*1e3:7.2f} ms   "
              f"engine {d['engine_overhead']*1e3:7.2f} ms   "
              f"(share {d['engine_share']:.2f}, "
              f"engine:kernel {d['engine_kernel_ratio']:.2f})")
    acc = rec["acceptance"]
    print(f"acceptance (>= {acc['threshold']}x pack, unpack & engine): "
          f"{'PASS' if acc['pass'] else 'FAIL'}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(rec, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
