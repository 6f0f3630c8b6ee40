"""Request shipping on the sharded backend: list-I/O vs datatype-I/O.

The shipping layer (``repro.io.shipping``, ``repro.fs.sharded``) moves
noncontiguous accesses to the shard servers under one of two wire
protocols: ``list`` explodes each access into per-shard offset/length
lists (every extent costs wire bytes), ``dtype`` installs the compact
fileview descriptor once per (shard, view) and then ships only the
access parameters, letting the servers flatten on the fly — the
list-I/O vs datatype-I/O comparison of "Noncontiguous I/O through
PVFS".  This bench drives the Fig-5-style strided pattern (P ranks
interleaved at Sblock = 8 bytes, data sieving off so accesses stay in
direct mode and ship) across stripe counts and both protocols, and
records the wire-cost decomposition: request bytes, payload bytes,
installed view bytes, request counts, per-shard spread, and effective
time.

The headline is the request-description cost: the list protocol's
request bytes grow linearly in the extent count, the dtype protocol's
stay O(1) per access after the one-time view install.  Acceptance pins
exactly that — at every stripe count, dtype request + view bytes must
not exceed list request bytes.  Standalone run writes the
machine-readable record::

    python benchmarks/bench_shipping.py --quick \
        --out results/BENCH_shipping.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import time

import numpy as np
import pytest

from repro import datatypes as dt
from repro.fs import ShardedFileSystem
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.hints import SHIP_PROTOCOLS, Hints
from repro.mpi.runtime import Runtime

#: Ranks in the run (also the interleave period, in blocks).
NPROCS = 4
#: Contiguous block size of the strided pattern (paper Fig. 5: 8 B).
SBLOCK = 8
#: Blocks per rank per access (quick mode divides this down).
NBLOCK = 2048
#: Stripe counts swept (the backend's server processes).
NSHARDS = (1, 2, 4)
#: Stripe size of the sharded backend.
STRIPE = 1 << 16
#: Timed write+read pairs (after one untimed warm-up pair that fills
#: the plan cache and, for dtype, installs the fileviews).
NREPS = 2


def _pattern(size: int, rank: int, nblock: int):
    """Fig-5 interleave: rank r owns every ``size``-th SBLOCK block."""
    ft = dt.resized(
        dt.vector(nblock, SBLOCK, size * SBLOCK, dt.BYTE),
        0, nblock * size * SBLOCK,
    )
    return ft, rank * SBLOCK


def _run_cell(protocol: str, nshards: int, nblock: int) -> dict:
    """One warmed, timed write+read pair on ``NPROCS`` sim ranks against
    ``nshards`` shard servers; returns time plus the wire-cost delta of
    the timed pairs."""
    root = tempfile.mkdtemp(prefix="bench-ship-")
    fs = ShardedFileSystem(root, nshards=nshards, stripe_size=STRIPE)
    try:
        hints = Hints(ship_protocol=protocol, ds_read=False,
                      ds_write=False)

        def worker(comm, fs):
            ft, disp = _pattern(comm.size, comm.rank, nblock)
            fh = File.open(comm, fs, "/ship.out", MODE_CREATE | MODE_RDWR,
                           engine="listless", hints=hints)
            fh.set_view(disp, dt.BYTE, ft)
            wbuf = np.full(ft.size, comm.rank + 1, dtype=np.uint8)
            rbuf = np.zeros(ft.size, dtype=np.uint8)
            # Warm-up pair: plan cache, shard connections, and (dtype)
            # the per-shard fileview installs.
            fh.write_at(0, wbuf)
            fh.read_at(0, rbuf)
            comm.barrier()
            base = dict(fh.simfile.wire_totals())
            # No rank starts its timed pairs before rank 0's ``base``
            # (the one read) is taken.
            comm.barrier()
            t0 = time.perf_counter()
            for _ in range(NREPS):
                fh.write_at(0, wbuf)
                fh.read_at(0, rbuf)
            wall = (time.perf_counter() - t0) / NREPS
            comm.barrier()
            assert np.array_equal(rbuf, wbuf)
            st = fh.engine.stats.plan
            out = {
                "wall": wall,
                "wire": {k: v - base[k]
                         for k, v in fh.simfile.wire_totals().items()}
                if comm.rank == 0 else None,
                "per_shard": [dict(w) for w in fh.simfile.wire]
                if comm.rank == 0 else None,
                "ship_ops": st.ship_ops,
                "ship_requests": st.ship_requests,
                "dtype_fallbacks": st.ship_dtype_fallbacks,
                "view_bytes": st.ship_view_bytes,
            }
            fh.close()
            return out

        rows = Runtime("sim").run(NPROCS, worker, fs)
        wire = next(r["wire"] for r in rows if r["wire"] is not None)
        per_shard = next(r["per_shard"] for r in rows
                         if r["per_shard"] is not None)
        # The sim ranks share one ShardedFile, so ``wire`` is already
        # the world aggregate over the timed pairs.  View bytes are a
        # one-time cost charged at warm-up; report the installed total.
        view_bytes = sum(w["view_bytes"] for w in per_shard)
        return {
            "time": max(r["wall"] for r in rows),
            "requests": wire["requests"],
            "request_bytes": wire["request_bytes"],
            "payload_bytes": wire["payload_bytes"],
            "view_bytes": view_bytes,
            "ship_ops": sum(r["ship_ops"] for r in rows),
            "ship_requests": sum(r["ship_requests"] for r in rows),
            "dtype_fallbacks": sum(r["dtype_fallbacks"] for r in rows),
            "per_shard_request_bytes": [w["request_bytes"]
                                        for w in per_shard],
            "per_shard_payload_bytes": [w["payload_bytes"]
                                        for w in per_shard],
        }
    finally:
        fs.close()
        shutil.rmtree(root, ignore_errors=True)


def collect(quick: bool) -> dict:
    nblock = NBLOCK // (8 if quick else 1)
    cells: dict = {}
    acceptance = []
    for nshards in NSHARDS:
        row = {}
        for protocol in SHIP_PROTOCOLS:
            row[protocol] = _run_cell(protocol, nshards, nblock)
        # The paper's point: the datatype protocol's request
        # description (params + one-time view install) must undercut
        # the list protocol's exploded per-extent lists.
        dtype_desc = (row["dtype"]["request_bytes"]
                      + row["dtype"]["view_bytes"])
        list_desc = row["list"]["request_bytes"]
        row["dtype_vs_list_request_bytes"] = dtype_desc / max(1, list_desc)
        acceptance.append(dtype_desc <= list_desc)
        cells[str(nshards)] = row
    record = {
        "bench": "shipping",
        "quick": quick,
        "config": {
            "nprocs": NPROCS,
            "sblock": SBLOCK,
            "nblock": nblock,
            "stripe_size": STRIPE,
            "nshards": list(NSHARDS),
            "nreps": NREPS,
        },
        "cells": cells,
        "acceptance": {
            # dtype request+view bytes <= list request bytes, per
            # stripe count, plus: no dtype piece fell back to lists.
            "dtype_wire_wins": acceptance,
            "dtype_fallbacks": [cells[str(n)]["dtype"]["dtype_fallbacks"]
                                for n in NSHARDS],
            "pass": bool(all(acceptance)),
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
@pytest.mark.parametrize("protocol", SHIP_PROTOCOLS)
def test_shipping_engages_and_roundtrips(protocol):
    """Both protocols ship the strided pattern (nonzero ship ops and
    wire traffic) and round-trip it byte-exactly (asserted inside the
    worker)."""
    cell = _run_cell(protocol, 2, 128)
    assert cell["ship_ops"] > 0
    assert cell["requests"] > 0
    assert cell["payload_bytes"] > 0


def test_dtype_request_bytes_undercut_list():
    """The acceptance inequality at one representative stripe count:
    compact views + params beat exploded ol-lists on the wire."""
    lst = _run_cell("list", 2, 256)
    dty = _run_cell("dtype", 2, 256)
    assert dty["dtype_fallbacks"] == 0, dty
    assert (dty["request_bytes"] + dty["view_bytes"]
            <= lst["request_bytes"]), (dty, lst)


@pytest.mark.parametrize("protocol", SHIP_PROTOCOLS)
def test_quick_cell_counts_repeat(protocol):
    """Two runs of one ``--quick`` cell count the same wire traffic:
    every rank's timed pairs start after rank 0's ``base`` snapshot, and
    the ranks sharing a file install its views under one epoch."""
    keys = ("requests", "request_bytes", "payload_bytes", "view_bytes")
    a, b = (_run_cell(protocol, 2, NBLOCK // 8) for _ in range(2))
    assert {k: a[k] for k in keys} == {k: b[k] for k in keys}


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
    print("=== Request shipping: list-I/O vs datatype-I/O "
          f"({'quick' if rec['quick'] else 'full'}) ===")
    print(f"P={cfg['nprocs']}, Sblock={cfg['sblock']} B, "
          f"Nblock={cfg['nblock']}, stripe={cfg['stripe_size']} B")
    hdr = (f"{'shards':>7} {'proto':>6} {'time [ms]':>10} "
           f"{'req bytes':>10} {'view bytes':>11} {'payload':>10} "
           f"{'reqs':>6} {'fallbacks':>9}")
    print(hdr)
    for nshards, row in rec["cells"].items():
        for proto in SHIP_PROTOCOLS:
            c = row[proto]
            print(f"{nshards:>7} {proto:>6} {c['time']*1e3:>10.2f} "
                  f"{c['request_bytes']:>10} {c['view_bytes']:>11} "
                  f"{c['payload_bytes']:>10} {c['requests']:>6} "
                  f"{c['dtype_fallbacks']:>9}")
        print(f"{'':>7} dtype/list request-description bytes: "
              f"{row['dtype_vs_list_request_bytes']:.3f}")
    acc = rec["acceptance"]
    print(f"acceptance (dtype request+view <= list request bytes at "
          f"every stripe count): {'PASS' if acc['pass'] else 'FAIL'} "
          f"{acc['dtype_wire_wins']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(rec, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
