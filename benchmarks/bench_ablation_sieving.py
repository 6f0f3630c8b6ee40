"""Ablation: data sieving vs multiple file accesses (paper §5 outlook).

The paper's closing discussion names "the decision on the trade-off
between data sieving and multiple file accesses" as the remaining
optimization knob for independent non-contiguous I/O.  This bench
quantifies that trade-off on the simulated device:

* **sieving on** — few large file operations, but gap bytes are read
  (and read-modify-written under a lock for writes);
* **sieving off** — exactly the payload bytes move, but one file
  operation (with its latency) per contiguous block.

The crossover depends on the *duty cycle* Sblock/stride of the view: for
dense views sieving reads little extra; for sparse views it drags in
mostly gaps.

The planner sieves (or not) only on a backend that is not one byte
buffer — a ``SimFile`` maps every independent access instead.  So the
two arms run on the same ``SimFile`` seen through
:func:`repro.fs.unmapped.unmapped`, a handle that is not a
``FileBuffer`` (as a remote backend is not), and a third row reports
the **mapped** access on the ``SimFile`` itself: one op, exactly the
payload bytes.  Regenerate the table::

    python benchmarks/bench_ablation_sieving.py
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import datatypes as dt
from repro.bench.reporting import format_table
from repro.fs import DeviceModel, SimFileSystem
from repro.fs.unmapped import unmapped
from repro.io import File, MODE_CREATE, MODE_RDWR
from repro.io.hints import Hints
from repro.mpi import run_spmd

NBLOCK = 512
SBLOCK = 64


def run_read(duty_denominator: int, ds_read: bool, mapped: bool = False):
    """One rank reads NBLOCK blocks whose stride is
    ``duty_denominator * SBLOCK``; returns the file stats snapshot.
    ``mapped`` reads the ``SimFile`` itself (``ds_read`` is moot);
    otherwise the read sieves or goes per block as ``ds_read`` says."""
    fs = SimFileSystem() if mapped else unmapped(SimFileSystem())
    stride = duty_denominator * SBLOCK
    span = NBLOCK * stride
    fs.create("/f").truncate(span)
    hints = Hints(ds_read=ds_read)

    def worker(comm):
        fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                       engine="listless", hints=hints)
        ft = dt.vector(NBLOCK, SBLOCK, stride, dt.BYTE)
        fh.set_view(0, dt.BYTE, ft)
        out = np.zeros(NBLOCK * SBLOCK, dtype=np.uint8)
        fh.read_at(0, out)
        fh.close()

    run_spmd(1, worker)
    return fs.lookup("/f").stats.snapshot()


# ----------------------------------------------------------------------
@pytest.mark.parametrize("ds", [True, False])
def test_ablation_sieving_read(benchmark, ds):
    stats = benchmark.pedantic(
        lambda: run_read(4, ds), rounds=3, iterations=1
    )
    if ds:
        assert stats["n_reads"] <= 2
    else:
        assert stats["n_reads"] == NBLOCK


def test_sieving_wins_for_dense_views():
    """At 1/2 duty cycle the gap overhead is small and the saved
    latencies dominate: sieving must cost less simulated device time."""
    on = run_read(2, True)
    off = run_read(2, False)
    assert on["sim_time"] < off["sim_time"]
    assert on["n_reads"] < off["n_reads"] / 50


def test_blockwise_moves_fewer_bytes_for_sparse_views():
    """At 1/64 duty cycle sieving reads ~64x the payload."""
    on = run_read(64, True)
    off = run_read(64, False)
    assert off["bytes_read"] == NBLOCK * SBLOCK
    assert on["bytes_read"] > 32 * off["bytes_read"]


def test_mapped_reads_the_payload_once():
    """The mapped row: one op moving exactly the payload, at no more
    simulated device time than the better of the two arms."""
    for denom in (2, 64):
        mapped = run_read(denom, True, mapped=True)
        best = min(run_read(denom, ds)["sim_time"] for ds in (True, False))
        assert mapped["n_reads"] == 1
        assert mapped["bytes_read"] == NBLOCK * SBLOCK
        assert mapped["sim_time"] <= best


def main() -> None:
    rows = []
    for denom in (1, 2, 4, 16, 64, 256):
        on = run_read(denom, True)
        off = run_read(denom, False)
        mapped = run_read(denom, True, mapped=True)
        rows.append(
            (
                f"1/{denom}",
                on["n_reads"],
                f"{on['bytes_read']:,}",
                f"{on['sim_time']*1e3:.2f}",
                off["n_reads"],
                f"{off['bytes_read']:,}",
                f"{off['sim_time']*1e3:.2f}",
                "sieve" if on["sim_time"] < off["sim_time"] else "block",
                mapped["n_reads"],
                f"{mapped['bytes_read']:,}",
                f"{mapped['sim_time']*1e3:.2f}",
            )
        )
    print("=== Ablation: data sieving vs per-block access "
          f"(read, Nblock={NBLOCK}, Sblock={SBLOCK}B) ===")
    print(
        format_table(
            [
                "duty",
                "ops(sieve)",
                "bytes(sieve)",
                "dev ms(sieve)",
                "ops(block)",
                "bytes(block)",
                "dev ms(block)",
                "winner",
                "ops(mapped)",
                "bytes(mapped)",
                "dev ms(mapped)",
            ],
            rows,
        )
    )
    print("(sieve/block arms on a handle that is not a FileBuffer; "
          "mapped: the SimFile itself)")
    print("(device model: 8 GB/s reads, 50 us/op — the crossover moves "
          "with the latency/bandwidth ratio)")


if __name__ == "__main__":
    main()
