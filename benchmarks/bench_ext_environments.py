"""Extension experiments from the paper's outlook (§5): different file
systems and communication topologies.

"The higher the bandwidth of the used file system is in relation to the
bandwidth of the memory system and message passing interconnect, the more
important listless I/O is" — and — "This performance analysis needs to
include different file systems and different communication topologies."

Two sweeps quantify both statements on the simulated substrates:

* **File systems**: the collective nc-nc noncontig benchmark under three
  device models — an SX-class local FS (the default), a mid-range PFS,
  and an NFS-class slow device.  The listless/list-based ratio must
  *grow* with device bandwidth: a slow device hides the CPU-side list
  overheads.
* **Topologies**: the same benchmark on a uniform (single-node) network
  vs a 2-ranks-per-node cluster network.  The list-based engine ships
  ol-lists across the (more expensive) inter-node links on every access,
  so its accounted wire time rises disproportionately.

Regenerate the tables::

    python benchmarks/bench_ext_environments.py
"""

from __future__ import annotations

import statistics

import pytest

from repro.bench import NoncontigConfig, mb_per_s, run_noncontig
from repro.bench.reporting import format_table
from repro.fs import DeviceModel, SimFileSystem, StripingConfig
from repro.fs.unmapped import unmapped
from repro.mpi import NetworkModel

CFG = NoncontigConfig(
    nprocs=4, blocklen=8, blockcount=2048, pattern="nc-nc",
    collective=True, nreps=2,
)

DEVICES = {
    "SX-local (8 GB/s)": DeviceModel(),
    "PFS (1 GB/s, striped)": DeviceModel(
        read_bandwidth=1e9, write_bandwidth=0.8e9, latency=200e-6
    ),
    "NFS (50 MB/s)": DeviceModel(
        read_bandwidth=50e6, write_bandwidth=40e6, latency=2e-3
    ),
}


def ratio_for_device(device: DeviceModel, repeats: int = 3) -> float:
    """listless/list-based write-bandwidth ratio under one device."""
    med = {}
    for engine in ("listless", "list_based"):
        vals = []
        for _ in range(repeats):
            fs = SimFileSystem(device=device)
            vals.append(run_noncontig(engine, CFG, fs=fs).write_bpp)
        med[engine] = statistics.median(vals)
    return med["listless"] / med["list_based"]


# ----------------------------------------------------------------------
def test_ext_ratio_grows_with_device_bandwidth():
    """The paper's §5 claim: a faster file system makes listless I/O more
    important (the list overhead cannot hide behind device time)."""
    fast = ratio_for_device(DEVICES["SX-local (8 GB/s)"])
    slow = ratio_for_device(DEVICES["NFS (50 MB/s)"])
    # Device time hides part (not all) of the CPU-side list overhead.
    assert fast > 1.3 * slow


@pytest.mark.parametrize("name", list(DEVICES))
def test_ext_devices_run(benchmark, name):
    device = DEVICES[name]

    def run():
        fs = SimFileSystem(device=device)
        return run_noncontig("listless", CFG, fs=fs)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["write_MBps"] = result.write_bpp / 1e6


def test_ext_topology_inflates_list_exchange_cost():
    """On a multi-node network the per-access ol-list exchange of the
    list-based engine pays inter-node prices; its accounted wire time
    must exceed the listless engine's by more than the data ratio."""
    from repro.bench.noncontig import build_noncontig_filetype
    from repro import datatypes as dt
    from repro.io import File, MODE_CREATE, MODE_RDWR
    from repro.mpi import run_spmd
    import numpy as np

    # A slow cluster interconnect (Fast-Ethernet era): here the list
    # *volume* matters, not just message latency.
    net = NetworkModel(ranks_per_node=2, inter_latency=50e-6,
                       inter_bandwidth=100e6)
    times = {}
    for engine in ("listless", "list_based"):
        # Two-phase: a SimFile collective is mapped and ships nothing.
        fs = unmapped(SimFileSystem())
        worlds = []

        def worker(comm):
            r = comm.rank
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            # Fine-grained enough that the shipped lists (16 B per
            # 8 B block) dominate over per-message latency.
            ft = build_noncontig_filetype(4, r, 8, 16384)
            fh.set_view(0, dt.BYTE, ft)
            buf = np.zeros(8 * 16384, dtype=np.uint8)
            for rep in range(4):
                fh.write_at_all(rep * buf.size, buf)
            fh.close()

        run_spmd(4, worker, network=net, world_out=worlds)
        times[engine] = worlds[0].max_net_time()
    assert times["list_based"] > 1.5 * times["listless"]


def main() -> None:
    rows = []
    for name, device in DEVICES.items():
        med = {}
        for engine in ("listless", "list_based"):
            vals = []
            for _ in range(3):
                fs = SimFileSystem(device=device)
                vals.append(run_noncontig(engine, CFG, fs=fs).write_bpp)
            med[engine] = statistics.median(vals)
        rows.append(
            (
                name,
                f"{mb_per_s(med['list_based']):.2f}",
                f"{mb_per_s(med['listless']):.2f}",
                f"{med['listless'] / med['list_based']:.1f}x",
            )
        )
    print("=== Extension: engine gap vs file-system speed "
          "(collective nc-nc, Sblock=8B, Nblock=2048, P=4) ===")
    print(format_table(
        ["file system", "list-based MB/s", "listless MB/s", "ratio"],
        rows,
    ))
    print("(paper §5: the faster the file system relative to memory/"
          "network, the more important listless I/O)")

    rows2 = []
    for label, net in [
        ("single node (SX shared memory)", NetworkModel()),
        ("cluster, 100 MB/s inter-node",
         NetworkModel(ranks_per_node=2, inter_latency=50e-6,
                      inter_bandwidth=100e6)),
    ]:
        wt = {}
        for engine in ("listless", "list_based"):
            from repro.bench.noncontig import build_noncontig_filetype
            from repro import datatypes as dt
            from repro.io import File, MODE_CREATE, MODE_RDWR
            from repro.mpi import run_spmd
            import numpy as np

            fs = unmapped(SimFileSystem())
            worlds = []

            def worker(comm):
                r = comm.rank
                fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                               engine=engine)
                ft = build_noncontig_filetype(4, r, 8, 16384)
                fh.set_view(0, dt.BYTE, ft)
                buf = np.zeros(8 * 16384, dtype=np.uint8)
                for rep in range(4):
                    fh.write_at_all(rep * buf.size, buf)
                fh.close()

            run_spmd(4, worker, network=net, world_out=worlds)
            wt[engine] = worlds[0].max_net_time()
        rows2.append(
            (
                label,
                f"{wt['list_based']*1e3:.2f}",
                f"{wt['listless']*1e3:.2f}",
                f"{wt['list_based'] / wt['listless']:.1f}x",
            )
        )
    print("\n=== Extension: accounted wire time vs topology "
          "(collective write x4, Nblock=16384) ===")
    print(format_table(
        ["network", "list-based ms", "listless ms", "ratio"], rows2
    ))


if __name__ == "__main__":
    main()
