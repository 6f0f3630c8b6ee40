"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------

``noncontig``
    Run the synthetic benchmark of paper §4.1 at explicit parameters and
    print both engines' bandwidths, e.g.::

        python -m repro.cli noncontig --nprocs 2 --sblock 8 \\
            --nblock 4096 --pattern nc-nc --collective

``btio``
    Run the BTIO kernel (paper §4.2) for a class/P on both engines::

        python -m repro.cli btio --cls W --nprocs 4 --nsteps 3

``characterize``
    Print the analytic BTIO characterization (Tables 1–2 rows)::

        python -m repro.cli characterize --cls B --nprocs 16

``inspect``
    Describe a datatype expression (size, extent, Nblock, depth,
    flattening cost vs dataloop cost)::

        python -m repro.cli inspect "vector(16384, 1, 2, DOUBLE)"

``trace``
    Run a quick BT-IO with tracing enabled and export the spans as
    Chrome-trace/Perfetto JSON (one track per simulated rank); causal
    reports come from the same run::

        python -m repro.cli trace --export trace.json
        python -m repro.cli trace --critical-path --waits

``flight``
    Run a quick BT-IO and dump the always-on flight recorder's state
    on demand (the same record a world abort produces)::

        python -m repro.cli flight --out flight_record.json

``serve``
    Stand up the multi-tenant IOP service and drive a concurrent-client
    soak through it (admission control, cross-client batching,
    byte-identity check), printing the per-tenant figures::

        python -m repro.cli serve --clients 64 --files 8 --tenants 4
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.bench import (
    BTIOConfig,
    NoncontigConfig,
    btio_characterize,
    mb_per_s,
    run_btio,
    run_noncontig,
)
from repro.bench.reporting import fmt_bytes, format_table

__all__ = ["main"]


def _cmd_noncontig(args: argparse.Namespace) -> int:
    cfg = NoncontigConfig(
        nprocs=args.nprocs,
        blocklen=args.sblock,
        blockcount=args.nblock,
        pattern=args.pattern,
        collective=args.collective,
        nreps=args.nreps,
        verify=True,
    )
    rows = []
    for engine in ("list_based", "listless"):
        w, r = [], []
        for _ in range(args.repeats):
            res = run_noncontig(engine, cfg)
            w.append(res.write_bpp)
            r.append(res.read_bpp)
        rows.append(
            (
                engine,
                f"{mb_per_s(statistics.median(w)):.2f}",
                f"{mb_per_s(statistics.median(r)):.2f}",
            )
        )
    print(
        f"noncontig: P={cfg.nprocs} Sblock={cfg.blocklen}B "
        f"Nblock={cfg.blockcount} pattern={cfg.pattern} "
        f"{'collective' if cfg.collective else 'independent'} "
        f"({cfg.bytes_per_proc:,} B/proc/phase)"
    )
    print(format_table(["engine", "write MB/s", "read MB/s"], rows))
    return 0


def _cmd_btio(args: argparse.Namespace) -> int:
    rows = []
    times = {}
    phase_cols = []
    for engine in ("list_based", "listless"):
        samples = []
        for _ in range(args.repeats):
            r = run_btio(
                engine,
                BTIOConfig(cls=args.cls, nprocs=args.nprocs,
                           nsteps=args.nsteps, verify=args.verify),
                runtime=args.runtime,
            )
            samples.append(r)
        t = min(s.io_time.total for s in samples)
        bw = max(s.io_bandwidth for s in samples)
        times[engine] = t
        rows.append((engine, f"{t:.3f}", f"{mb_per_s(bw):.1f}"))
        best = min(samples, key=lambda s: s.io_time.total)
        phase_cols.append((engine, best.phases))
    print(f"BTIO class {args.cls}, P={args.nprocs}, "
          f"nsteps={args.nsteps}, runtime={args.runtime or 'sim'}")
    print(format_table(["engine", "io time [s]", "io MB/s"], rows))
    print(f"r_io = {times['list_based'] / times['listless']:.2f}")
    if getattr(args, "report", "time") == "phases":
        from repro.obs.phases import format_phase_table

        print("\nper-phase decomposition "
              "(seconds summed over ranks, best repeat):")
        print(format_phase_table(phase_cols))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    c = btio_characterize(args.cls, args.nprocs, nsteps=args.nsteps)
    rows = [
        ("grid", f"{c['grid']}^3"),
        ("cells per rank", c["ncells"]),
        ("Nblock per rank", c["nblock"]),
        ("Sblock", f"{c['sblock']} B"),
        ("Dstep", fmt_bytes(c["dstep"])),
        ("Drun", fmt_bytes(c["drun"])),
    ]
    print(f"BTIO class {args.cls}, P={args.nprocs}, "
          f"nsteps={c['nsteps']}:")
    print(format_table(["quantity", "value"], rows))
    return 0


def _parse_type(expr: str):
    """Evaluate a datatype expression in a restricted namespace."""
    from repro import datatypes as dt

    namespace = {
        name: getattr(dt, name)
        for name in dt.__all__
        if not name.startswith("_")
    }
    try:
        t = eval(expr, {"__builtins__": {}}, namespace)  # noqa: S307
    except Exception as exc:  # pragma: no cover - user input path
        raise SystemExit(f"cannot evaluate datatype expression: {exc}")
    return t


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.dataloop import compile_dataloop
    from repro.datatypes import decode
    from repro.flatten import flatten_datatype

    t = _parse_type(args.expr)
    t0 = time.perf_counter()
    loop = compile_dataloop(t)
    t_compile = time.perf_counter() - t0
    t0 = time.perf_counter()
    flat = flatten_datatype(t)
    t_flatten = time.perf_counter() - t0
    rows = [
        ("size (data bytes)", t.size),
        ("extent", t.extent),
        ("lb / ub", f"{t.lb} / {t.ub}"),
        ("true lb / ub", f"{t.true_lb} / {t.true_ub}"),
        ("Nblock", t.num_blocks),
        ("tree depth", t.depth),
        ("monotonic (filetype-legal order)", t.is_monotonic),
        ("contiguous", t.is_contiguous),
        ("ol-list memory", fmt_bytes(flat.nbytes_repr)),
        ("compact tree wire size",
         fmt_bytes(decode.tree_nbytes(decode.to_tree(t)))),
        ("explicit flatten time", f"{t_flatten * 1e3:.3f} ms"),
        ("dataloop compile time", f"{t_compile * 1e3:.3f} ms"),
        ("dataloop depth", loop.depth if loop else "-"),
    ]
    print(format_table(["property", "value"], rows))
    from repro.datatypes.describe import describe

    print("\nconstructor tree:")
    print(describe(t))
    return 0


def _print_program_shape(plan, loop) -> None:
    """The compiled shape of a plan's data movement: per materialized
    piece, the block-program kernel it compiled to and its index-array
    size; plus the dataloop nesting depth and fused-copy count."""
    from repro.core import blockprog
    from repro.plan.ops import Blocks

    rows = []
    fused = deferred = 0
    for i, op in enumerate(plan.ops):
        for j, piece in enumerate(getattr(op, "pieces", ())):
            tag = f"op{i}[{type(op).__name__}].piece{j}"
            blocks = piece.blocks
            if blocks is None:
                deferred += 1
                rows.append((tag, "deferred (streamed view walk)"))
            elif isinstance(blocks, Blocks):
                fused += 1
                prog = blockprog.program_for_blocks(blocks)
                rows.append((tag, prog.describe()))
            else:
                fused += 1
                rows.append(
                    (tag, f"tuples(k={blocks.count}, "
                          f"nbytes={blocks.nbytes})")
                )
    print("\ncompiled program shape:")
    print(f"  dataloop nesting depth: {loop.depth if loop else '-'}")
    print(f"  fused batched copies: {fused}  "
          f"(deferred/streamed pieces: {deferred})")
    if rows:
        print(format_table(["piece", "program"], rows))


def _cmd_plan_dump(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.dataloop import compile_dataloop, describe_dataloop
    from repro.fs import SimFileSystem
    from repro.io import File, MODE_CREATE, MODE_RDWR
    from repro.datatypes import BYTE
    from repro.mpi import run_spmd
    from repro.obs import metrics, text_summary, trace

    ft = _parse_type(args.filetype)
    out = {}
    # Scope the session's counters (block programs, kernel paths) to
    # this dump, and trace the access so the span summary below shows
    # where the time went.
    metrics.reset()
    trace.TRACER.clear()
    prev_trace = trace.set_tracing(True)

    def worker(comm):
        fh = File.open(comm, SimFileSystem(), "/plan",
                       MODE_CREATE | MODE_RDWR, engine=args.engine,
                       info={"ind_wr_buffer_size": str(args.bufsize),
                             "ind_rd_buffer_size": str(args.bufsize)})
        fh.set_view(args.disp, BYTE, ft)
        buf = np.zeros(args.nbytes, dtype=np.uint8)
        mem = fh._mem(buf, None, None)
        engine = fh.engine
        if args.write:
            out["plan"] = engine.plan_write_independent(mem, args.offset)
        else:
            out["plan"] = engine.plan_read_independent(mem, args.offset)
        # Execute the access twice so the steady-state cache behavior
        # (plan LRU, compiled block programs, kernel paths) is visible.
        fh.write_at(args.offset, buf)
        for _ in range(2):
            if args.write:
                fh.write_at(args.offset, buf)
            else:
                fh.read_at(args.offset, buf)
        out["stats"] = engine.stats.snapshot()
        fh.close()

    try:
        run_spmd(1, worker)
    finally:
        trace.set_tracing(prev_trace)
    print(f"filetype: {args.filetype}")
    print("\ndataloop program:")
    loop = compile_dataloop(ft)
    print(describe_dataloop(loop))
    print("\nplan:")
    print(out["plan"].describe())
    _print_program_shape(out["plan"], loop)
    s = dict(out["stats"])
    # Block-program and kernel-path counters are session-wide and live
    # in the metrics registry (the engine snapshot only carries the
    # per-engine plan-cache counters).
    s.update(metrics.snapshot()["global"])
    shown = sorted(
        k for k in s
        if k.startswith(("plan_cache", "plan_replays", "blockprog_",
                         "kernel_path_", "coll_", "executed_rounds",
                         "peak_staging"))
    )
    print("\ncache and kernel-path counters "
          "(after planning + 1 priming write + 2 accesses):")
    print(format_table(["counter", "value"],
                       [(k, s[k]) for k in shown]))
    print("\ntrace summary (inclusive span times):")
    print(text_summary(limit=20))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import export_chrome_trace, text_summary, trace

    trace.TRACER.clear()
    prev = trace.set_tracing(True)
    try:
        r = run_btio(
            args.engine,
            BTIOConfig(cls=args.cls, nprocs=args.nprocs,
                       nsteps=args.nsteps),
            runtime=args.runtime,
        )
    finally:
        trace.set_tracing(prev)
    print(f"traced BTIO class {args.cls}, P={args.nprocs}, "
          f"nsteps={args.nsteps}, engine={args.engine} "
          f"(io {r.io_time.total:.3f} s)")
    print(text_summary(limit=args.limit))
    if args.critical_path or args.waits:
        from repro.obs import causal

        graph = causal.build_graph()
        if args.critical_path:
            print()
            print(causal.format_critical_path(graph.critical_path()))
        if args.waits:
            print()
            print(causal.format_waits(graph.wait_report()))
    if args.export:
        n = export_chrome_trace(args.export)
        print(f"\nwrote {n} spans across {len(trace.TRACER.ranks())} "
              f"rank tracks to {args.export} "
              "(load in Perfetto or chrome://tracing)")
        dropped = {r_: d for r_, d in trace.TRACER.dropped().items() if d}
        if dropped:
            lost = ", ".join(f"rank {r_}: {d}"
                             for r_, d in sorted(dropped.items()))
            print("warning: span ring wrapped — oldest spans were "
                  f"dropped ({lost}); the exported timeline is "
                  "truncated")
    return 0


def _cmd_flight(args: argparse.Namespace) -> int:
    from repro.obs import flight
    from repro.session import current

    current().flight.clear()
    r = run_btio(
        args.engine,
        BTIOConfig(cls=args.cls, nprocs=args.nprocs,
                   nsteps=args.nsteps),
        runtime=args.runtime,
    )
    out = flight.dump(args.out)
    rec = flight.last_record()
    last = max((int(v) for v in rec["last_rounds"].values()),
               default=-1)
    # Which path (mapped / two_phase) the recorded collectives took.
    paths = sorted({info.get("path", "?")
                    for rank in rec["ranks"].values()
                    for _t, kind, info in rank["breadcrumbs"]
                    if kind == "collective"})
    print(f"ran BTIO class {args.cls}, P={args.nprocs}, "
          f"engine={args.engine} (io {r.io_time.total:.3f} s)")
    print(f"wrote flight record to {out} "
          f"({len(rec['ranks'])} ranks, last completed round {last}, "
          f"collective path {'/'.join(paths) or 'none'})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import tempfile

    from repro.server.soak import SoakConfig, run_soak

    root = None
    if args.mode == "proc":
        root = tempfile.mkdtemp(prefix="repro-serve-")
    cfg = SoakConfig(
        nclients=args.clients, nfiles=args.files,
        ntenants=args.tenants, rounds=args.rounds,
        req_bytes=args.req_bytes, workers=args.workers,
        worker_mode=args.mode, batching=not args.no_batching,
        fair=not args.no_admission, root=root,
    )
    res = run_soak(cfg)
    print(
        f"service soak: {args.clients} clients x {args.rounds} rounds "
        f"over {args.files} files, {args.tenants} tenants, "
        f"{args.workers} {args.mode} workers "
        f"({'batching' if cfg.batching else 'no batching'}, "
        f"{'admission' if cfg.fair else 'no admission'})"
    )
    rows = []
    for name, st in sorted(res.tenant_stats.items()):
        p50 = res.percentile(name, 0.50) * 1e3
        p99 = res.percentile(name, 0.99) * 1e3
        rows.append((
            name, st["completed"], st["failed"],
            st["rejected_queue_full"],
            fmt_bytes(st["bytes_written"] + st["bytes_read"]),
            f"{p50:.2f}", f"{p99:.2f}",
        ))
    print(format_table(
        ["tenant", "done", "failed", "rejected", "bytes",
         "p50 ms", "p99 ms"], rows,
    ))
    srv = res.server
    print(
        f"server: {srv['requests_executed']} requests in "
        f"{srv['file_accesses']} file accesses "
        f"({srv['batch_merged_requests']} rode merged batches), "
        f"{res.wall_seconds:.3f} s wall"
    )
    print("byte-identity vs serialized execution: "
          + ("OK" if res.ok else f"FAILED ({res.mismatches} bytes)"))
    return 0 if res.ok else 1


def _cmd_workloads(args: argparse.Namespace) -> int:
    import numpy as np

    from repro import datatypes as dtypes
    from repro.bench.workloads import WORKLOADS, make_workload
    from repro.fs import SimFileSystem
    from repro.io import File, MODE_CREATE, MODE_RDWR
    from repro.mpi import run_spmd

    names = [args.only] if args.only else sorted(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            raise SystemExit(
                f"unknown workload {name!r}; choose from "
                f"{sorted(WORKLOADS)}"
            )

    def run_once(name, engine):
        fs = SimFileSystem()
        box = {}

        def worker(comm):
            w = make_workload(name, comm.rank, comm.size)
            etype = dtypes.DOUBLE if w.filetype.size % 8 == 0 \
                else dtypes.BYTE
            fh = File.open(comm, fs, "/w", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.set_view(0, etype, w.filetype)
            buf = np.zeros(w.buffer_bytes, dtype=np.uint8)
            comm.barrier()
            if comm.rank == 0:
                box["t0"] = time.perf_counter()
            comm.barrier()
            fh.write_at_all(0, buf, w.count, w.memtype)
            comm.barrier()
            if comm.rank == 0:
                box["wall"] = time.perf_counter() - box["t0"]
            fh.close()

        run_spmd(args.nprocs, worker)
        return box["wall"]

    rows = []
    for name in names:
        med = {}
        for engine in ("list_based", "listless"):
            med[engine] = min(
                run_once(name, engine) for _ in range(args.repeats)
            )
        rows.append(
            (
                name,
                f"{med['list_based']*1e3:.1f}",
                f"{med['listless']*1e3:.1f}",
                f"{med['list_based'] / med['listless']:.1f}x",
            )
        )
    print(f"workloads (P={args.nprocs}, collective write):")
    print(format_table(
        ["workload", "list-based ms", "listless ms", "speedup"], rows
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Fast Parallel "
        "Non-Contiguous File Access' (SC'03)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    nc = sub.add_parser("noncontig", help="run the synthetic benchmark")
    nc.add_argument("--nprocs", type=int, default=2)
    nc.add_argument("--sblock", type=int, default=8)
    nc.add_argument("--nblock", type=int, default=1024)
    nc.add_argument("--pattern", choices=["c-nc", "nc-c", "nc-nc"],
                    default="nc-nc")
    nc.add_argument("--collective", action="store_true")
    nc.add_argument("--nreps", type=int, default=2)
    nc.add_argument("--repeats", type=int, default=3)
    nc.set_defaults(fn=_cmd_noncontig)

    bt = sub.add_parser("btio", help="run the BTIO kernel")
    bt.add_argument("--cls", choices=list("SWABCD"), default="W")
    bt.add_argument("-n", "--nprocs", type=int, default=4)
    bt.add_argument("--nsteps", type=int, default=3)
    bt.add_argument("--runtime", choices=["sim", "proc"], default=None,
                    help="execution backend: simulated rank threads or "
                    "real rank processes (default: REPRO_RUNTIME or sim)")
    bt.add_argument("--repeats", type=int, default=3)
    bt.add_argument("--verify", action="store_true")
    bt.add_argument("--report", choices=["time", "phases"],
                    default="time",
                    help="'phases' adds the per-phase decomposition "
                    "table (Table-3 style)")
    bt.set_defaults(fn=_cmd_btio)

    ch = sub.add_parser("characterize",
                        help="analytic BTIO characterization")
    ch.add_argument("--cls", choices=list("SWABCD"), default="B")
    ch.add_argument("--nprocs", type=int, default=4)
    ch.add_argument("--nsteps", type=int, default=40)
    ch.set_defaults(fn=_cmd_characterize)

    ins = sub.add_parser("inspect", help="describe a datatype expression")
    ins.add_argument("expr", help='e.g. "vector(1024, 1, 2, DOUBLE)"')
    ins.set_defaults(fn=_cmd_inspect)

    pd = sub.add_parser(
        "plan-dump",
        help="show the dataloop program and I/O plan for an access",
    )
    pd.add_argument("filetype", help='e.g. "vector(64, 8, 16, BYTE)"')
    pd.add_argument("--nbytes", type=int, default=256,
                    help="access size in data bytes")
    pd.add_argument("--offset", type=int, default=0,
                    help="starting data offset (etype units, etype=BYTE)")
    pd.add_argument("--disp", type=int, default=0, help="view displacement")
    pd.add_argument("--engine", choices=["listless", "list_based"],
                    default="listless")
    pd.add_argument("--write", action="store_true",
                    help="plan a write (default: read)")
    pd.add_argument("--bufsize", type=int, default=4 * 1024 * 1024,
                    help="independent sieving buffer size hint")
    pd.set_defaults(fn=_cmd_plan_dump)

    tr = sub.add_parser(
        "trace",
        help="trace a quick BT-IO run and export Chrome-trace JSON",
    )
    tr.add_argument("--cls", choices=list("SWABCD"), default="S")
    tr.add_argument("--nprocs", type=int, default=4)
    tr.add_argument("--nsteps", type=int, default=2)
    tr.add_argument("--engine", choices=["listless", "list_based"],
                    default="listless")
    tr.add_argument("--runtime", choices=["sim", "proc"], default=None,
                    help="execution backend (proc merges every rank "
                    "process' spans into the exported timeline)")
    tr.add_argument("--export", default=None, metavar="PATH",
                    help="write Chrome-trace/Perfetto JSON here")
    tr.add_argument("--limit", type=int, default=None,
                    help="rows in the text summary (default: all)")
    tr.add_argument("--critical-path", action="store_true",
                    dest="critical_path",
                    help="report the cross-rank critical path of the "
                    "traced run (repro.obs.causal)")
    tr.add_argument("--waits", action="store_true",
                    help="report per-rank wait attribution: who waited "
                    "on whom, stragglers, per-round exchange skew")
    tr.set_defaults(fn=_cmd_trace)

    fl = sub.add_parser(
        "flight",
        help="run a quick BT-IO and dump the flight recorder on demand",
    )
    fl.add_argument("--cls", choices=list("SWABCD"), default="S")
    fl.add_argument("--nprocs", type=int, default=4)
    fl.add_argument("--nsteps", type=int, default=2)
    fl.add_argument("--engine", choices=["listless", "list_based"],
                    default="listless")
    fl.add_argument("--runtime", choices=["sim", "proc"], default=None,
                    help="execution backend (proc merges the rank "
                    "processes' breadcrumbs into the record)")
    fl.add_argument("--out", default="flight_record.json", metavar="PATH",
                    help="destination file (a directory gets "
                    "flight_record.json inside)")
    fl.set_defaults(fn=_cmd_flight)

    sv = sub.add_parser(
        "serve",
        help="run the multi-tenant IOP service under a client soak",
    )
    sv.add_argument("--clients", type=int, default=64)
    sv.add_argument("--files", type=int, default=8)
    sv.add_argument("--tenants", type=int, default=4)
    sv.add_argument("--rounds", type=int, default=2,
                    help="write+read rounds per client")
    sv.add_argument("--req-bytes", type=int, default=4096,
                    dest="req_bytes")
    sv.add_argument("--workers", type=int, default=4)
    sv.add_argument("--mode", choices=["thread", "proc"],
                    default="thread",
                    help="worker pool: threads on the in-memory store, "
                    "or IOP processes on a real directory")
    sv.add_argument("--no-batching", action="store_true",
                    help="disable cross-client access merging")
    sv.add_argument("--no-admission", action="store_true",
                    help="disable budgets and fair dequeue (global "
                    "FIFO baseline)")
    sv.set_defaults(fn=_cmd_serve)

    wl = sub.add_parser(
        "workloads", help="compare engines across application workloads"
    )
    wl.add_argument("--nprocs", type=int, default=4)
    wl.add_argument(
        "--only", default=None,
        help="run a single workload family (default: all)",
    )
    wl.add_argument("--repeats", type=int, default=3)
    wl.set_defaults(fn=_cmd_workloads)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
