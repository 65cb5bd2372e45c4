"""Command-line experiment runner: ``python -m repro <experiment>``.

Regenerates any (or every) table/figure of the paper from the command
line, without pytest.  ``python -m repro list`` shows the catalogue.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from ..units import KiB, MiB
from . import (
    ArrayScale,
    degraded_sweep,
    format_series_table,
    format_table,
    measure_raw_devices,
    points_table,
    raizn_vs_mdraid,
    rocksdb_comparison,
    run_gc_timeseries,
    stripe_unit_sweep,
    sysbench_comparison,
    table1_rows,
    throughput_vs_progress,
    ttr_sweep,
)
from .results import Series
from .tracecli import run_trace

MICRO_SCALE = ArrayScale(num_zones=16, zone_capacity=2 * MiB)
GC_SCALE = ArrayScale(num_zones=19, zone_capacity=4 * MiB)
APP_SCALE = ArrayScale(num_zones=35, zone_capacity=2 * MiB)
BLOCK_SIZES = (4 * KiB, 64 * KiB, 256 * KiB, 1 * MiB)


def _micro_table(points) -> str:
    return format_table(["system", "workload", "bs KiB", "MiB/s",
                         "p50 us", "p99.9 us"], points_table(points))


def run_table1() -> None:
    rows = table1_rows()
    print(format_table(
        ["Metadata type", "Persistent location", "Storage per update",
         "Memory footprint"],
        [[r.metadata_type, r.persistent_location, r.storage_per_update,
          r.memory_footprint] for r in rows]))


def run_rawdev() -> None:
    result = measure_raw_devices()
    print(format_table(
        ["device", "write MiB/s", "read MiB/s"],
        [["ZNS (ZN540 model)", round(result.zns_write),
          round(result.zns_read)],
         ["conventional", round(result.conv_write), round(result.conv_read)],
         ["ZNS gap", f"{result.write_gap * 100:.1f}%",
          f"{result.read_gap * 100:.1f}%"]]))


def run_fig7() -> None:
    print(_micro_table(stripe_unit_sweep(
        "mdraid", block_sizes=BLOCK_SIZES, scale=MICRO_SCALE)))


def run_fig8() -> None:
    print(_micro_table(stripe_unit_sweep(
        "raizn", block_sizes=BLOCK_SIZES, scale=MICRO_SCALE)))


def run_fig9() -> None:
    print(_micro_table(raizn_vs_mdraid(block_sizes=BLOCK_SIZES,
                                       scale=MICRO_SCALE)))


def run_fig10() -> None:
    mdraid = run_gc_timeseries("mdraid", scale=GC_SCALE,
                               block_size=256 * KiB)
    raizn = run_gc_timeseries("raizn", scale=GC_SCALE, block_size=256 * KiB)
    print(format_series_table(
        [Series("mdraid", throughput_vs_progress(mdraid, points=10)),
         Series("RAIZN", throughput_vs_progress(raizn, points=10))],
        "overwritten", "MiB/s", buckets=10))
    print(f"\nmdraid: phase1 {mdraid.phase1_mean_mib_s:.0f} MiB/s, worst "
          f"{mdraid.phase2_min_mib_s:.0f} MiB/s "
          f"({mdraid.throughput_drop * 100:.0f}% drop)")
    print(f"RAIZN:  phase1 {raizn.phase1_mean_mib_s:.0f} MiB/s, phase2 "
          f"{raizn.phase2_mean_mib_s:.0f} MiB/s (flat)")


def run_fig11() -> None:
    print(_micro_table(degraded_sweep(scale=MICRO_SCALE)))


def run_fig12() -> None:
    points = ttr_sweep(scale=ArrayScale(num_zones=35,
                                        zone_capacity=2 * MiB))
    print(format_table(
        ["system", "fill", "valid MiB", "rebuilt MiB", "TTR (sim s)"],
        [[p.system, f"{p.fill_fraction:.3f}", p.valid_bytes // MiB,
          p.bytes_rebuilt // MiB, round(p.ttr_seconds, 4)]
         for p in points]))


def run_fig13() -> None:
    cells = rocksdb_comparison(num_ops=2000, scale=APP_SCALE)
    print(format_table(
        ["system", "workload", "value B", "ops/s", "p99 ms"],
        [[c.system, c.workload, c.value_size, round(c.ops_per_second),
          round(c.p99_latency * 1e3, 3)] for c in cells]))


def run_fig14() -> None:
    cells = sysbench_comparison(transactions=256, tables=4, rows=1500,
                                scale=ArrayScale(num_zones=19,
                                                 zone_capacity=2 * MiB))
    print(format_table(
        ["system", "workload", "threads", "TPS", "avg ms", "p95 ms"],
        [[c.system, c.workload, c.threads, round(c.tps),
          round(c.avg_latency * 1e3, 2), round(c.p95_latency * 1e3, 2)]
         for c in cells]))


# -- fault campaigns ---------------------------------------------------------
#
# One ``run(args) -> report dict`` adapter per campaign; everything else
# — report file, summary, verdict, exit status — is ``run_campaign_cli``.


def _progress(line: Callable[[object], str]):
    def progress(report) -> None:
        print(f"\r  {line(report)}, {len(report.violations)} violations",
              end="", flush=True)
    return progress


def _run_crashtest(args) -> Dict:
    from .crashtest import explore

    budget = 12
    report = explore(
        seed=args.seed, boundaries=max(1, -(-args.states // budget)),  # ceil
        budget_per_boundary=budget, trace_out=args.trace,
        progress=_progress(lambda r: (
            f"explored {r.states_explored} states "
            f"({len(r.distinct_states)} distinct)")))
    print()
    return report


def _run_errortest(args) -> Dict:
    from .errortest import run_errortest

    return run_errortest(seed=args.seed, quick=args.quick,
                         trace_out=args.trace)


def _run_slowtest(args) -> Dict:
    from .campaign import write_report
    from .slowtest import run_slowtest

    report = run_slowtest(seed=args.seed, quick=args.quick,
                          trace_out=args.trace)
    if args.bench_out:
        write_report(report["bench"], args.bench_out)
        print(f"bench numbers written to {args.bench_out}")
    return report


def _run_soaktest(args) -> Dict:
    from .soaktest import run_soaktest

    report = run_soaktest(
        seed=args.seed, quick=args.quick,
        progress=_progress(lambda r: f"{r.candidates} crash states mounted"))
    print()
    return report


CAMPAIGNS: Dict[str, Callable[[argparse.Namespace], Dict]] = {
    "crashtest": _run_crashtest,
    "errortest": _run_errortest,
    "slowtest": _run_slowtest,
    "soaktest": _run_soaktest,
}


def _print_fields(fields: Dict, prefix: str = "") -> None:
    """A report's fields, one per line; lists of records (violations,
    per-variant and per-device detail) stay in the file."""
    for key, value in fields.items():
        if isinstance(value, dict) and any(isinstance(v, dict)
                                           for v in value.values()):
            _print_fields(value, f"{prefix}{key}.")
        elif not (isinstance(value, list) and any(
                isinstance(v, (dict, list)) for v in value)):
            print(f"  {prefix}{key}: {value}")


def run_campaign_cli(name: str, args) -> int:
    """Run one fault campaign, write its JSON report, print the verdict."""
    from .campaign import write_report

    began = time.time()
    report = CAMPAIGNS[name](args)
    out = args.out or f"{name}_report.json"
    write_report(report, out)
    _print_fields(report)
    if report.get("violations"):
        print(f"first of {len(report['violations'])} violations: "
              f"{report['violations'][0]}")
    print(f"{name} PASSED" if report["passed"] else f"{name} FAILED")
    print(f"report written to {out}")
    print(f"[{name} completed in {time.time() - began:.1f}s wall]")
    return 0 if report["passed"] else 1


EXPERIMENTS: Dict[str, Callable[[], None]] = {
    "table1": run_table1,
    "rawdev": run_rawdev,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
}

DESCRIPTIONS = {
    "crashtest": "systematic crash-state enumeration + durability oracle",
    "errortest": "seeded error campaign + integrity oracle (self-healing)",
    "slowtest": "fail-slow campaign + hedged-read tail-latency bound",
    "soaktest": "compound-fault soak: crash x error x slow x wear",
    "trace": "per-bio span tracing: attribution report + JSONL span dump",
    "table1": "Table 1: RAIZN metadata location and size",
    "rawdev": "§6.1 raw device throughput (model calibration)",
    "fig7": "Figure 7: mdraid stripe-unit sweep",
    "fig8": "Figure 8: RAIZN stripe-unit sweep",
    "fig9": "Figure 9: RAIZN vs mdraid microbenchmarks",
    "fig10": "Figure 10: GC timeseries (the headline result)",
    "fig11": "Figure 11: degraded read performance",
    "fig12": "Figure 12: time to repair vs valid data",
    "fig13": "Figure 13: RocksDB db_bench",
    "fig14": "Figure 14: sysbench OLTP",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the RAIZN paper's tables and figures on "
                    "the simulated substrate.")
    parser.add_argument("experiment", nargs="?", default="list",
                        help="experiment id (see 'list'), or 'all'")
    parser.add_argument("--states", type=int, default=600,
                        help="crashtest: target number of crash states")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign / trace seed")
    parser.add_argument("--out", default=None,
                        help="campaign JSON report (trace: span dump) path")
    parser.add_argument("--quick", "--smoke", dest="quick",
                        action="store_true",
                        help="small CI-sized run")
    parser.add_argument("--bench-out", default=None,
                        help="slowtest: also write BENCH_tail.json numbers "
                             "to this path")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="trace the campaign and dump spans (JSONL) to "
                             "PATH")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print("available experiments:\n")
        for name, description in DESCRIPTIONS.items():
            print(f"  {name:9s} {description}")
        print("  all       run everything (excludes crashtest)")
        return 0
    if args.experiment == "trace":
        began = time.time()
        status = run_trace(quick=args.quick, seed=args.seed,
                           out=args.out or "trace_spans.jsonl")
        print(f"[trace completed in {time.time() - began:.1f}s wall]")
        return status
    if args.experiment in CAMPAIGNS:
        return run_campaign_cli(args.experiment, args)
    names = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              "try 'list'", file=sys.stderr)
        return 2
    for name in names:
        print(f"\n=== {DESCRIPTIONS[name]} ===")
        began = time.time()
        EXPERIMENTS[name]()
        print(f"[{name} completed in {time.time() - began:.1f}s wall]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
