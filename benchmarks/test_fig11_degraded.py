"""Figure 11: degraded (one device removed) read performance.

Paper shape: RAIZN and mdraid are comparable in degraded mode — RAIZN
slightly worse on small IO, equal or better at larger sizes.
"""

from repro.harness import degraded_sweep, format_table, points_table
from repro.units import KiB, MiB

from conftest import BENCH_SCALE, run_once


def test_fig11_degraded_reads(benchmark, print_rows):
    points = run_once(benchmark, lambda: degraded_sweep(
        block_sizes=(4 * KiB, 64 * KiB, 256 * KiB, 1 * MiB),
        scale=BENCH_SCALE))
    print_rows("Figure 11: degraded reads (throughput MiB/s, latency us)",
               format_table(["system", "workload", "bs KiB", "MiB/s",
                             "p50 us", "p99.9 us"], points_table(points)))

    def get(system, workload, block_size):
        (point,) = [p for p in points
                    if p.system == f"{system}/degraded"
                    and p.workload == workload
                    and p.block_size == block_size]
        return point

    # Comparable degraded performance at every size: sequential within
    # 0.8-1.25 now that both read each surviving chunk once, random
    # within 2x, with RAIZN at least on par for large sequential reads.
    for workload, (low, high) in (("read", (0.8, 1.25)),
                                  ("randread", (0.5, 2.5))):
        for block_size in (4 * KiB, 64 * KiB, 256 * KiB, 1 * MiB):
            md = get("mdraid", workload, block_size)
            rz = get("raizn", workload, block_size)
            ratio = rz.throughput_mib_s / md.throughput_mib_s
            assert low < ratio < high, (workload, block_size, ratio)
    md = get("mdraid", "read", 1 * MiB)
    rz = get("raizn", "read", 1 * MiB)
    assert rz.throughput_mib_s > 0.8 * md.throughput_mib_s
    benchmark.extra_info["cells"] = len(points)
