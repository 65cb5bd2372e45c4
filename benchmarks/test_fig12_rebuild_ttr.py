"""Figure 12 (Observation 4): time to repair a replaced device.

Paper shape: mdraid's resync time is constant regardless of array fill
(it reconstructs the whole address space); RAIZN's scales linearly with
the valid data, and the two meet at 100% fill, both bottlenecked by the
replacement device's write throughput.
"""

import pytest

from repro.block import conventional_ssd_model, zns_zn540_model
from repro.harness import ArrayScale, format_table, ttr_sweep
from repro.units import MiB

from conftest import run_once

TTR_SCALE = ArrayScale(num_zones=35, zone_capacity=2 * MiB)
FRACTIONS = (0.125, 0.25, 0.5, 0.75, 1.0)


def test_fig12_rebuild_ttr(benchmark, print_rows):
    points = run_once(benchmark,
                      lambda: ttr_sweep(FRACTIONS, scale=TTR_SCALE))
    print_rows("Figure 12: time to repair vs valid data", format_table(
        ["system", "fill", "valid MiB", "rebuilt MiB", "TTR (sim s)"],
        [[p.system, f"{p.fill_fraction:.3f}", p.valid_bytes // MiB,
          p.bytes_rebuilt // MiB, round(p.ttr_seconds, 4)]
         for p in points]))

    raizn = {p.fill_fraction: p for p in points if p.system == "raizn"}
    mdraid = {p.fill_fraction: p for p in points if p.system == "mdraid"}
    # mdraid: constant work regardless of fill.
    rebuilt = {p.bytes_rebuilt for p in mdraid.values()}
    assert len(rebuilt) == 1
    spread = max(p.ttr_seconds for p in mdraid.values()) / \
        min(p.ttr_seconds for p in mdraid.values())
    assert spread < 1.5
    # RAIZN: linear in valid data.
    assert raizn[1.0].ttr_seconds > 5 * raizn[0.125].ttr_seconds
    ratio = raizn[0.5].ttr_seconds / raizn[1.0].ttr_seconds
    assert 0.35 < ratio < 0.65
    # The curves meet at 100% fill.
    assert raizn[1.0].ttr_seconds == pytest.approx(
        mdraid[1.0].ttr_seconds, rel=0.35)
    # ...where both are bottlenecked by the replacement device's write
    # throughput (Observation 4), not by the rebuild loop's queue depth.
    for point, model in ((raizn[1.0], zns_zn540_model()),
                         (mdraid[1.0], conventional_ssd_model())):
        rate = point.bytes_rebuilt / point.ttr_seconds
        assert rate >= 0.6 * model.write_bandwidth, point.system
        benchmark.extra_info[f"{point.system}_full_write_bw_share"] = \
            rate / model.write_bandwidth
    benchmark.extra_info["raizn_full_ttr"] = raizn[1.0].ttr_seconds
