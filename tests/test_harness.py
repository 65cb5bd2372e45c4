"""Tests for the experiment harness: every paper figure/table driver runs
at a tiny scale and produces results of the right shape."""

import pytest

from repro.harness import (
    ArrayScale,
    format_series_table,
    format_table,
    make_mdraid,
    make_raizn,
    measure_raw_devices,
    measured_entry_sizes,
    mdraid_ttr,
    normalize,
    points_table,
    raizn_ttr,
    run_degraded,
    run_gc_timeseries,
    run_microbench,
    run_rocksdb,
    run_sysbench,
    table1_rows,
)
from repro.harness.results import Series
from repro.sim import Simulator
from repro.units import KiB, MiB

TINY = ArrayScale(num_zones=10, zone_capacity=1 * MiB)
#: User-visible bytes of a RAIZN volume at TINY scale: D = 4 data units
#: per stripe over its 7 data zones.
TINY_USABLE = 4 * 7 * MiB


class TestArrays:
    def test_make_raizn(self, sim):
        volume, devices = make_raizn(sim, TINY)
        assert len(devices) == 5
        assert volume.capacity == TINY_USABLE

    def test_make_mdraid_matches_usable(self, sim):
        md, devices = make_mdraid(sim, TINY)
        assert md.capacity == TINY_USABLE

    def test_scales(self):
        assert TINY.data_zones == 7
        assert TINY.conv_device_capacity == 7 * MiB


class TestResultsFormatting:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "---" in lines[1]

    def test_series_smoothing(self):
        series = Series("s", [(0, 0.0), (1, 10.0), (2, 0.0)])
        smooth = series.smoothed(3)
        assert smooth.points[1][1] == pytest.approx(10 / 3)

    def test_series_downsample(self):
        series = Series("s", [(float(i), float(i)) for i in range(100)])
        down = series.downsample(10)
        assert len(down.points) == 10

    def test_series_table(self):
        a = Series("a", [(0, 1.0), (1, 2.0)])
        text = format_series_table([a], "t", "MiB/s", buckets=2)
        assert "a (MiB/s)" in text

    def test_normalize(self):
        ratios = normalize({"raizn": 90.0, "mdraid": 100.0}, "mdraid")
        assert ratios["raizn"] == pytest.approx(0.9)
        with pytest.raises(ValueError):
            normalize({"a": 1.0, "b": 0.0}, "b")


class TestRawDevice:
    def test_gaps_match_paper(self):
        result = measure_raw_devices(num_zones=16, zone_capacity=2 * MiB)
        # §6.1: ZNS ~2% slower writes, ~4% slower reads.
        assert 0.0 < result.write_gap < 0.05
        assert 0.01 < result.read_gap < 0.08
        assert 900 < result.zns_write < 1100


class TestTable1:
    def test_rows_cover_all_metadata_types(self):
        rows = table1_rows(TINY)
        names = [r.metadata_type for r in rows]
        assert "Partial parity" in names
        assert "Generation counters" in names
        assert len(rows) == 9

    def test_entry_sizes_match_paper(self):
        sizes = measured_entry_sizes()
        # Table 1: header is one 4 KiB sector; stripe-unit payloads add
        # their (sector-padded) size.
        assert sizes["zone_reset"] == 4 * KiB
        assert sizes["generation"] == 4 * KiB
        assert sizes["relocated_su"] == 4 * KiB + 64 * KiB
        assert sizes["partial_parity_full"] == 4 * KiB + 64 * KiB
        assert sizes["partial_parity_4k"] == 4 * KiB + 4 * KiB


class TestMicrobench:
    @pytest.mark.parametrize("kind", ["raizn", "mdraid"])
    def test_write_point(self, kind):
        point = run_microbench(kind, "write", 256 * KiB, scale=TINY,
                               per_job_bytes=512 * KiB)
        assert point.throughput_mib_s > 100
        assert point.median_latency > 0
        assert point.p999_latency >= point.median_latency

    @pytest.mark.parametrize("workload", ["read", "randread"])
    def test_read_points(self, workload):
        point = run_microbench("raizn", workload, 64 * KiB, scale=TINY,
                               per_job_bytes=512 * KiB)
        assert point.throughput_mib_s > 100

    def test_points_table_shape(self):
        point = run_microbench("raizn", "write", 64 * KiB, scale=TINY,
                               per_job_bytes=256 * KiB)
        rows = points_table([point])
        assert rows[0][0] == "raizn"
        assert rows[0][2] == 64


class TestGcTimeseries:
    def test_mdraid_drops_raizn_flat(self):
        scale = ArrayScale(num_zones=12, zone_capacity=2 * MiB)
        md = run_gc_timeseries("mdraid", scale=scale, block_size=256 * KiB)
        rz = run_gc_timeseries("raizn", scale=scale, block_size=256 * KiB)
        # Observation 3: device GC collapses mdraid's throughput.
        assert md.throughput_drop > 0.5
        assert rz.phase2_mean_mib_s > 0.5 * rz.phase1_mean_mib_s


class TestDegraded:
    def test_degraded_read_point(self):
        point = run_degraded("raizn", "read", 256 * KiB, scale=TINY)
        assert point.system == "raizn/degraded"
        assert point.throughput_mib_s > 0

    def test_rejects_write_workload(self):
        with pytest.raises(ValueError):
            run_degraded("raizn", "write", 4 * KiB, scale=TINY)


class TestRebuildTtr:
    def test_raizn_ttr_scales_mdraid_constant(self):
        scale = ArrayScale(num_zones=10, zone_capacity=1 * MiB)
        raizn_small = raizn_ttr(0.25, scale)
        raizn_large = raizn_ttr(1.0, scale)
        assert raizn_large.ttr_seconds > 2 * raizn_small.ttr_seconds
        md_small = mdraid_ttr(0.25, scale)
        md_large = mdraid_ttr(1.0, scale)
        assert md_large.bytes_rebuilt == md_small.bytes_rebuilt
        # At 100% fill both systems rebuild the same amount (Figure 12).
        assert raizn_large.bytes_rebuilt == pytest.approx(
            md_large.bytes_rebuilt, rel=0.05)


APP_SCALE = ArrayScale(num_zones=15, zone_capacity=1 * MiB)


class TestApplications:
    def test_rocksdb_cells(self):
        cells = run_rocksdb("raizn", value_size=1000, num_ops=200,
                            scale=APP_SCALE,
                            workloads=("fillseq", "overwrite"))
        assert {c.workload for c in cells} == {"fillseq", "overwrite"}
        assert all(c.ops_per_second > 0 for c in cells)

    def test_sysbench_cell(self):
        cell = run_sysbench("raizn", "oltp_read_write", threads=4,
                            transactions=16, tables=2, rows=100,
                            scale=APP_SCALE)
        assert cell.tps > 0
        assert cell.p95_latency >= 0
