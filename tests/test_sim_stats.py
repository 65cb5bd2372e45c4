"""Unit and property tests for the measurement helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import LatencyStats, ThroughputSeries, throughput_mib_s
from repro.units import MiB


def histogram(stats, num_buckets=16):
    """``[(upper_bound_seconds, count), ...]`` of ``stats``' samples.

    Bucket widths grow geometrically across the sample range (latency
    distributions are long-tailed, so linear buckets would dump the
    whole body into one bin); the final bound is pinned to the maximum
    sample.  Empty buckets are kept so exports from runs with different
    shapes still line up bucket-for-bucket.
    """
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    samples = stats.sorted_samples()
    if not samples:
        return []
    lo, hi = samples[0], samples[-1]
    if hi <= lo or num_buckets == 1:
        return [(hi, len(samples))]
    if lo > 0:
        ratio = (hi / lo) ** (1.0 / num_buckets)
        bounds = [lo * ratio ** (i + 1) for i in range(num_buckets)]
    else:
        step = (hi - lo) / num_buckets
        bounds = [lo + step * (i + 1) for i in range(num_buckets)]
    bounds[-1] = hi
    counts = [0] * num_buckets
    bucket = 0
    for sample in samples:
        while sample > bounds[bucket] and bucket < num_buckets - 1:
            bucket += 1
        counts[bucket] += 1
    return list(zip(bounds, counts))


class TestLatencyStats:
    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            LatencyStats().percentile(50)

    def test_empty_collector_uniform_errors(self):
        """Every statistic on an empty collector raises the same
        ``ValueError`` — ``maximum`` used to leak a bare ``IndexError``."""
        stats = LatencyStats()
        for attribute in ("mean", "median", "p95", "p99", "p999", "maximum"):
            with pytest.raises(ValueError, match="no latency samples"):
                getattr(stats, attribute)
        with pytest.raises(ValueError, match="no latency samples"):
            stats.summary()

    def test_summary_on_one_sample(self):
        stats = LatencyStats()
        stats.add(0.25)
        summary = stats.summary()
        assert summary["count"] == 1
        assert all(summary[key] == 0.25 for key in
                   ("mean", "median", "p95", "p99", "p99.9", "max"))

    def test_single_sample(self):
        stats = LatencyStats()
        stats.add(0.5)
        assert stats.median == 0.5
        assert stats.p999 == 0.5
        assert stats.maximum == 0.5

    def test_median_of_known_set(self):
        stats = LatencyStats()
        stats.extend([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.median == 3.0
        assert stats.mean == 3.0

    def test_percentile_interpolates(self):
        stats = LatencyStats()
        stats.extend([0.0, 1.0])
        assert stats.percentile(25) == pytest.approx(0.25)

    def test_out_of_range_percentile(self):
        stats = LatencyStats()
        stats.add(1.0)
        with pytest.raises(ValueError):
            stats.percentile(101)

    def test_unsorted_input_handled(self):
        stats = LatencyStats()
        stats.extend([5.0, 1.0, 3.0])
        assert stats.median == 3.0
        assert stats.maximum == 5.0

    def test_sorted_samples_same_before_and_after_a_query(self):
        stats = LatencyStats()
        stats.extend([3.0, 1.0, 2.0])
        assert list(stats.sorted_samples()) == [1.0, 2.0, 3.0]
        assert stats.median == 2.0
        assert list(stats.sorted_samples()) == [1.0, 2.0, 3.0]

    def test_summary_keys(self):
        stats = LatencyStats()
        stats.extend([1.0, 2.0])
        summary = stats.summary()
        assert set(summary) == {"count", "mean", "median", "p95", "p99",
                                "p99.9", "max"}
        assert summary["count"] == 2

    @given(st.lists(st.floats(min_value=0, max_value=1e3,
                              allow_subnormal=False),
                    min_size=1, max_size=200))
    def test_percentiles_monotonic(self, samples):
        stats = LatencyStats()
        stats.extend(samples)
        values = [stats.percentile(p) for p in (0, 25, 50, 75, 99, 100)]
        assert values == sorted(values)
        assert values[0] == min(samples)
        assert values[-1] == max(samples)

    @given(st.lists(st.floats(min_value=0, max_value=1e3,
                              allow_subnormal=False),
                    min_size=1, max_size=100))
    def test_mean_bounded_by_extremes(self, samples):
        stats = LatencyStats()
        stats.extend(samples)
        # Summation rounding can undershoot the minimum by an ULP.
        assert min(samples) * (1 - 1e-12) - 1e-300 <= stats.mean
        assert stats.mean <= max(samples) * (1 + 1e-12) + 1e-300


class TestPercentilesBatch:
    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no latency samples"):
            LatencyStats().percentiles((50.0,))

    def test_empty_request_on_empty_window(self):
        """No samples AND no requested percentiles: nothing to resolve,
        so the batch form returns an empty dict instead of raising."""
        assert LatencyStats().percentiles(()) == {}

    def test_empty_request_on_populated_window(self):
        stats = LatencyStats()
        stats.add(1.0)
        assert stats.percentiles(()) == {}

    def test_scalar_and_batch_raise_identically_on_empty(self):
        stats = LatencyStats()
        with pytest.raises(ValueError, match="no latency samples"):
            stats.percentile(50.0)
        with pytest.raises(ValueError, match="no latency samples"):
            stats.percentiles((50.0,))

    def test_matches_scalar_percentile(self):
        stats = LatencyStats()
        stats.extend([5.0, 1.0, 3.0, 2.0, 4.0])
        batch = stats.percentiles((0.0, 25.0, 50.0, 99.0, 100.0))
        for pct, value in batch.items():
            assert value == stats.percentile(pct)

    def test_edge_percentiles(self):
        stats = LatencyStats()
        stats.extend([2.0, 8.0, 4.0])
        batch = stats.percentiles((0.0, 100.0))
        assert batch[0.0] == 2.0
        assert batch[100.0] == 8.0

    def test_single_sample_all_percentiles_collapse(self):
        stats = LatencyStats()
        stats.add(0.75)
        batch = stats.percentiles((0.0, 50.0, 99.9, 100.0))
        assert set(batch.values()) == {0.75}

    def test_interpolation_between_samples(self):
        stats = LatencyStats()
        stats.extend([0.0, 1.0])
        batch = stats.percentiles((25.0, 50.0, 75.0))
        assert batch[25.0] == pytest.approx(0.25)
        assert batch[50.0] == pytest.approx(0.5)
        assert batch[75.0] == pytest.approx(0.75)

    def test_out_of_range_rejected(self):
        stats = LatencyStats()
        stats.add(1.0)
        with pytest.raises(ValueError):
            stats.percentiles((50.0, 101.0))

    @given(st.lists(st.floats(min_value=0, max_value=1e3,
                              allow_subnormal=False),
                    min_size=1, max_size=100),
           st.lists(st.floats(min_value=0, max_value=100),
                    min_size=1, max_size=10))
    def test_scalar_batch_unified(self, samples, pcts):
        """Both entry points route through the same interpolation, so
        they agree bit-for-bit on any sample set and percentile."""
        stats = LatencyStats()
        stats.extend(samples)
        batch = stats.percentiles(pcts)
        for pct in pcts:
            assert batch[pct] == stats.percentile(pct)


class TestHistogram:
    def test_empty_histogram(self):
        assert histogram(LatencyStats()) == []

    def test_invalid_bucket_count(self):
        stats = LatencyStats()
        stats.add(1.0)
        with pytest.raises(ValueError, match="num_buckets"):
            histogram(stats, num_buckets=0)

    def test_single_sample_single_bucket(self):
        stats = LatencyStats()
        stats.add(0.5)
        assert histogram(stats) == [(0.5, 1)]

    def test_identical_samples_collapse(self):
        stats = LatencyStats()
        stats.extend([2.0] * 7)
        assert histogram(stats, num_buckets=8) == [(2.0, 7)]

    def test_counts_sum_to_sample_count(self):
        stats = LatencyStats()
        stats.extend([0.001 * (i + 1) for i in range(100)])
        buckets = histogram(stats, num_buckets=10)
        assert len(buckets) == 10
        assert sum(count for _, count in buckets) == 100

    def test_bounds_monotonic_and_pinned_to_max(self):
        stats = LatencyStats()
        stats.extend([1e-4, 3e-4, 1e-3, 9e-3, 2e-2])
        buckets = histogram(stats, num_buckets=6)
        bounds = [bound for bound, _ in buckets]
        assert bounds == sorted(bounds)
        assert bounds[-1] == 2e-2

    def test_zero_minimum_falls_back_to_linear(self):
        stats = LatencyStats()
        stats.extend([0.0, 0.25, 0.5, 0.75, 1.0])
        buckets = histogram(stats, num_buckets=4)
        bounds = [bound for bound, _ in buckets]
        assert bounds == pytest.approx([0.25, 0.5, 0.75, 1.0])
        assert [count for _, count in buckets] == [2, 1, 1, 1]

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e3,
                              allow_subnormal=False),
                    min_size=1, max_size=200),
           st.integers(min_value=1, max_value=32))
    def test_histogram_conserves_mass(self, samples, num_buckets):
        stats = LatencyStats()
        stats.extend(samples)
        buckets = histogram(stats, num_buckets=num_buckets)
        assert sum(count for _, count in buckets) == len(samples)
        bounds = [bound for bound, _ in buckets]
        assert bounds == sorted(bounds)


class TestThroughputSeries:
    def test_empty_series(self):
        assert ThroughputSeries().series() == []

    def test_bucket_accumulation(self):
        series = ThroughputSeries(bucket_seconds=1.0)
        series.record(0.5, 10 * MiB)
        series.record(0.9, 10 * MiB)
        series.record(2.5, 5 * MiB)
        points = series.series()
        assert points[0] == (0.0, 20.0)
        assert points[1] == (1.0, 0.0)  # gaps reported as zero
        assert points[2] == (2.0, 5.0)

    def test_total_bytes(self):
        series = ThroughputSeries()
        series.record(0.1, 100)
        series.record(5.0, 200)
        assert series.total_bytes == 300

    def test_mean_throughput(self):
        series = ThroughputSeries()
        series.record(0.0, 10 * MiB)
        series.record(10.0, 10 * MiB)
        span = series.last_time - series.first_time
        assert series.total_bytes / span / MiB == pytest.approx(2.0)

    def test_invalid_bucket_width(self):
        with pytest.raises(ValueError):
            ThroughputSeries(bucket_seconds=0)

    def test_throughput_helper(self):
        assert throughput_mib_s(10 * MiB, 2.0) == 5.0
        with pytest.raises(ValueError):
            throughput_mib_s(1, 0)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                              st.integers(min_value=0, max_value=10 * MiB)),
                    min_size=1, max_size=50))
    def test_series_conserves_bytes(self, records):
        series = ThroughputSeries(bucket_seconds=1.0)
        for at, nbytes in records:
            series.record(at, nbytes)
        total_from_series = sum(v for _t, v in series.series()) * MiB
        assert total_from_series == pytest.approx(series.total_bytes)
