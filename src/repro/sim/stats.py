"""Measurement helpers: latency distributions and throughput timeseries.

Every benchmark in this repository reports numbers computed by these two
classes from simulated-time samples, mirroring how the paper reports fio
throughput, median latency, 99.9th-percentile latency, and the 1 Hz
throughput/latency timeseries of Figure 10.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..units import MiB


class LatencyStats:
    """Collects latency samples (seconds) and reports summary statistics."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted = True

    def add(self, sample: float) -> None:
        """Record one latency sample in seconds."""
        if self._samples and sample < self._samples[-1]:
            self._sorted = False
        self._samples.append(sample)

    def extend(self, samples: Sequence[float]) -> None:
        """Record many samples at once."""
        for sample in samples:
            self.add(sample)

    @property
    def count(self) -> int:
        return len(self._samples)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def sorted_samples(self) -> Sequence[float]:
        """Every sample, ascending — the same view whether or not a
        percentile was queried first.  Read-only: do not mutate."""
        self._ensure_sorted()
        return self._samples

    def _interpolate(self, pct: float) -> float:
        """Shared linear interpolation over the sample list.

        The single code path both :meth:`percentile` and
        :meth:`percentiles` resolve through — every edge case (empty
        window, single sample, pct 0/100, out-of-range pct) is handled
        here and nowhere else, so the scalar and batch entry points can
        never disagree.
        """
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        samples = self._samples
        if not samples:
            raise ValueError("no latency samples recorded")
        if len(samples) == 1:
            # A one-sample window has a degenerate distribution: every
            # percentile, including 0 and 100, is that sample.
            return samples[0]
        self._ensure_sorted()
        rank = (pct / 100.0) * (len(samples) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            # Exact rank — covers pct == 0 (the minimum) and pct == 100
            # (the maximum) without interpolation error.
            return samples[low]
        frac = rank - low
        # a + (b-a)*frac is monotone in frac under IEEE rounding, unlike
        # the a*(1-frac) + b*frac form.
        return samples[low] + (samples[high] - samples[low]) * frac

    def percentile(self, pct: float) -> float:
        """Linear-interpolated percentile, ``pct`` in [0, 100]."""
        return self._interpolate(pct)

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def p999(self) -> float:
        """99.9th-percentile latency, the paper's tail metric (Figure 9)."""
        return self.percentile(99.9)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError("no latency samples recorded")
        return sum(self._samples) / len(self._samples)

    @property
    def maximum(self) -> float:
        if not self._samples:
            raise ValueError("no latency samples recorded")
        self._ensure_sorted()
        return self._samples[-1]

    def percentiles(self, ps: Sequence[float]) -> Dict[float, float]:
        """Batch percentile lookup: ``{pct: seconds}`` for each requested
        percentile, over a single sort of the sample list.

        Harnesses that want several tail points should call this instead
        of re-sorting a copy per percentile.  An empty window raises the
        same ``ValueError`` as :meth:`percentile` — unless ``ps`` itself
        is empty, in which case there is nothing to resolve and the
        result is an empty dict.
        """
        if not self._samples and ps:
            raise ValueError("no latency samples recorded")
        return {pct: self._interpolate(pct) for pct in ps}

    def summary(self) -> Dict[str, float]:
        """All headline statistics as a dict (seconds)."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "median": self.median,
            "p95": self.p95,
            "p99": self.p99,
            "p99.9": self.p999,
            "max": self.maximum,
        }


class ThroughputSeries:
    """Accumulates (time, bytes) completions into fixed-width buckets.

    ``series()`` yields a per-bucket MiB/s timeseries, the exact shape the
    paper plots in Figure 10 (1-second sampling of throughput over a long
    overwrite run).
    """

    def __init__(self, bucket_seconds: float = 1.0):
        if bucket_seconds <= 0:
            raise ValueError("bucket width must be positive")
        self.bucket_seconds = bucket_seconds
        self._buckets: Dict[int, int] = {}
        self.total_bytes = 0
        self.first_time: float = math.inf
        self.last_time: float = 0.0

    def record(self, at: float, nbytes: int) -> None:
        """Record ``nbytes`` completed at simulated time ``at``."""
        index = int(at / self.bucket_seconds)
        self._buckets[index] = self._buckets.get(index, 0) + nbytes
        self.total_bytes += nbytes
        self.first_time = min(self.first_time, at)
        self.last_time = max(self.last_time, at)

    def series(self) -> List[Tuple[float, float]]:
        """Return [(bucket_start_seconds, MiB_per_second), ...] sorted by time.

        Buckets with no completions are reported as zero so that stalls
        (e.g. a device saturated by garbage collection) appear in the plot.
        """
        if not self._buckets:
            return []
        lo = min(self._buckets)
        hi = max(self._buckets)
        out = []
        for index in range(lo, hi + 1):
            mib_s = self._buckets.get(index, 0) / self.bucket_seconds / MiB
            out.append((index * self.bucket_seconds, mib_s))
        return out


def throughput_mib_s(total_bytes: int, elapsed_seconds: float) -> float:
    """Throughput in MiB/s for ``total_bytes`` moved in ``elapsed_seconds``."""
    if elapsed_seconds <= 0:
        raise ValueError(f"elapsed time must be positive, got {elapsed_seconds}")
    return total_bytes / elapsed_seconds / MiB
