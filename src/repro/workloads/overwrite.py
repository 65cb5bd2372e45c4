"""The full-device overwrite benchmark of Figure 10 (Observation 3).

Phase 1: five threads concurrently write the entire array capacity, each
covering a disjoint 20% of the address space (0→20%, 20%→40%, ...), which
interleaves five write streams into the conventional SSDs' erase blocks.
Phase 2: a single thread sequentially overwrites the entire address
space.  Once the conventional devices exhaust their overprovisioned
blocks, on-device garbage collection must copy the ~80%-valid erase
blocks, collapsing mdraid's throughput; the valid ratio falls as the
overwrite proceeds, so throughput recovers near the 80% mark (point D).

RAIZN has no device-level GC; the host resets each logical zone before
rewriting it, so throughput stays flat.

Throughput and latency are sampled once per simulated second, exactly as
the paper plots them.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Tuple

from ..block.bio import Bio
from ..sim import LatencyStats, Simulator, ThroughputSeries, simulation_gc
from .fio import issue


@dataclasses.dataclass
class OverwriteResult:
    """Timeseries outcome of the two-phase overwrite benchmark."""

    phase2_start: float
    series: ThroughputSeries
    latency_series: List[Tuple[float, float]]  # (second, mean latency s)
    phase1_latency: LatencyStats
    phase2_latency: LatencyStats

    def throughput_series(self) -> List[Tuple[float, float]]:
        return self.series.series()


def run_overwrite(sim: Simulator, volume, block_size: int = 64 * 1024,
                  iodepth: int = 8, threads: int = 5,
                  zoned: bool = False, seed: int = 0,
                  bucket_seconds: float = 1.0) -> OverwriteResult:
    """Run the two-phase overwrite benchmark; drains the event loop.

    ``zoned`` selects the ZNS-legal overwrite: each logical zone is reset
    before being rewritten (phase 2), as any ZNS-aware application must.
    """
    series = ThroughputSeries(bucket_seconds=bucket_seconds)
    latency_buckets = {}
    phase1_latency = LatencyStats()
    phase2_latency = LatencyStats()

    def record(bio, stats: LatencyStats) -> None:
        series.record(bio.complete_time, bio.length)
        stats.add(bio.latency)
        bucket = int(bio.complete_time / bucket_seconds)
        total, count = latency_buckets.get(bucket, (0.0, 0))
        latency_buckets[bucket] = (total + bio.latency, count + 1)

    capacity = volume.capacity
    align = getattr(volume, "zone_capacity", block_size) if zoned \
        else block_size
    share = capacity // threads
    share -= share % align
    usable = share * threads
    # Phase 1: `threads` concurrent writers over disjoint 20% shares.
    writers = [
        sim.process(_writer(sim, volume, t * share, share, block_size,
                            iodepth, record, phase1_latency, zoned,
                            seed + t))
        for t in range(threads)
    ]
    with simulation_gc():
        sim.run()
    for writer in writers:
        if not writer.ok:
            raise writer.value
    phase2_start = sim.now
    # Phase 2: one thread overwrites the full address space.
    writer = sim.process(_writer(sim, volume, 0, usable, block_size,
                                 iodepth, record, phase2_latency, zoned,
                                 seed + 99))
    with simulation_gc():
        sim.run()
    if not writer.ok:
        raise writer.value
    latency_series = [(b * bucket_seconds, total / count)
                      for b, (total, count) in sorted(latency_buckets.items())]
    return OverwriteResult(phase2_start=phase2_start, series=series,
                           latency_series=latency_series,
                           phase1_latency=phase1_latency,
                           phase2_latency=phase2_latency)


def _writer(sim: Simulator, volume, start: int, length: int,
            block_size: int, iodepth: int, record, stats: LatencyStats,
            zoned: bool, seed: int):
    """Sequentially (re)write ``[start, start+length)``.

    Zoned, each logical zone is one :func:`issue` segment: the ZNS-legal
    overwrite resets the zone before rewriting it, after the previous
    segment drained so the reset orders behind its writes.
    """
    payload = random.Random(seed).randbytes(block_size)
    zone_cap = getattr(volume, "zone_capacity", None) if zoned else None
    segment = zone_cap or length
    end = start + length
    for base in range(start, end, segment or 1):
        if zone_cap is not None:
            info = volume.zone_info(base // zone_cap)
            if info.write_pointer > info.start:
                yield volume.submit(Bio.zone_reset(base))
        bios = (Bio.write(position, payload) for position in
                range(base, min(base + segment, end), block_size))
        yield from issue(sim, volume, bios, iodepth,
                         lambda bio: record(bio, stats))
    return length
