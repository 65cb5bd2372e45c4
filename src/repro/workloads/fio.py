"""fio-style workload driver (paper §6.1 methodology).

Reproduces the benchmark structure of the paper's microbenchmarks: jobs ×
iodepth asynchronous IO against any volume exposing ``submit(bio)`` — a
raw simulated device, a RAIZN volume, or an mdraid volume.  Sequential
jobs write/read disjoint regions starting at different offsets; random
read jobs sample a primed region, matching the fio configurations in
§6.1 (8 jobs × QD64 sequential, 1 job × QD256 random).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ..block.bio import Bio
from ..errors import ReproError
from ..sim import (
    LatencyStats,
    Resource,
    Simulator,
    ThroughputSeries,
    simulation_gc,
)
from ..units import MiB


@dataclasses.dataclass
class FioJobSpec:
    """One fio job file, reduced to the knobs the paper sweeps."""

    #: 'write', 'read', 'randread', or 'randwrite'.
    rw: str
    #: Block size in bytes.
    block_size: int
    #: Outstanding IOs per job.
    iodepth: int = 1
    #: Number of concurrent jobs.
    numjobs: int = 1
    #: Bytes transferred per job.
    size_per_job: int = 8 * MiB
    #: Region of the volume the workload targets: (start, length).
    #: Sequential jobs carve it into per-job sub-regions; random jobs
    #: sample it uniformly.
    region: Optional[Tuple[int, int]] = None
    #: Alignment for per-job sub-regions.  On a zoned volume, sequential
    #: write jobs must start at a zone boundary, so pass the logical zone
    #: capacity here.
    align: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rw not in ("write", "read", "randread", "randwrite"):
            raise ReproError(f"unknown rw mode: {self.rw}")
        if self.block_size <= 0 or self.iodepth < 1 or self.numjobs < 1:
            raise ReproError("invalid fio job parameters")


@dataclasses.dataclass
class FioResult:
    """Aggregated outcome of one fio run."""

    spec: FioJobSpec
    total_bytes: int
    elapsed: float
    latency: LatencyStats
    series: ThroughputSeries

    @property
    def throughput_mib_s(self) -> float:
        return self.total_bytes / self.elapsed / MiB if self.elapsed else 0.0


def run_fio(sim: Simulator, volume, spec: FioJobSpec,
            payload: Optional[bytes] = None) -> FioResult:
    """Run one fio job spec to completion; drains the event loop."""
    start = sim.now
    latency = LatencyStats()
    series = ThroughputSeries(bucket_seconds=1.0)
    region = spec.region or (0, volume.capacity)
    jobs = [
        sim.process(_job(sim, volume, spec, job_index, region, latency,
                         series, payload))
        for job_index in range(spec.numjobs)
    ]
    with simulation_gc():
        sim.run()
    for job in jobs:
        if not job.ok:
            raise job.value
    total = sum(job.value for job in jobs)
    return FioResult(spec=spec, total_bytes=total, elapsed=sim.now - start,
                     latency=latency, series=series)


def issue(sim: Simulator, volume, bios: Iterable[Bio], iodepth: int,
          on_done: Optional[Callable[[Bio], None]] = None):
    """Process: submit ``bios`` in order, at most ``iodepth`` in flight.

    The one windowed issue loop: every workload that keeps a queue depth
    drives its bios through it.  ``on_done(bio)`` runs for each bio that
    completes without error.  After the last submission the loop drains;
    it raises the first failure and returns the bytes moved.
    """
    window = Resource(sim, iodepth)
    failures: List[BaseException] = []
    completions = []
    moved = 0

    def done(event) -> None:
        window.release()
        if not event.ok:
            failures.append(event.value)
        elif on_done is not None:
            on_done(event.value)

    for bio in bios:
        yield window.request()
        event = volume.submit(bio)
        event.add_callback(done)
        completions.append(event)
        moved += bio.length
        if failures:
            raise failures[0]
    for event in completions:
        if not event.triggered:
            yield event
    if failures:
        raise failures[0]
    return moved


def _job(sim: Simulator, volume, spec: FioJobSpec, job_index: int,
         region: Tuple[int, int], latency: LatencyStats,
         series: ThroughputSeries, payload: Optional[bytes]):
    """One fio job: issue offsets in order, keeping ``iodepth`` in flight."""
    offsets = _offsets(spec, job_index, region)
    if spec.rw in ("write", "randwrite"):
        data = payload or _default_payload(spec.block_size,
                                           spec.seed + job_index)
        bios = (Bio.write(offset, data) for offset in offsets)
    else:
        bios = (Bio.read(offset, spec.block_size) for offset in offsets)

    def on_done(bio: Bio) -> None:
        latency.add(bio.latency)
        series.record(bio.complete_time, bio.length)

    return (yield from issue(sim, volume, bios, spec.iodepth, on_done))


def _offsets(spec: FioJobSpec, job_index: int,
             region: Tuple[int, int]) -> Iterator[int]:
    region_start, region_len = region
    count = spec.size_per_job // spec.block_size
    if spec.rw in ("write", "read"):
        # Disjoint per-job sub-regions, "starting at different offsets".
        per_job = region_len // spec.numjobs
        if spec.align:
            per_job -= per_job % spec.align
        base = region_start + job_index * per_job
        if spec.size_per_job > per_job:
            raise ReproError(
                f"job size {spec.size_per_job} exceeds per-job region "
                f"{per_job}")
        for i in range(count):
            yield base + i * spec.block_size
    else:
        rng = random.Random(spec.seed * 1000003 + job_index)
        slots = region_len // spec.block_size
        if slots == 0:
            raise ReproError("region smaller than one block")
        for _ in range(count):
            yield region_start + rng.randrange(slots) * spec.block_size


def _default_payload(block_size: int, seed: int) -> bytes:
    rng = random.Random(seed)
    return rng.randbytes(block_size)


def prime_volume(sim: Simulator, volume, nbytes: int,
                 block_size: int = 1 * MiB, numjobs: int = 1,
                 region_start: int = 0) -> FioResult:
    """Sequentially fill ``nbytes`` of the volume (the priming phase)."""
    spec = FioJobSpec(rw="write", block_size=block_size, iodepth=8,
                      numjobs=numjobs, size_per_job=nbytes // numjobs,
                      region=(region_start, nbytes),
                      align=getattr(volume, "zone_capacity", None))
    return run_fio(sim, volume, spec)
