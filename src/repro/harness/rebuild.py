"""Figure 12: time-to-repair a replaced device (paper §6.2, Obs. 4).

Fills the volume to a chosen fraction, fails device 0, replaces it with
a blank device, and measures the rebuild in simulated time.  RAIZN's TTR
scales linearly with the valid data (it rebuilds only up to each logical
zone's write pointer); mdraid's resync always reconstructs the entire
device address space, so its TTR is constant — the two meet at 100% fill,
where both are bottlenecked by the replacement device's write throughput:
both loops keep a window of reconstructions in flight (twice the
replacement's channel count) and write them back in address order without
waiting for the previous write, so ``bytes_rebuilt / ttr_seconds`` sits
near the replacement's modelled ``write_bandwidth``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from ..conv.device import ConventionalSSD
from ..faults.devicefail import fresh_replacement
from ..raizn.rebuild import rebuild
from ..sim import Simulator, simulation_gc
from ..units import MiB
from ..workloads.fio import prime_volume
from .arrays import DEFAULT, ArrayScale, make_mdraid, make_raizn


@dataclasses.dataclass
class TtrPoint:
    """One (system, fill fraction) time-to-repair measurement."""

    system: str
    fill_fraction: float
    valid_bytes: int
    bytes_rebuilt: int
    ttr_seconds: float


def raizn_ttr(fill_fraction: float, scale: ArrayScale = DEFAULT,
              seed: int = 0) -> TtrPoint:
    """RAIZN rebuild time at one fill fraction."""
    sim = Simulator()
    volume, devices = make_raizn(sim, scale, seed=seed)
    fill = int(volume.capacity * fill_fraction)
    fill -= fill % volume.zone_capacity
    if fill:
        prime_volume(sim, volume, fill, block_size=1 * MiB)
    volume.fail_device(0)
    replacement = fresh_replacement(sim, devices[1], name="replacement0")
    with simulation_gc():
        report = rebuild(sim, volume, 0, replacement)
    return TtrPoint(system="raizn", fill_fraction=fill_fraction,
                    valid_bytes=fill, bytes_rebuilt=report.bytes_written,
                    ttr_seconds=report.duration)


def mdraid_ttr(fill_fraction: float, scale: ArrayScale = DEFAULT,
               seed: int = 0) -> TtrPoint:
    """mdraid resync time (constant in fill) at one fill fraction."""
    sim = Simulator()
    volume, devices = make_mdraid(sim, scale, seed=seed)
    fill = int(volume.capacity * fill_fraction)
    fill -= fill % (1 * MiB)
    if fill:
        prime_volume(sim, volume, fill, block_size=1 * MiB)
    volume.fail_device(0)
    replacement = ConventionalSSD(
        sim, name="replacement0", capacity_bytes=scale.conv_device_capacity,
        seed=seed + 99)
    with simulation_gc():
        report = volume.resync(0, replacement)
    return TtrPoint(system="mdraid", fill_fraction=fill_fraction,
                    valid_bytes=fill, bytes_rebuilt=report.bytes_written,
                    ttr_seconds=report.duration)


def ttr_sweep(fractions: Sequence[float] = (0.125, 0.25, 0.5, 0.75, 1.0),
              scale: ArrayScale = DEFAULT, seed: int = 0) -> List[TtrPoint]:
    """Figure 12: TTR vs valid data for both systems."""
    points = []
    for fraction in fractions:
        points.append(raizn_ttr(fraction, scale, seed))
        points.append(mdraid_ttr(fraction, scale, seed))
    return points
