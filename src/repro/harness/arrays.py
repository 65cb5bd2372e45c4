"""Standard scaled-down array configurations for the experiments.

The paper's testbed is five 2 TB devices with 1077 MiB zones; the
simulator runs the same *topology* (5 devices, D=4 + P=1, 64 KiB stripe
units) at a geometry scaled so experiments complete quickly, as recorded
in DESIGN.md.  Bandwidth/latency parameters are the paper's measured
device numbers, so throughput ratios are directly comparable.

The conventional array is sized to match the RAIZN array's usable
capacity, as §6.2 does ("the conventional SSDs are formatted with ...
capacity to match the usable capacity of the RAIZN volume").
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ..conv.device import ConventionalSSD
from ..mdraid.raid5 import MdraidVolume
from ..raizn.config import RaiznConfig
from ..raizn.volume import RaiznVolume
from ..sim import Simulator
from ..units import KiB, MiB
from ..zns.device import ZNSDevice


@dataclasses.dataclass(frozen=True)
class ArrayScale:
    """Geometry of one experiment array."""

    num_devices: int = 5
    num_zones: int = 32
    zone_capacity: int = 4 * MiB
    stripe_unit_bytes: int = 64 * KiB
    num_metadata_zones: int = 3

    @property
    def data_zones(self) -> int:
        return self.num_zones - self.num_metadata_zones

    @property
    def raizn_usable(self) -> int:
        """User-visible bytes of the RAIZN volume at this scale."""
        return (self.num_devices - 1) * self.data_zones * self.zone_capacity

    @property
    def conv_device_capacity(self) -> int:
        """Conventional device size matching RAIZN usable capacity."""
        return self.data_zones * self.zone_capacity

    def config(self, **overrides) -> RaiznConfig:
        return RaiznConfig(**{"num_data": self.num_devices - 1,
                              "stripe_unit_bytes": self.stripe_unit_bytes,
                              "num_metadata_zones": self.num_metadata_zones,
                              **overrides})


SMALL = ArrayScale(num_zones=16, zone_capacity=2 * MiB)
DEFAULT = ArrayScale()
LARGE = ArrayScale(num_zones=64, zone_capacity=8 * MiB)


def make_raizn(sim: Simulator, scale: ArrayScale = DEFAULT, seed: int = 0,
               array_uuid: Optional[bytes] = None,
               zone_reset_limit: Optional[int] = None,
               **overrides) -> Tuple[RaiznVolume, List[ZNSDevice]]:
    """A freshly formatted RAIZN array at ``scale``.

    ``array_uuid`` pins the formatted media for reproducible digests;
    ``zone_reset_limit`` is each device's erase budget per zone;
    ``overrides`` are further :class:`RaiznConfig` fields.
    """
    devices = [
        ZNSDevice(sim, name=f"zns{i}", num_zones=scale.num_zones,
                  zone_capacity=scale.zone_capacity,
                  zone_reset_limit=zone_reset_limit, seed=seed + i)
        for i in range(scale.num_devices)
    ]
    volume = RaiznVolume.create(sim, devices, scale.config(**overrides),
                                array_uuid=array_uuid)
    return volume, devices


def make_mdraid(sim: Simulator, scale: ArrayScale = DEFAULT,
                seed: int = 0) -> Tuple[MdraidVolume, List[ConventionalSSD]]:
    """A fresh mdraid RAID-5 array matching ``scale``'s usable capacity."""
    devices = [
        ConventionalSSD(sim, name=f"nvme{i}",
                        capacity_bytes=scale.conv_device_capacity,
                        seed=seed + i)
        for i in range(scale.num_devices)
    ]
    volume = MdraidVolume(sim, devices,
                          chunk_bytes=scale.stripe_unit_bytes)
    return volume, devices
