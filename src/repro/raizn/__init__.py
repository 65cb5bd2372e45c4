"""RAIZN: the paper's contribution — a RAID-5-style logical volume manager
exposing a single ZNS device over an array of ZNS SSDs.

The gray-failure defense exports: :class:`DeviceHealth` is one device's
latency health score (EWMA distributions + slow-outlier scoring, driving
hedged reads, demotion, and slow eviction — all gated by
``RaiznConfig.failslow_protection``); :class:`HealthStats` the volume's
cumulative error/healing/hedging counters; and
:func:`run_health_maintenance` the sweep feeding slow-evicted devices
into the standard rebuild flow.
"""

from .address import AddressMapper, StripeLocation
from .config import RaiznConfig
from .maintenance import (
    HealthSweepReport,
    ScrubReport,
    needs_generation_maintenance,
    rewrite_physical_zone,
    run_generation_maintenance,
    run_health_maintenance,
    run_scrub,
    scrub_process,
    slow_evicted_devices,
    zones_needing_rewrite,
)
from .metadata import MetadataEntry, MetadataType, Superblock
from .parity import stripe_parity, xor_buffers, xor_into
from .rebuild import RebuildReport, rebuild, rebuild_process
from .recovery import mount, mount_process
from .relocation import RelocationStore
from .stripebuf import StripeBuffer
from .volume import DeviceHealth, HealthStats, RaiznVolume

__all__ = [
    "AddressMapper",
    "StripeLocation",
    "RaiznConfig",
    "MetadataEntry",
    "MetadataType",
    "Superblock",
    "stripe_parity",
    "xor_buffers",
    "xor_into",
    "RebuildReport",
    "rebuild",
    "rebuild_process",
    "mount",
    "mount_process",
    "RelocationStore",
    "StripeBuffer",
    "DeviceHealth",
    "HealthStats",
    "RaiznVolume",
    "needs_generation_maintenance",
    "rewrite_physical_zone",
    "run_generation_maintenance",
    "zones_needing_rewrite",
    "ScrubReport",
    "run_scrub",
    "scrub_process",
    "HealthSweepReport",
    "run_health_maintenance",
    "slow_evicted_devices",
]
