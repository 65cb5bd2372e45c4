"""Device-failure fault injection (paper §4.2, §6.2).

Thin orchestration over the volume-level failure APIs: fail a device,
replace it with a fresh one of the same geometry, and end-of-life zone
failures (READ_ONLY / OFFLINE transitions) on individual zones.
"""

from __future__ import annotations

from typing import Optional

from ..raizn.rebuild import RebuildReport, rebuild
from ..raizn.volume import RaiznVolume
from ..sim import Simulator
from ..zns.device import ZNSDevice


def fresh_replacement(sim: Simulator, template: ZNSDevice, name: str,
                      seed: int = 4242) -> ZNSDevice:
    """A blank device matching ``template``'s geometry."""
    return ZNSDevice(
        sim, name=name, num_zones=template.num_zones,
        zone_capacity=template.zone_capacity, zone_size=template.zone_size,
        model=template.model, max_open_zones=template.budget.max_open,
        max_active_zones=template.budget.max_active,
        atomic_write_bytes=template.atomic_write_bytes,
        zone_reset_limit=template.zone_reset_limit, seed=seed)


def fail_and_rebuild(sim: Simulator, volume: RaiznVolume, index: int,
                     replacement: Optional[ZNSDevice] = None,
                     seed: int = 4242) -> RebuildReport:
    """Fail device ``index``, replace it, and rebuild synchronously."""
    template = next(d for d in volume.devices if d is not None)
    volume.fail_device(index)
    if replacement is None:
        replacement = fresh_replacement(sim, template,
                                        name=f"replacement{index}",
                                        seed=seed)
    return rebuild(sim, volume, index, replacement)


def wear_out_zone(device: ZNSDevice, zone_index: int,
                  offline: bool = False) -> None:
    """Inject an end-of-life failure on one zone (§2.1 failure states)."""
    if offline:
        device.set_zone_offline(zone_index)
    else:
        device.set_zone_read_only(zone_index)
