"""Logical↔physical address translation (paper §4.1).

Each LBA is statically mapped to a device and PBA by arithmetic alone, so
reads need no lookups.  Data is striped RAID-5 style with the parity
device rotating every stripe; the rotation also folds in the logical zone
index so that the device holding a zone's *first* stripe unit differs for
successive zones — the property §5.2 relies on to spread zone-reset-log
write amplification uniformly.

Terminology (matching the paper):

* LBA — byte offset in the RAIZN logical volume address space.
* PBA — byte offset in one physical device's address space.
* stripe unit (SU) — the contiguous chunk each device contributes to a
  stripe (64 KiB by default).
* logical zone — one physical zone per device; user capacity D zones.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from ..errors import InvalidAddressError
from .config import RaiznConfig


@dataclasses.dataclass(frozen=True)
class StripeLocation:
    """Where one logical stripe lives across the array.

    The layout depends on ``(zone + stripe) mod num_devices`` only, so the
    mapper shares one instance per rotation across all zones and stripes.
    """

    parity_device: int   # device holding this stripe's parity SU
    data_devices: Tuple[int, ...]  # device of data SU 0..D-1, in order


class AddressMapper:
    """Pure-arithmetic translation between LBAs and device PBAs."""

    def __init__(self, config: RaiznConfig, physical_zone_capacity: int,
                 num_data_zones: int):
        self.config = config
        self.phys_zone_capacity = physical_zone_capacity
        self.phys_zone_size = physical_zone_capacity  # simulator: size == cap
        self.num_data_zones = num_data_zones
        self.su = config.stripe_unit_bytes
        self.stripe_width = config.stripe_width_bytes
        self.zone_capacity = config.logical_zone_capacity(physical_zone_capacity)
        #: Total user-visible bytes.
        self.logical_capacity = self.zone_capacity * num_data_zones
        self.stripes_per_zone = config.stripes_per_zone(physical_zone_capacity)
        # One StripeLocation per parity rotation; stripe_layout() is on the
        # per-stripe-unit write path, so it must not allocate.
        n = config.num_devices
        self._layouts = tuple(
            StripeLocation(
                parity_device=(n - 1 - rotation) % n,
                data_devices=tuple(((n - 1 - rotation) % n + 1 + i) % n
                                   for i in range(config.num_data)))
            for rotation in range(n))

    # -- logical geometry ----------------------------------------------------

    def zone_of(self, lba: int) -> int:
        """Logical zone index containing ``lba``."""
        if not 0 <= lba < self.logical_capacity:
            raise InvalidAddressError(f"LBA {lba:#x} outside volume")
        return lba // self.zone_capacity

    def zone_start(self, zone: int) -> int:
        """First LBA of logical zone ``zone``."""
        return zone * self.zone_capacity

    # -- stripe layout ---------------------------------------------------------

    @property
    def num_rotations(self) -> int:
        """Period of the parity rotation: layouts repeat every N stripes.

        Two stripes with the same ``(stripe + zone) % num_rotations``
        phase share their device assignment — the invariant behind the
        write path's phase-keyed plan cache.
        """
        return len(self._layouts)

    def stripe_layout(self, zone: int, stripe: int) -> StripeLocation:
        """Device assignment for one stripe (left-symmetric rotation)."""
        return self._layouts[(stripe + zone) % len(self._layouts)]

    # -- LBA -> device/PBA ----------------------------------------------------------

    def lba_to_pba(self, lba: int) -> Tuple[int, int]:
        """Map one LBA to ``(device_index, pba)``."""
        zone = self.zone_of(lba)
        offset = lba - self.zone_start(zone)
        stripe = offset // self.stripe_width
        in_stripe = offset % self.stripe_width
        su_index = in_stripe // self.su
        in_su = in_stripe % self.su
        layout = self.stripe_layout(zone, stripe)
        device = layout.data_devices[su_index]
        pba = zone * self.phys_zone_size + stripe * self.su + in_su
        return device, pba

    def su_lba(self, zone: int, stripe: int, su_index: int) -> int:
        """First LBA of data stripe unit ``su_index`` in a stripe."""
        return (self.zone_start(zone) + stripe * self.stripe_width
                + su_index * self.su)

    def split_extent(self, lba: int, length: int) -> List[Tuple[int, int, int]]:
        """Split ``[lba, lba+length)`` into per-device contiguous pieces.

        Returns ``[(device, pba, length), ...]`` in LBA order; each piece
        stays within one stripe unit, the granularity at which contiguity
        on a single device is guaranteed.
        """
        if length <= 0:
            raise InvalidAddressError(f"non-positive extent length {length}")
        pieces: List[Tuple[int, int, int]] = []
        end = lba + length
        while lba < end:
            zone = self.zone_of(lba)
            pieces += self.split_in_zone(zone, lba, end)
            lba = (zone + 1) * self.zone_capacity
        return pieces

    def split_in_zone(self, zone: int, lba: int,
                      end: int) -> List[Tuple[int, int, int]]:
        """:meth:`split_extent` for a caller that knows ``lba`` is in
        logical zone ``zone``: the pieces of ``[lba, end)`` up to the end
        of that zone, where a zone-crossing caller carries on with
        ``zone + 1``."""
        su = self.su
        width = self.stripe_width
        base = zone * self.phys_zone_size
        zone_start = zone * self.zone_capacity
        offset = lba - zone_start
        stop = min(end - zone_start, self.zone_capacity)
        pieces = []
        while offset < stop:
            stripe, in_stripe = divmod(offset, width)
            su_index, in_su = divmod(in_stripe, su)
            take = min(stop - offset, su - in_su)
            pieces.append((
                self.stripe_layout(zone, stripe).data_devices[su_index],
                base + stripe * su + in_su, take))
            offset += take
        return pieces
