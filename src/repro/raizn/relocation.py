"""Relocated stripe units (§5.2, Figure 1).

After an unrecoverable partial stripe write, RAIZN rolls the logical zone
write pointer back to hide the corrupted stripe unit(s).  The stale data
already persisted at higher PBAs cannot be overwritten, so future writes
to those LBAs are redirected ("relocated") to the affected device's
metadata zone.  Relocations are uncommon, so relocated stripe units are
cached in memory in addition to being persisted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    from .volume import RaiznVolume


class RelocatedUnit:
    """The in-memory cache of one relocated stripe unit."""

    __slots__ = ("su_lba", "device", "su_size", "buffer", "extents")

    def __init__(self, su_lba: int, device: int, su_size: int):
        self.su_lba = su_lba
        self.device = device
        self.su_size = su_size
        self.buffer = bytearray(su_size)
        #: Sorted, disjoint (start, end) byte intervals, SU-relative.
        self.extents: List[Tuple[int, int]] = []

    def write(self, lba: int, data: bytes) -> None:
        """Absorb a redirected write covering ``[lba, lba+len)``."""
        offset = lba - self.su_lba
        end = offset + len(data)
        if offset < 0 or end > self.su_size:
            raise ValueError("write outside the relocated stripe unit")
        memoryview(self.buffer)[offset:end] = data
        self._add_extent(offset, end)

    def _add_extent(self, start: int, end: int) -> None:
        merged = []
        for lo, hi in self.extents:
            if hi < start or lo > end:
                merged.append((lo, hi))
            else:
                start, end = min(start, lo), max(end, hi)
        merged.append((start, end))
        merged.sort()
        self.extents = merged

    def read(self, lba: int, length: int) -> bytes:
        """Buffer bytes ``[lba, lba+length)``, in its extents or not."""
        offset = lba - self.su_lba
        return bytes(self.buffer[offset:offset + length])


def unit_sources(volume: RaiznVolume, zone: int, stripe: int,
                 index: Optional[int], lo: int, hi: int) -> List[tuple]:
    """Where bytes ``[lo, hi)`` of one stripe unit live (DESIGN decision
    16): ordered ``(lo, hi, source)`` pieces tiling the range, in unit
    offsets; ``index`` None is the stripe's parity unit.  A source is
    ``bytes`` (a relocation-unit extent, or relocated parity) or an
    ``int`` ``end``: the unit's device, its bytes valid below offset
    ``end`` and below its write pointer, zeroes past either.  ``end`` is
    the first extent's start (0 if none): an armed unit takes every later
    write (``WritePath._emit_data``), so its device's bytes past that are
    stale; a zone worn out mid-unit keeps the prefix below it.
    """
    su = volume.config.stripe_unit_bytes
    if index is None:
        parity = volume.relocated_parity.get((zone, stripe))
        return [(lo, hi, su if parity is None else parity[lo:hi])]
    unit = volume.relocations.lookup(volume.mapper.su_lba(zone, stripe,
                                                          index))
    if unit is None:
        return [(lo, hi, su)]
    end = unit.extents[0][0] if unit.extents else 0
    pieces = []
    for start, stop in unit.extents:
        start, stop = max(start, lo), min(stop, hi)
        if start < stop:
            if lo < start:
                pieces.append((lo, start, end))
            pieces.append((start, stop,
                           unit.read(unit.su_lba + start, stop - start)))
            lo = stop
    if lo < hi:
        pieces.append((lo, hi, end))
    return pieces


class RelocationStore:
    """All relocated stripe units of the volume, keyed by SU start LBA."""

    def __init__(self, su_size: int):
        self.su_size = su_size
        self._units: Dict[int, RelocatedUnit] = {}
        #: Relocations per (device, physical zone), for the rebuild
        #: threshold of §5.2.
        self.per_phys_zone: Dict[Tuple[int, int], int] = {}

    def unit_for(self, su_lba: int, device: int,
                 phys_zone: int) -> RelocatedUnit:
        """The unit for ``su_lba``, creating (and counting) it if new."""
        unit = self._units.get(su_lba)
        if unit is None:
            unit = RelocatedUnit(su_lba, device, self.su_size)
            self._units[su_lba] = unit
            key = (device, phys_zone)
            self.per_phys_zone[key] = self.per_phys_zone.get(key, 0) + 1
        return unit

    def lookup(self, su_lba: int) -> Optional[RelocatedUnit]:
        return self._units.get(su_lba)

    def __contains__(self, su_lba: int) -> bool:
        return su_lba in self._units

    def units(self) -> List[RelocatedUnit]:
        return [self._units[k] for k in sorted(self._units)]

    def units_on_device(self, device: int) -> List[RelocatedUnit]:
        return [u for u in self.units() if u.device == device]

    def drop_zone(self, zone_start_lba: int, zone_capacity: int) -> None:
        """Forget relocations inside a logical zone (after its reset).

        The volume must call :meth:`rebuild_counters` afterwards to refresh
        the per-physical-zone relocation counts; resets are rare enough
        that recomputing from scratch is fine.
        """
        self.discard([lba for lba in self._units
                      if zone_start_lba <= lba < zone_start_lba + zone_capacity])

    def discard(self, su_lbas: Iterable[int]) -> None:
        """Forget the units starting at ``su_lbas`` (healed in place);
        like :meth:`drop_zone`, follow with :meth:`rebuild_counters`."""
        for lba in su_lbas:
            self._units.pop(lba, None)

    def rebuild_counters(self, phys_zone_of) -> None:
        """Recompute per-physical-zone counters; ``phys_zone_of(unit)->int``."""
        self.per_phys_zone.clear()
        for unit in self._units.values():
            key = (unit.device, phys_zone_of(unit))
            self.per_phys_zone[key] = self.per_phys_zone.get(key, 0) + 1

    def __len__(self) -> int:
        return len(self._units)
