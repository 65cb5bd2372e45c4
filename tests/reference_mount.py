"""A slow reference mount: how far each zone of a crash state derives.

``recovery.mount`` decides per zone where its write pointer lands, from
the survivors' media and the metadata logs alone.  This module answers
the same question with no heuristic, and with one input mount does not
have: the bytes the workload wrote (submitted, acked or not).  Per
logical zone it returns the longest prefix of those bytes whose every
4 KiB sector some *source* derives exactly:

* the unit's own valid bytes, where :func:`relocation.unit_sources`
  places them (a relocation unit's extent, or its device's media below
  the unit's first extent and below the write pointer);
* a surviving parity source XORed with the siblings' bytes at that
  offset, each sibling's own valid bytes as far as the source covers
  it, zeroes past them.  A parity source is a whole on-device parity
  unit, or the XOR of partial-parity entries that tile the stripe from
  its first byte (any prefix of the chain, a checkpoint or relocated
  parity entry included).

The written bytes only *accept* a source; nothing here repairs,
chooses or rolls back.  A sector whose every source needs a byte that
is unreadable (a missing or failed device, an offline zone, a latent
extent) is not derived.  :func:`within_tolerance` says whether a crash
state lost at most one unit per stripe offset to such faults: single
parity promises every acked byte back only then.
"""

from __future__ import annotations

import itertools
from functools import reduce
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

from repro.raizn.address import AddressMapper
from repro.raizn.config import RaiznConfig
from repro.raizn.metadata import (
    MetadataEntry,
    MetadataType,
    Superblock,
    decode_generation_block,
    decode_partial_parity,
)
from repro.raizn.relocation import RelocationStore, unit_sources
from repro.units import SECTOR_SIZE
from repro.zns.spec import ZoneState


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "little") ^
            int.from_bytes(b, "little")).to_bytes(len(a), "little")


class _Array:
    """The crash state as the reference reads it: geometry from a
    superblock, every log entry of the presented devices, the current
    generations and the relocation units they imply."""

    def __init__(self, presented: Sequence):
        self.devices = [dev if dev is not None and not dev.failed else None
                        for dev in presented]
        template = next(dev for dev in self.devices if dev is not None)
        superblock, self.entries = None, []
        for index, dev in enumerate(self.devices):
            if dev is None:
                continue
            logs = self._logs(dev)
            superblock = superblock or next(
                Superblock.from_entry(entry) for entry in logs
                if entry.mdtype is MetadataType.SUPERBLOCK)
            self.entries += [(index, entry) for entry in logs]
        self.config = config = RaiznConfig(
            num_data=superblock.num_data, num_parity=superblock.num_parity,
            stripe_unit_bytes=superblock.stripe_unit_bytes,
            num_metadata_zones=superblock.num_metadata_zones)
        self.su = config.stripe_unit_bytes
        self.num_data_zones = template.num_zones - config.num_metadata_zones
        self.phys_zone_size = template.zone_size
        self.mapper = AddressMapper(config, template.zone_capacity,
                                    self.num_data_zones)
        self.generation = [1] * self.num_data_zones
        for _device, entry in self._of(MetadataType.GENERATION):
            first, counters = decode_generation_block(entry)
            for zone, value in enumerate(counters, first):
                if zone < self.num_data_zones:
                    self.generation[zone] = max(self.generation[zone], value)
        self.relocations = RelocationStore(self.su)
        for device, entry in self._current(MetadataType.RELOCATED_SU):
            su_lba = entry.start_lba - entry.start_lba % self.su
            unit = self.relocations.unit_for(su_lba, device, 0)
            if entry.payload:
                unit.write(entry.start_lba, entry.payload)
        #: (zone, stripe) -> every current partial-parity entry, as
        #: (start LBA, end LBA, parity offset, delta).
        self.chains: Dict[Tuple[int, int], list] = {}
        width = self.mapper.stripe_width
        for _device, entry in self._current(MetadataType.PARTIAL_PARITY):
            zone = entry.start_lba // self.mapper.zone_capacity
            stripe = (entry.start_lba - self.mapper.zone_start(zone)) // width
            offset, delta = decode_partial_parity(entry)
            self.chains.setdefault((zone, stripe), []).append(
                (entry.start_lba, entry.end_lba, offset, bytes(delta)))
        # unit_sources reads these three names only.
        self.view = SimpleNamespace(config=config, mapper=self.mapper,
                                    relocations=self.relocations,
                                    relocated_parity={})

    @staticmethod
    def _logs(dev) -> List[MetadataEntry]:
        """Every entry of ``dev``'s metadata zones: the zones from the
        top down to where the first superblock met says they end."""
        entries, bottom = [], 0
        for index in range(dev.num_zones - 1, -1, -1):
            if index < bottom:
                break
            zone = dev.zones[index]
            found = MetadataEntry.scan(
                bytes(dev._media[zone.start:zone.write_pointer]))
            entries += found
            for entry in found:
                if entry.mdtype is MetadataType.SUPERBLOCK and not bottom:
                    bottom = dev.num_zones - \
                        Superblock.from_entry(entry).num_metadata_zones
        return entries

    def _of(self, mdtype: MetadataType):
        return [(device, entry) for device, entry in self.entries
                if entry.mdtype is mdtype]

    def _current(self, mdtype: MetadataType):
        for device, entry in self._of(mdtype):
            zone = entry.start_lba // self.mapper.zone_capacity
            if zone < self.num_data_zones and \
                    entry.generation == self.generation[zone]:
                yield device, entry

    # -- one stripe unit's bytes ---------------------------------------------

    def unit_media(self, device: int, zone: int, stripe: int):
        """``(bytes, readable end, unreadable sector indices)`` of the
        unit ``device`` holds for ``stripe``; None when the device or its
        zone cannot be read at all."""
        dev = self.devices[device]
        if dev is None or dev.zones[zone].state is ZoneState.OFFLINE:
            return None
        start = zone * self.phys_zone_size + stripe * self.su
        end = max(0, min(self.su, dev.zones[zone].write_pointer - start))
        data = bytes(dev._media[start:start + end])
        bad = set()
        for lo, hi in dev._bad_extents.get(zone, ()):
            for sector in range(self.su // SECTOR_SIZE):
                at = start + sector * SECTOR_SIZE
                if lo < at + SECTOR_SIZE and at < hi:
                    bad.add(sector)
        return data, end, bad

    def data_unit(self, zone: int, stripe: int, index: int):
        """Unit ``index``'s own valid bytes where :func:`unit_sources`
        places them, zeroes past them: ``(bytes, valid sector flags,
        unreadable sector indices)``."""
        layout = self.mapper.stripe_layout(zone, stripe)
        media = self.unit_media(layout.data_devices[index], zone, stripe)
        sectors = self.su // SECTOR_SIZE
        out, valid, bad = bytearray(self.su), [False] * sectors, set()
        for lo, hi, source in unit_sources(self.view, zone, stripe, index,
                                           0, self.su):
            span = range(lo // SECTOR_SIZE, hi // SECTOR_SIZE)
            if not isinstance(source, int):
                out[lo:hi] = source
                for sector in span:
                    valid[sector] = True
                continue
            if media is None:
                bad.update(span)
                continue
            data, end, unreadable = media
            hi = min(hi, source, end)
            out[lo:max(lo, hi)] = data[lo:hi]
            for sector in span:
                if sector * SECTOR_SIZE < hi:
                    valid[sector] = sector not in unreadable
                    if sector in unreadable:
                        bad.add(sector)
        return bytes(out), valid, bad

    def parity_sources(self, zone: int, stripe: int):
        """Every ``(covered bytes of the stripe, parity, unreadable
        sector indices)`` a surviving parity source offers."""
        layout = self.mapper.stripe_layout(zone, stripe)
        sources = []
        media = self.unit_media(layout.parity_device, zone, stripe)
        if media is not None and media[1] == self.su:
            sources.append((self.mapper.stripe_width, media[0], media[2]))
        stripe_lba = self.mapper.zone_start(zone) + \
            stripe * self.mapper.stripe_width
        edges = {}
        for start, end, offset, delta in self.chains.get((zone, stripe), ()):
            edges.setdefault(start, set()).add((end, offset, delta))
        seen, todo = set(), [(stripe_lba, bytes(self.su))]
        while todo:
            at, parity = todo.pop()
            if (at, parity) in seen:
                continue
            seen.add((at, parity))
            if at > stripe_lba:
                sources.append((at - stripe_lba, parity, set()))
            for end, offset, delta in edges.get(at, ()):
                padded = bytes(offset) + delta + \
                    bytes(self.su - offset - len(delta))
                todo.append((end, _xor(parity, padded)))
            assert len(seen) < 4096, "partial-parity tilings past any chain"
        return sources


def reference_frontiers(presented: Sequence, written: Sequence[bytes]
                        ) -> List[int]:
    """Per data zone, the longest prefix of ``written[zone]`` whose every
    4 KiB sector a source derives exactly (module docstring).
    ``presented`` lists the devices in array-slot order, None for a
    missing one, as mount is given them."""
    array = _Array(presented)
    su, width = array.su, array.mapper.stripe_width
    frontiers = []
    for zone in range(array.num_data_zones):
        data = bytes(written[zone]) if zone < len(written) else b""
        frontier = 0
        for stripe in range(-(-len(data) // width)):
            reached = _stripe_frontier(array, zone, stripe,
                                       data[stripe * width:
                                            (stripe + 1) * width])
            frontier = stripe * width + reached
            if reached < width:
                break
        frontiers.append(min(frontier, len(data)))
    return frontiers


def _stripe_frontier(array: _Array, zone: int, stripe: int,
                     want: bytes) -> int:
    """Bytes of ``stripe`` derived from its start, up to ``want``'s.

    A fixpoint: a sector derived once is a sibling byte every source may
    fold (parity over a prefix of the chain can rebuild one unit's
    sector, and the whole parity then another's at that offset)."""
    su = array.su
    units = [array.data_unit(zone, stripe, index)
             for index in range(array.config.num_data)]
    todo = []
    derived = set()
    for lba in range(0, len(want), SECTOR_SIZE):
        index, offset = divmod(lba, su)
        own, valid, _bad = units[index]
        sector = offset // SECTOR_SIZE
        if valid[sector] and own[offset:offset + SECTOR_SIZE] == \
                want[lba:lba + SECTOR_SIZE]:
            derived.add((index, sector))
        else:
            todo.append((index, sector))
    sources = array.parity_sources(zone, stripe) if todo else []
    while todo:
        found = [target for target in todo if any(
            _derives(units, derived, want, su, *target, *source)
            for source in sources)]
        if not found:
            break
        derived.update(found)
        todo = [target for target in todo if target not in derived]
    return min([index * su + sector * SECTOR_SIZE
                for index, sector in todo] + [len(want)])


def _derives(units, derived, want: bytes, su: int, index: int, sector: int,
             covered: int, parity: bytes, bad) -> bool:
    """Parity covering ``covered`` bytes of the stripe, XORed with one
    value of each sibling it covers (its own bytes where readable, the
    written ones where derived), is unit ``index``'s written ``sector``."""
    offset = sector * SECTOR_SIZE
    if index * su + offset + SECTOR_SIZE > covered or sector in bad:
        return False
    values = [{parity[offset:offset + SECTOR_SIZE]}]
    for other, (data, _valid, unreadable) in enumerate(units):
        if other == index or other * su + offset >= covered:
            continue
        choices = set()
        if sector not in unreadable:
            choices.add(data[offset:offset + SECTOR_SIZE])
        if (other, sector) in derived:
            at = other * su + offset
            choices.add(want[at:at + SECTOR_SIZE])
        if not choices:
            return False
        values.append(choices)
    at = index * su + offset
    target = want[at:at + SECTOR_SIZE]
    return any(reduce(_xor, combo) == target
               for combo in itertools.product(*values))


def within_tolerance(presented: Sequence, written: Sequence[bytes]) -> bool:
    """At most one unit of each written stripe is unreadable at any
    written sector offset: single parity's fault budget (a crash's lost
    cache is not a fault)."""
    array = _Array(presented)
    su, width = array.su, array.mapper.stripe_width
    for zone in range(array.num_data_zones):
        length = len(written[zone]) if zone < len(written) else 0
        for stripe in range(-(-length // width)):
            layout = array.mapper.stripe_layout(zone, stripe)
            fill = min(width, length - stripe * width)
            lost = [0] * (min(su, fill) // SECTOR_SIZE)
            units = [(layout.parity_device, min(su, fill))] + [
                (device, fill - index * su)
                for index, device in enumerate(layout.data_devices)]
            for device, reach in units:
                media = array.unit_media(device, zone, stripe)
                unreadable = range(len(lost)) if media is None else media[2]
                for sector in unreadable:
                    if sector * SECTOR_SIZE < reach:
                        lost[sector] += 1
            if lost and max(lost) > 1:
                return False
    return True


def frontier_violations(volume, frontiers: List[int]) -> List[str]:
    """Zones of a mounted ``volume`` whose write pointer passes the
    reference's frontier."""
    violations = []
    for desc, frontier in zip(volume.zone_descs, frontiers):
        wp = desc.write_pointer - desc.start_lba
        if wp > frontier:
            violations.append(
                f"zone {desc.zone}: write pointer {wp:#x} past the "
                f"reference frontier {frontier:#x}")
    return violations
