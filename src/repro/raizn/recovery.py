"""Mount-time crash recovery (paper §4.3, §5.1–§5.3).

``mount`` reassembles a :class:`~repro.raizn.volume.RaiznVolume` from its
devices after a clean shutdown, a power loss, or a device failure:

1. read each device's metadata zones once, from the top down: the first
   superblock met gives the device's array slot and where its metadata
   zones end;
2. ingest every log entry read (swap zones holding partially-completed
   GC checkpoints included), resolving duplicates by generation counter;
3. redo the write-back of a §5.2 zone rewrite cut after its copy was
   durable, and replay valid zone-reset write-ahead logs;
4. walk each logical zone's stripes once: a data unit reaches its valid
   bytes, or as far as redundancy rebuilds it when they start on a
   missing device; a unit short of the end is a hole, which a healthy
   mount repairs from (partial) parity or else rolls the write pointer
   back to, arming stripe-unit relocation for the hidden region, and
   which ends the zone on a degraded mount; a complete stripe's torn
   parity is completed in place, or recorded when a device is missing;
5. rebuild persistence bitmaps and the in-memory stripe buffers of
   incomplete tail stripes (a missing device's data from redundancy).
   One reader serves every stripe-unit read of steps 4–5 and holds the
   bytes of the stripe it read last, so no unit is read twice;
6. compact the metadata zones so the volume restarts with a clean,
   checkpointed metadata state.  Mount ends there: the §5.2 threshold
   rewrite is maintenance on the mounted volume.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple

from ..block.bio import Bio, Op
from ..errors import (
    DataLossError,
    DeviceFailedError,
    MediaError,
    RecoveryError,
)
from ..sim import Simulator
from ..zns.device import ZNSDevice
from ..zns.spec import ZoneState
from .config import RaiznConfig
from .maintenance import (
    OP_GEN_MAINTENANCE,
    OP_ZONE_REWRITE_COPIED,
    OP_ZONE_REWRITE_DONE,
    check_stripe_parity,
    decode_rewrite_wal,
    needs_generation_maintenance,
    run_generation_maintenance,
    write_back,
)
from .mdzone import MetadataRole
from .metadata import (
    MetadataEntry,
    MetadataType,
    Superblock,
    decode_generation_block,
    decode_op_wal,
    decode_partial_parity,
    decode_zone_reset,
    encode_relocated_su,
)
from .parity import stripe_parity, xor_into
from .relocation import unit_sources
from .stripebuf import StripeBuffer
from .volume import RaiznVolume


def _contiguous_coverage(spans, start: int) -> int:
    """End of the gap-free run of ``(lo, hi)`` spans reaching back to
    ``start``."""
    end = start
    for lo, hi in sorted(spans):
        if lo > end:
            break
        end = max(end, hi)
    return end


def _lba_spans(entries: List[MetadataEntry]):
    return [(entry.start_lba, entry.end_lba) for entry in entries]


#: RaiznConfig fields the superblock persists; mount reads them back.
_PERSISTED_GEOMETRY = ("num_data", "num_parity", "stripe_unit_bytes",
                       "num_metadata_zones")


def mount(sim: Simulator, devices: List[Optional[ZNSDevice]],
          **config_overrides) -> RaiznVolume:
    """Mount an existing RAIZN array; drains the event loop.

    ``devices`` may be given in any order; a failed/missing device is
    passed as ``None`` (or simply marked failed), producing a degraded
    volume that can later be repaired with ``rebuild``.

    ``config_overrides`` sets the user-modifiable (non-persisted) knobs,
    e.g. ``relocation_rebuild_threshold`` or ``failslow_protection``; the
    geometry comes from the superblock and cannot be overridden.
    """
    return sim.run_process(mount_process(sim, devices, **config_overrides))


def mount_process(sim: Simulator, devices: List[Optional[ZNSDevice]],
                  **config_overrides):
    """Process-style body of :func:`mount`."""
    recovery = _Recovery(sim, devices, config_overrides)
    yield from recovery.run()
    return recovery.volume


class _Recovery:
    """One mount attempt; holds all intermediate state."""

    def __init__(self, sim: Simulator, devices: List[Optional[ZNSDevice]],
                 config_overrides: Optional[dict] = None):
        self.sim = sim
        self.raw_devices = devices
        self.config_overrides = config_overrides or {}
        for name in _PERSISTED_GEOMETRY:
            if name in self.config_overrides:
                raise RecoveryError(
                    f"mount cannot override {name}: the superblock "
                    "persists it")
        self.volume: Optional[RaiznVolume] = None
        #: Every scanned log entry by type, as (device, entry) in slot
        #: order, then ascending zone within a device.
        self.entries: Dict[MetadataType, List[Tuple[int, MetadataEntry]]] = {
            mdtype: [] for mdtype in MetadataType}

    # -- top level ------------------------------------------------------------

    def run(self):
        ordered, superblock, scans = yield from self._scan_devices()
        config = RaiznConfig(**{name: getattr(superblock, name)
                                for name in _PERSISTED_GEOMETRY},
                             **self.config_overrides)
        self.volume = volume = RaiznVolume(self.sim, ordered, config,
                                           array_uuid=superblock.array_uuid)
        self._ingest_metadata(scans)
        self._ingest_generation()
        self._sync_physical_descriptors()
        partial_parity = self._ingest_partial_parity()
        self._ingest_relocations()
        yield from self._resume_interrupted_rewrites(scans)
        reset_logged = self._reset_logged_zones()
        for zone in range(volume.num_data_zones):
            yield from self._recover_zone(zone, partial_parity.get(zone, {}),
                                          zone in reset_logged)
        yield from self._audit_relocated_parity(partial_parity)
        yield from self._flush_repairs()
        self._bump_empty_generations()
        volume.zoneops.budget.recount()
        yield from self._finish_metadata()

    # -- metadata scan ------------------------------------------------------------

    def _scan_devices(self):
        """Scan every presented device; returns the devices by array slot,
        the superblock, and the scans in slot order."""
        found = []
        for dev in self.raw_devices:
            if dev is None:
                continue
            try:
                found.append((dev, *(yield from self._scan_device(dev))))
            except DeviceFailedError:
                # Present but failed (``fail_device(remove=False)``) or
                # failing mid-scan: mount degraded, as if it were missing,
                # rather than turn a within-tolerance fault into an outage.
                continue
        if not found:
            raise RecoveryError("no device carries a RAIZN superblock")
        reference = found[0][1]
        width = reference.num_data + reference.num_parity
        if len(found) < width - reference.num_parity:
            raise DataLossError(
                f"only {len(found)} of {width} devices present; beyond "
                "parity tolerance")
        ordered: List[Optional[ZNSDevice]] = [None] * width
        for dev, superblock, _zones in found:
            if superblock.array_uuid != reference.array_uuid:
                raise RecoveryError(
                    f"device {dev.name} belongs to a different array")
            if ordered[superblock.device_index] is not None:
                raise RecoveryError(
                    f"duplicate device index {superblock.device_index}")
            ordered[superblock.device_index] = dev
        found.sort(key=lambda scan: scan[1].device_index)
        return ordered, reference, found

    @staticmethod
    def _scan_device(dev: ZNSDevice):
        """Read ``dev``'s metadata zones from the top down, each once.

        Metadata zones are the device's last ``num_metadata_zones``, and
        the general one always holds a superblock (written at format time,
        re-checkpointed by every metadata GC): the first superblock met
        says where the scan stops.  Returns it and, top zone first,
        ``(zone index, entries, bytes read)`` of each zone read.
        """
        superblock, zones = None, []
        for index in range(dev.num_zones - 1, -1, -1):
            if superblock is not None and \
                    index < dev.num_zones - superblock.num_metadata_zones:
                break
            info = dev.zone_info(index)
            written = info.write_pointer - info.start
            data = b""
            if written:
                data = (yield dev.submit(Bio.read(info.start, written))).result
            entries = MetadataEntry.scan(data)
            zones.append((index, entries, data))
            superblock = superblock or next(
                (Superblock.from_entry(entry) for entry in entries
                 if entry.mdtype is MetadataType.SUPERBLOCK), None)
        if superblock is None:
            raise RecoveryError(f"no superblock found on {dev.name}")
        return superblock, zones

    def _ingest_metadata(self, scans) -> None:
        """File every scanned entry by type, in slot order and then
        ascending zone, and mirror each metadata zone's fill (bytes that
        do not all parse end in a torn tail)."""
        for _dev, superblock, zones in scans:
            index = superblock.device_index
            mdz = self.volume.mdzones[index]
            for zone_index, entries, data in reversed(zones):
                for entry in entries:
                    self.entries[entry.mdtype].append((index, entry))
                mdz.used[zone_index] = len(data)
                if sum(entry.total_bytes for entry in entries) < len(data):
                    mdz.torn.add(zone_index)

    def _current(self, zone: int, entry: MetadataEntry) -> bool:
        """``entry`` concerns data zone ``zone`` and was logged in its
        current generation (an older one's zone was reset since)."""
        volume = self.volume
        return zone < volume.num_data_zones and \
            entry.generation == volume.generation[zone]

    def _current_by_lba(self, mdtype: MetadataType):
        """``(device, entry, zone)`` of every current entry of ``mdtype``,
        a type whose start LBA names its zone."""
        for device, entry in self.entries[mdtype]:
            zone = entry.start_lba // self.volume.zone_capacity
            if self._current(zone, entry):
                yield device, entry, zone

    def _ingest_generation(self) -> None:
        """Componentwise max over all persisted generation blocks.

        Counters only ever increase, so the maximum of every replica is
        exactly the newest persisted value for each zone.
        """
        volume = self.volume
        for _device, entry in self.entries[MetadataType.GENERATION]:
            first_zone, counters = decode_generation_block(entry)
            for zone, value in enumerate(counters, first_zone):
                if zone < volume.num_data_zones:
                    volume.generation[zone] = max(volume.generation[zone],
                                                  value)

    def _sync_physical_descriptors(self) -> None:
        volume = self.volume
        for index, dev in enumerate(volume.devices):
            if dev is None:
                continue
            for info in dev.report_zones():
                pdesc = volume.phys[index][info.index]
                pdesc.write_pointer = info.write_pointer
                pdesc.state = info.state

    def _ingest_partial_parity(self) -> Dict[int, Dict[int, List[MetadataEntry]]]:
        """Group generation-valid partial parity by (zone, stripe).

        Applies the paper's duplicate rule: a checkpointed entry whose LBA
        range overlaps a normal entry for the same stripe is discarded
        (§4.3) — while the normal entries still reach as far as it does.
        """
        volume = self.volume
        width = volume.mapper.stripe_width
        grouped: Dict[int, Dict[int, List[MetadataEntry]]] = {}
        for _device, entry, zone in self._current_by_lba(
                MetadataType.PARTIAL_PARITY):
            stripe, in_stripe = divmod(
                entry.start_lba - zone * volume.zone_capacity, width)
            if in_stripe == 0 and entry.end_lba - entry.start_lba == width:
                # A whole-stripe entry is the cumulative *relocated
                # parity* shape (logged when a completed stripe's parity
                # SU could not be written in place, and re-emitted by the
                # metadata-GC checkpoint).  It is self-contained full
                # parity, not a delta: folding it into the delta chain
                # would double-count any surviving deltas, and the §4.3
                # duplicate rule below would wrongly discard the
                # checkpointed copy whenever one delta survives.  Route
                # it to the relocated-parity map the read path prefers.
                offset, payload = decode_partial_parity(entry)
                if offset == 0 and \
                        len(payload) == volume.config.stripe_unit_bytes:
                    volume.relocated_parity[(zone, stripe)] = payload
                    continue
            grouped.setdefault(zone, {}).setdefault(stripe, []).append(entry)
        for zone, zone_map in grouped.items():
            for stripe, entries in zone_map.items():
                normals = [e for e in entries if not e.checkpoint]
                ckpts = [e for e in entries if e.checkpoint]
                if not normals or not ckpts:
                    continue
                last = max(ckpts, key=lambda e: e.end_lba)
                if _contiguous_coverage(
                        _lba_spans(normals), zone * volume.zone_capacity
                        + stripe * width) < last.end_lba:
                    # The deltas the checkpoint stands in for went with the
                    # reclaimed zone, and it already holds the one appended
                    # behind it (the append that found the zone full): the
                    # checkpoint is the chain's head, not the duplicate.
                    zone_map[stripe] = [last] + [
                        n for n in normals if n.start_lba >= last.end_lba]
                    continue
                zone_map[stripe] = normals + [
                    ckpt for ckpt in ckpts if not any(
                        ckpt.start_lba < n.end_lba and n.start_lba < ckpt.end_lba
                        for n in normals)]
        return grouped

    def _ingest_relocations(self) -> None:
        volume = self.volume
        su = volume.config.stripe_unit_bytes
        for device, entry, zone in self._current_by_lba(
                MetadataType.RELOCATED_SU):
            su_lba = entry.start_lba - (entry.start_lba % su)
            unit = volume.relocations.unit_for(su_lba, device, zone)
            if entry.payload:
                unit.write(entry.start_lba, entry.payload)
            volume.zone_descs[zone].has_relocations = True

    def _reset_logged_zones(self) -> set:
        """Data zones with a current §5.2 zone-reset write-ahead log."""
        logged = set()
        for _device, entry in self.entries[MetadataType.ZONE_RESET_LOG]:
            zone, _reset_pointer = decode_zone_reset(entry)
            if self._current(zone, entry):
                logged.add(zone)
        return logged

    # -- per-zone recovery ---------------------------------------------------------------

    def _zone_extents(self, zone: int) -> List[Optional[int]]:
        """Written bytes in each device's physical zone (None if missing)."""
        volume = self.volume
        alive = volume._alive_devices()
        return [volume.phys[index][zone].write_pointer
                - zone * volume.phys_zone_size if index in alive else None
                for index in range(volume.config.num_devices)]

    def _recover_zone(self, zone: int,
                      partial_parity: Dict[int, List[MetadataEntry]],
                      reset_logged: bool):
        volume = self.volume
        desc = volume.zone_descs[zone]
        extents = self._zone_extents(zone)   # a missing device's is None
        if reset_logged and any(extents):
            # §5.2: a valid reset log plus a non-empty zone means the
            # reset was interrupted; complete it now.
            yield self.sim.all_of(volume.zoneops.members(zone, Op.ZONE_RESET))
            volume.generation[zone] += 1
            desc.reset()
            return

        if not any(extents) and (reset_logged or (
                not partial_parity and not desc.has_relocations)):
            # Nothing in place: a logged reset whose member resets all
            # landed, or nothing in the partial-parity log or relocated
            # either.  A zone whose data sits only in the logs (its one
            # unit on the lost device, or every member worn out) goes the
            # long way.
            desc.reset()
            return

        state = _ZoneContent(volume, zone, extents, partial_parity)
        yield from state.analyze()
        desc.write_pointer = state.logical_wp
        if state.has_relocation_conflicts:
            desc.has_relocations = True
        if desc.write_pointer == desc.start_lba:
            desc.state = ZoneState.EMPTY
        elif desc.write_pointer == desc.writable_end and all(
                volume.phys[index][zone].state is ZoneState.FULL
                for index in volume._alive_devices()):
            desc.state = ZoneState.FULL
        else:
            desc.state = ZoneState.CLOSED
        yield from state.rebuild_tail_buffer(desc)
        if desc.written_bytes:
            # After the tail rebuild (which may roll the zone further back
            # over a torn tail SU).  Full SUs only: the recovered partial
            # tail SU is durable now, but a post-mount write can extend it
            # in the device cache and a set bit would go stale (see
            # writepath._WriteJoin.flushed).
            desc.persistence.mark_up_to(desc.su_index_of(desc.write_pointer))

    def _bump_empty_generations(self) -> None:
        """§4.3: every empty zone's counter is incremented at mount time."""
        volume = self.volume
        for desc in volume.zone_descs:
            if desc.write_pointer == desc.start_lba:
                volume.generation[desc.zone] += 1

    def _audit_relocated_parity(
            self, partial_parity: Dict[int, Dict[int, List[MetadataEntry]]]):
        """Verify on-device parity of complete stripes in remapped zones.

        After a rollback recovery, the parity PBAs of re-filled stripes
        may hold stale pre-crash data that ZNS forbids overwriting; their
        true parity lives only in partial-parity logs.  Recompute the
        parity of every complete stripe in a relocation-flagged zone from
        its (relocation-aware) data and record mismatches in the
        in-memory relocated-parity map, which the metadata compaction
        below persists.  A degraded mount cannot recompute (reads
        themselves depend on parity) and reads the logs instead.
        """
        volume = self.volume
        if len(volume._alive_devices()) < len(volume.devices):
            self._relocated_parity_from_logs(partial_parity)
            return
        su = volume.config.stripe_unit_bytes
        for desc in volume.zone_descs:
            if not desc.has_relocations:
                continue
            for stripe in range(desc.written_bytes // desc.stripe_width):
                # A parity unit not written in full, or with a latent media
                # error, is a mismatch too: the recomputed parity is
                # recorded rather than the mount failed.
                parity, _error, matches = yield from check_stripe_parity(
                    volume, desc, stripe, lambda device, pba: volume.phys[
                        device][desc.zone].write_pointer >= pba + su)
                if not matches:
                    volume.relocated_parity[(desc.zone, stripe)] = parity

    def _relocated_parity_from_logs(
            self, partial_parity: Dict[int, Dict[int, List[MetadataEntry]]]
    ) -> None:
        """Degraded mount: the full parity of every complete stripe whose
        completing write logged its delta, in the zones the healthy audit
        recomputes — a rollback can have left their parity SUs stale (a
        FUA write logs one too, and a torn parity SU is handled by
        ``_settle_parity``).  The XOR of the stripe's deltas is
        its true parity (DESIGN.md decision 2).  A chain with a gap cannot
        give it, and the missing device's unit of that stripe is lost: say
        so rather than serve it from the stale copy."""
        volume = self.volume
        width = volume.mapper.stripe_width
        for zone, stripes in partial_parity.items():
            desc = volume.zone_descs[zone]
            if not desc.has_relocations:
                continue
            for stripe, entries in stripes.items():
                stripe_end = desc.start_lba + (stripe + 1) * width
                if stripe_end > desc.write_pointer or \
                        max(e.end_lba for e in entries) < stripe_end:
                    continue
                if _contiguous_coverage(
                        _lba_spans(entries), stripe_end - width) < stripe_end:
                    if (zone, stripe) in volume.relocated_parity:
                        continue
                    raise DataLossError(
                        f"zone {zone} stripe {stripe}: relocated parity "
                        "not recoverable from its partial-parity log")
                parity = bytearray(volume.config.stripe_unit_bytes)
                for entry in entries:
                    offset, delta = decode_partial_parity(entry)
                    xor_into(parity, delta, offset)
                volume.relocated_parity[(zone, stripe)] = bytes(parity)

    def _resume_interrupted_rewrites(self, scans):
        """Before zone analysis, redo the §5.2 write-back of each rewrite
        whose current ``REWRITE_COPIED`` has no ``REWRITE_DONE`` after it in
        its metadata zone, from the staged copy the scan read (a staging
        zone holding less was reset once the write-back was durable; an
        entry naming none staged in the format-time first swap zone).
        Compaction resets the zone holding the entry."""
        volume = self.volume
        for _dev, superblock, zones in scans:
            index, pending = superblock.device_index, {}
            for holder, entries, _data in reversed(zones):
                for entry in entries:
                    if entry.mdtype is not MetadataType.OP_WAL:
                        continue
                    op, _, zone, length, staging = decode_rewrite_wal(entry)
                    if op == OP_ZONE_REWRITE_DONE:
                        pending.pop(zone, None)
                    elif op == OP_ZONE_REWRITE_COPIED and \
                            self._current(zone, entry):
                        pending[zone] = (holder, length, staging)
            mdz = volume.mdzones[index]
            staged = {zone_index: data for zone_index, _, data in zones}
            for zone, (holder, length, staging) in sorted(pending.items()):
                mdz.torn.add(holder)
                copy = staged.get(staging or mdz.swap_zones[0], b"")[:length]
                if len(copy) == length:
                    yield from write_back(volume, index, zone, bytes(copy))

    def _flush_repairs(self):
        """Make every repair patch durable before metadata finalization.

        Stripe repairs and parity heals are plain cached writes, yet the
        persistence bitmaps rebuilt by ``_recover_zone`` already declare
        the repaired region durable.  Metadata compaction flushes each
        device as a side effect, but device N's old metadata zones are
        reset before device N+1's patches are flushed, and the
        generation-maintenance path may not compact at all — so a second
        crash mid-finalization could lose patches the bitmap (and a
        subsequent mount) counts on.  An explicit all-device barrier
        closes that window and makes recovery re-entrant.
        """
        volume = self.volume
        events = [volume.devices[index].submit(Bio.flush())
                  for index in volume._alive_devices()]
        if events:
            yield self.sim.all_of(events)

    def _finish_metadata(self):
        """Compact metadata — or complete generation maintenance (§4.3)."""
        volume = self.volume
        wal_present = any(
            decode_op_wal(entry)[0] == OP_GEN_MAINTENANCE
            for _device, entry in self.entries[MetadataType.OP_WAL])
        if wal_present or needs_generation_maintenance(volume):
            volume.read_only = True
            yield from run_generation_maintenance(self.sim, volume)
        else:
            for index in volume._alive_devices():
                yield from volume.mdzones[index].recovery_compact()


class _ZoneContent:
    """Stripe-hole analysis and repair for one logical zone."""

    def __init__(self, volume: RaiznVolume, zone: int,
                 extents: List[Optional[int]],
                 partial_parity: Dict[int, List[MetadataEntry]]):
        self.volume = volume
        self.zone = zone
        self.extents = extents
        self.partial_parity = partial_parity
        self.logical_wp = volume.mapper.zone_start(zone)
        self.has_relocation_conflicts = False
        #: (stripe, su_index) pairs currently being reconstructed from
        #: redundancy, to bound the media-error fallback's recursion.
        self._repairing: set = set()
        #: ``(stripe, {device: sorted (lo, hi, bytes) read})``: what
        #: ``_read_unit`` holds of the stripe it read last.
        self._held: Tuple[Optional[int], dict] = (None, {})

    # Helper shorthand ---------------------------------------------------------

    @property
    def su(self) -> int:
        return self.volume.config.stripe_unit_bytes

    @property
    def width(self) -> int:
        return self.volume.mapper.stripe_width

    def _su_extent(self, stripe: int, device: int) -> Optional[int]:
        """Written bytes of the SU device ``device`` holds for ``stripe``."""
        extent = self.extents[device]
        if extent is None:
            return None
        return max(0, min(self.su, extent - stripe * self.su))

    def _data_extent(self, stripe: int, su_index: int,
                     device: int) -> Optional[int]:
        """Valid bytes of a data SU from its start, where
        :func:`unit_sources` places them (its device's only below the
        unit's first extent); None when they start on a missing device."""
        valid = 0
        for lo, hi, source in unit_sources(self.volume, self.zone, stripe,
                                           su_index, 0, self.su):
            if isinstance(source, int) and lo == 0 < source:
                have = self._su_extent(stripe, device)
                if have is None:
                    return None
                hi = min(hi, source, have)
            elif isinstance(source, int) or lo > valid:
                break
            valid = hi
        return valid

    def _read_unit(self, stripe: int, device: int, lo: int, hi: int):
        """Process-style: bytes ``[lo, hi)`` of ``device``'s unit of
        ``stripe`` and None, or None and the error a device read of them
        met.  The device is asked only for what this stripe's earlier
        reads do not hold: a zoned write lands only at the write pointer,
        so bytes read stay valid until their zone's reset (DESIGN
        decision 14), and mount resets no zone it is walking.  One stripe
        is held at a time."""
        if self._held[0] != stripe:
            self._held = (stripe, {})
        pieces = self._held[1].setdefault(device, [])
        out, at, gaps = bytearray(hi - lo), lo, []
        for a, b, data in pieces:
            if b <= at or a >= hi:
                continue
            if a > at:
                gaps.append((at, a))
            at = min(b, hi)
            out[max(a, lo) - lo:at - lo] = data[max(a, lo) - a:at - a]
        if at < hi:
            gaps.append((at, hi))
        start = self.zone * self.volume.phys_zone_size + stripe * self.su
        for a, b in gaps:
            probe = Bio.read(start + a, b - a)
            probe.errors_as_status = True
            bio = yield self.volume.devices[device].submit(probe)
            if bio.error is not None:
                return None, bio.error
            out[a - lo:b - lo] = bio.result
            insort(pieces, (a, b, bio.result))
        return bytes(out), None

    def _read_su_prefix(self, stripe: int, su_index: int, device: int,
                        length: int):
        """Process-style: the first ``length`` bytes of a data SU where
        :func:`unit_sources` places them, zeroes past its valid bytes."""
        volume = self.volume
        dev = volume.devices[device]
        have = self._su_extent(stripe, device) or 0 if dev is not None else 0
        out = bytearray(length)
        for lo, hi, source in unit_sources(volume, self.zone, stripe,
                                           su_index, 0, length):
            if not isinstance(source, int):
                out[lo:hi] = source
                continue
            hi = min(hi, source, have)
            if hi <= lo:
                continue
            data, error = yield from self._read_unit(stripe, device, lo, hi)
            if error is None:
                out[lo:hi] = data
                continue
            # A latent (UNC) media error under a recovery read — the
            # compound case: the crash landed on an extent no scrub had
            # healed yet.  Rebuild this SU from the stripe's redundancy
            # instead of failing the whole mount; the live read path
            # re-heals the extent after mount.  A second fault inside the
            # same stripe (recursion guard) is beyond single parity and
            # genuinely unrecoverable.
            key = (stripe, su_index)
            if key in self._repairing:
                raise error
            self._repairing.add(key)
            try:
                rebuilt = yield from self._reconstruct_su(
                    stripe, volume.mapper.stripe_layout(self.zone, stripe),
                    su_index)
            finally:
                self._repairing.discard(key)
            # The rebuild within each bad extent a read meets, the media
            # around it, going round again if that meets another extent.
            spans = [(lo, hi, error)]
            while spans:
                lo, hi, error = spans.pop(0)
                a, b = self._bad_span(stripe, error, lo, hi)
                if len(rebuilt) < b:
                    raise error
                out[a:b] = rebuilt[a:b]
                for x, y in ((lo, a), (b, hi)):
                    if x < y:
                        clean, error = yield from self._read_unit(
                            stripe, device, x, y)
                        if error is None:
                            out[x:y] = clean
                        else:
                            spans.append((x, y, error))
        return bytes(out)

    def _bad_span(self, stripe: int, error, lo: int, hi: int):
        """What of bytes ``[lo, hi)`` of ``stripe``'s unit a device read's
        ``error`` names unreadable: a ``MediaError``'s extent, else all."""
        if not isinstance(error, MediaError):
            return lo, hi
        at = error.offset - self.zone * self.volume.phys_zone_size - \
            stripe * self.su
        return max(lo, at), min(hi, at + error.length)

    # Analysis -----------------------------------------------------------------

    def analyze(self):
        """Derive the logical write pointer in one walk over the stripes.

        A data unit reaches its valid bytes (``_data_extent``), or as far
        as redundancy rebuilds it when they start on the missing device
        (``_rebuild_reach``).  A unit that falls short of the walk's end
        is a hole.  What a hole does is the one step that depends on the
        mount: a healthy mount repairs it from parity, or else rolls the
        write pointer back to it and arms the stale units past it; on a
        degraded mount nothing is left to repair it from, and it is the
        zone's end (§5.1: bytes past a gap were never flush-acknowledged,
        a flush ack requires every piece durable).  Every complete stripe
        the walk passes gets its parity settled.
        """
        volume = self.volume
        zone_start = volume.mapper.zone_start(self.zone)
        missing = self._missing_device()
        end = self._walk_end(missing)
        for stripe in range(-(-(end - zone_start) // self.width)):
            layout = volume.mapper.stripe_layout(self.zone, stripe)
            shorts = []     # (index, LBA, reach) of each unit short of end
            for i, device in enumerate(layout.data_devices):
                su_lba = volume.mapper.su_lba(self.zone, stripe, i)
                reach = self._data_extent(stripe, i, device)
                if reach is None:
                    reach = self._rebuild_reach(stripe, layout, i)[0]
                if reach < min(self.su, end - su_lba):
                    shorts.append((i, su_lba, reach))
            if shorts and (missing is not None or not (
                    yield from self._repair_stripe(stripe, layout, shorts,
                                                   end))):
                _i, su_lba, reach = shorts[0]
                self.logical_wp = su_lba + reach
                if missing is None:   # DESIGN decision 3: healthy only
                    self.has_relocation_conflicts = True
                    yield from self._arm_stale_relocations(self.logical_wp)
                return
            yield from self._settle_parity(stripe, layout, end, missing)
        self.logical_wp = min(end, zone_start + volume.zone_capacity)

    def _walk_end(self, missing: Optional[int]) -> int:
        """Where the walk ends.  Healthy: past the last byte of a data
        unit, scanning until a stripe holding nothing follows a short
        unit.  Degraded: the end of the last stripe holding data or
        logged partial parity — the missing device's unit bounds the tail
        by its reach."""
        volume = self.volume
        zone_start = volume.mapper.zone_start(self.zone)
        end, gap = zone_start, False
        for stripe in range(volume.mapper.stripes_per_zone):
            layout = volume.mapper.stripe_layout(self.zone, stripe)
            any_data = bool(self._su_extent(stripe, layout.parity_device))
            for i, device in enumerate(layout.data_devices):
                extent = self._data_extent(stripe, i, device)
                if extent is None:
                    continue  # missing device: its reach bounds the tail
                if extent > 0:
                    any_data = True
                    end = max(end, volume.mapper.su_lba(self.zone, stripe, i)
                              + extent)
                gap = gap or extent < self.su
            if not any_data and gap:
                break  # past the end of written data
        if missing is None:
            return end
        stripes = max([-(-(end - zone_start) // self.width)] +
                      [stripe + 1 for stripe in self.partial_parity])
        return zone_start + stripes * self.width

    def _missing_device(self) -> Optional[int]:
        return next((index for index, extent in enumerate(self.extents)
                     if extent is None), None)

    def _repair_stripe(self, stripe: int, layout, shorts, end: int):
        """Healthy mount: rebuild the one short data unit of ``stripe``
        from redundancy and write it back at its device's write pointer —
        the hole is exactly where the zone is writable.  False when it
        cannot be: two holes (beyond single parity), a relocated one (no
        writable hole on the device to repair into), a sibling's latent
        extent (a second hole: the torn bytes were never durable), or a
        rebuild that falls short."""
        volume = self.volume
        if len(shorts) > 1 or shorts[0][1] in volume.relocations:
            return False
        su_index, su_lba, have = shorts[0]
        try:
            reconstructed = yield from self._reconstruct_su(stripe, layout,
                                                            su_index)
        except MediaError:
            return False
        needed_end = min(self.su, end - su_lba)
        if len(reconstructed) < needed_end:
            return False
        device = layout.data_devices[su_index]
        pba = self.zone * volume.phys_zone_size + stripe * self.su + have
        yield volume.devices[device].submit(
            Bio.write(pba, reconstructed[have:needed_end]))
        volume.phys[device][self.zone].write_pointer = \
            pba + needed_end - have
        self.extents[device] = stripe * self.su + needed_end
        return True

    def _arm_stale_relocations(self, rollback_lwp: int):
        """Create persisted relocation markers for every stale SU.

        Data persisted beyond the rollback point can never be served
        again (ZNS forbids overwriting it in place); marking each such SU
        relocated makes the distinction durable, so a second crash cannot
        resurrect stale bytes (§5.2's remapped zones).
        """
        volume = self.volume
        max_extent = max((e for e in self.extents if e is not None),
                         default=0)
        if max_extent == 0:
            return
        last_stripe = (max_extent - 1) // self.su
        events = []
        for stripe in range(last_stripe + 1):
            layout = volume.mapper.stripe_layout(self.zone, stripe)
            for i, device in enumerate(layout.data_devices):
                su_lba = volume.mapper.su_lba(self.zone, stripe, i)
                if su_lba < rollback_lwp:
                    continue  # valid region (or the hole device's prefix)
                dev_extent = self._su_extent(stripe, device) or 0
                if dev_extent == 0:
                    continue  # nothing stale at this SU
                if su_lba in volume.relocations:
                    continue
                volume.relocations.unit_for(su_lba, device, self.zone)
                entry = encode_relocated_su(
                    su_lba, b"", volume.generation[self.zone])
                events.append(volume.sim.process(
                    volume.mdzones[device].append(
                        MetadataRole.GENERAL, entry, fua=True)))
        if events:
            yield volume.sim.all_of(events)

    def _settle_parity(self, stripe: int, layout, end: int,
                       missing: Optional[int]):
        """Complete a torn or missing parity SU of a fully-written stripe.

        A torn parity write would otherwise block future writes on that
        device's zone (its write pointer sits mid-SU).  A healthy mount
        recomputes the parity from the repaired data and appends its
        missing tail in place.  A degraded one records it in
        ``relocated_parity`` (the map the read path's reconstruction
        prefers over the device copy), so degraded reads of the missing
        device's unit do not XOR the torn copy; that unit is rebuilt from
        its relocation unit or the stripe's redundancy, which the walk
        found covers it whole.
        """
        volume = self.volume
        stripe_lba = volume.mapper.zone_start(self.zone) + stripe * self.width
        parity_extent = self._su_extent(stripe, layout.parity_device) or 0
        if end < stripe_lba + self.width or parity_extent >= self.su:
            return  # incomplete stripe (no full parity SU yet), or whole
        key = (self.zone, stripe)
        if missing is not None:
            if layout.parity_device != missing and \
                    key not in volume.relocated_parity:
                volume.relocated_parity[key] = \
                    yield from self._stripe_parity(stripe, layout)
            return
        pdesc = volume.phys[layout.parity_device][self.zone]
        if self.extents[layout.parity_device] != \
                stripe * self.su + parity_extent or \
                not pdesc.state.is_writable:
            # The device holds (stale) data beyond this parity SU, or its
            # zone wore out; it cannot be appended in place — the
            # mount-time parity audit records the true parity instead.
            return
        zone_pba = self.zone * volume.phys_zone_size
        parity = yield from self._stripe_parity(stripe, layout)
        pba = zone_pba + stripe * self.su + parity_extent
        yield volume.devices[layout.parity_device].submit(
            Bio.write(pba, parity[parity_extent:]))
        pdesc.write_pointer = zone_pba + (stripe + 1) * self.su
        self.extents[layout.parity_device] = (stripe + 1) * self.su

    def _stripe_parity(self, stripe: int, layout):
        """Process-style: the full parity of ``stripe``'s data units, each
        read whole — the missing device's unit, where its relocation log
        does not cover it, rebuilt from the stripe's redundancy."""
        missing = self._missing_device()
        units = []
        for j, device in enumerate(layout.data_devices):
            if device == missing and \
                    (self._data_extent(stripe, j, device) or 0) < self.su:
                unit = yield from self._reconstruct_su(stripe, layout, j)
                if len(unit) < self.su:
                    raise RecoveryError(f"zone {self.zone} stripe {stripe}: "
                                        "cannot reconstruct missing data")
            else:
                unit = yield from self._read_su_prefix(stripe, j, device,
                                                       self.su)
            units.append(unit)
        return stripe_parity(units, self.su)

    def _rebuild_reach(self, stripe: int, layout,
                       su_index: int) -> Tuple[int, Optional[int]]:
        """§5.1: how many bytes of lost data unit ``su_index`` redundancy
        rebuilds — the one rule ``analyze`` bounds the unit by and
        ``_reconstruct_su`` fetches it by.  Reads metadata only.

        The larger of two reaches: full parity's (relocated parity or a
        whole on-device parity SU), and the partial-parity chain's usable
        prefix.  Returns ``(reach, chain_end)``, ``chain_end`` the end LBA
        of the deltas to fold when the chain reaches further; None when
        full parity is the source, ties included.
        """
        prefix, chain_end = self._chain_prefix(stripe, layout, su_index)
        if (self.zone, stripe) in self.volume.relocated_parity or \
                self._su_extent(stripe, layout.parity_device) == self.su:
            # A full parity SU is computed over a *completely* written
            # stripe, so a sibling data SU shorter than the stripe unit
            # means real bytes were lost to crash rollback — the zero
            # padding ``_read_su_prefix`` applies past its extent does
            # not match what went into the parity, and XOR results at
            # those positions are garbage.  (§5.1's "treated as zeroes"
            # rule covers only partial parity, which is computed over
            # zero-padded buffers.)  Full parity is therefore exact only
            # up to the shortest sibling extent; the shorter prefix makes
            # ``_repair_stripe`` roll the zone back instead of patching
            # corrupt bytes onto the device.
            full = min((self._data_extent(stripe, j, other) or 0
                        for j, other in enumerate(layout.data_devices)
                        if j != su_index), default=self.su)
            if full >= prefix:
                return full, None
        return prefix, chain_end

    def _chain_prefix(self, stripe: int, layout,
                      su_index: int) -> Tuple[int, int]:
        """The partial-parity chain's usable prefix of data unit
        ``su_index``: ``(bytes, end LBA of the deltas that rebuild
        them)``."""
        stripe_lba = self.volume.mapper.zone_start(self.zone) + \
            stripe * self.width
        haves = {j: self._data_extent(stripe, j, other) or 0
                 for j, other in enumerate(layout.data_devices)
                 if j != su_index}
        # Choose the longest *usable* prefix of the (disjoint, append-
        # ordered) delta chain.  An entry describing sibling-SU bytes
        # that did not survive the crash pollutes the parity positions at
        # and past that sibling's extent — those bytes fall under §5.1's
        # rollback rule ("data at any LBAs at or higher than this missing
        # data is discarded") and cannot be cancelled out of the XOR.
        # A longer chain therefore does not always recover more of the
        # target SU: a late multi-SU delta can wipe out positions an
        # earlier single-SU prefix reconstructed exactly.  Scan prefixes,
        # tracking contiguous coverage and the first polluted parity
        # offset, and keep the best trade-off.
        best = 0
        best_end = stripe_lba
        coverage = stripe_lba
        first_polluted = self.su
        for start, stop in sorted(_lba_spans(
                self.partial_parity.get(stripe, []))):
            if start > coverage:
                break  # gap in the chain; later deltas are unusable
            for j, have in haves.items():
                su_lo = stripe_lba + j * self.su
                lo = max(start, su_lo + have)
                hi = min(stop, su_lo + self.su)
                if lo < hi:
                    first_polluted = min(first_polluted, lo - su_lo)
            coverage = max(coverage, stop)
            t_cov = max(0, min(self.su,
                               (coverage - stripe_lba) - su_index * self.su))
            usable = min(t_cov, first_polluted)
            if usable > best:
                best = usable
                best_end = coverage
        return best, best_end

    def _reconstruct_su(self, stripe: int, layout, su_index: int):
        """Process-style: the first ``_rebuild_reach`` bytes of lost data
        unit ``su_index``, from the source that reaches further.

        A media error on the on-device parity falls back to the chain's
        prefix, possibly empty.
        """
        volume = self.volume
        reach, chain_end = self._rebuild_reach(stripe, layout, su_index)
        stripe_lba = volume.mapper.zone_start(self.zone) + stripe * self.width
        parity = None
        if chain_end is None:
            # Relocated parity (in-place write conflicted, §5.2) is the
            # true full parity — the on-device parity SU, if any, holds
            # stale bytes and must not be read.
            parity = volume.relocated_parity.get((self.zone, stripe))
            if parity is None:
                # A latent media error on the parity PBA is tolerated:
                # the partial-parity chain may still reconstruct.
                parity, error = yield from self._read_unit(
                    stripe, layout.parity_device, 0, self.su)
                if error is not None:
                    reach, chain_end = self._chain_prefix(stripe, layout,
                                                          su_index)
        if parity is not None:
            acc = bytearray(parity)
            covered = self.width
        else:
            # §5.1's reconstruction: ordered XOR of partial parity deltas.
            acc = bytearray(self.su)
            for entry in self.partial_parity.get(stripe, []):
                if entry.end_lba <= chain_end:
                    parity_offset, delta = decode_partial_parity(entry)
                    xor_into(acc, delta, parity_offset)
            covered = chain_end - stripe_lba
        # Fold in the surviving data SUs up to the covered end, zero
        # padding beyond each unit's persisted extent.  Positions past
        # ``reach`` may be garbage (polluted or uncovered) — sliced off.
        for j, other in enumerate(layout.data_devices):
            if j == su_index:
                continue
            su_covered = max(0, min(self.su, covered - j * self.su))
            if su_covered:
                data = yield from self._read_su_prefix(stripe, j, other,
                                                       su_covered)
                xor_into(acc, data)
        return bytes(acc[:reach])

    # Tail stripe buffer -------------------------------------------------------------

    def rebuild_tail_buffer(self, desc):
        """Reload the stripe buffer of an incomplete tail stripe.

        The buffer must exist so that future writes completing the stripe
        can compute full parity, and so degraded reads of the tail work.
        A missing device's portion is reconstructed from redundancy.
        """
        volume = self.volume
        zone_start = desc.start_lba
        in_zone = desc.write_pointer - zone_start
        if in_zone == 0 or in_zone % self.width == 0:
            return
        stripe = in_zone // self.width
        fill = in_zone % self.width
        layout = volume.mapper.stripe_layout(self.zone, stripe)
        data = bytearray(fill)
        missing = self._missing_device()
        for i, device in enumerate(layout.data_devices):
            lo = i * self.su
            if lo >= fill:
                break
            take = min(self.su, fill - lo)
            if device == missing:
                chunk = yield from self._reconstruct_su(stripe, layout, i)
                if len(chunk) < take:
                    raise RecoveryError(f"zone {self.zone} stripe {stripe}: "
                                        "cannot reconstruct missing tail data")
            else:
                try:
                    chunk = yield from self._read_su_prefix(
                        stripe, i, device, take)
                except MediaError as error:
                    # Compound fault: a latent extent under the tail SU
                    # that parity could not fully rebuild.  Salvage the
                    # genuine prefix and roll the zone back instead of
                    # failing the mount.
                    yield from self._rollback_torn_tail(
                        desc, stripe, layout, i, device, take, error)
                    return
            data[lo:lo + take] = chunk[:take]
        desc.tail = StripeBuffer(self.zone, stripe, volume.config.num_data,
                                 self.su)
        desc.tail.absorb(0, data)

    def _rollback_torn_tail(self, desc, stripe: int, layout, su_index: int,
                            device: int, take: int, error: MediaError):
        """§5.2-style rollback over an unreconstructable torn tail SU.

        The SU cannot be read (unrecoverable media error) nor fully
        rebuilt (the partial-parity chain falls short of the device
        extent).  That combination is only possible for bytes that were
        never durably acknowledged: a durable ack — FUA or flush —
        requires the covering partial parity to be durable first, so any
        acknowledged byte of this SU is reconstructable.  Salvage the
        longest genuine prefix — the clean on-media bytes before the bad
        extent, or the rebuild from redundancy, whichever is longer —
        into a persisted relocation unit (the media copy is untrustworthy
        past the start of the bad extent ``error`` names; an error from
        another device names none on this one), roll the logical write
        pointer back to its end, and arm relocation markers over the
        stale remainder.
        """
        volume = self.volume
        su_lba = volume.mapper.su_lba(self.zone, stripe, su_index)
        try:
            rebuilt = yield from self._reconstruct_su(stripe, layout,
                                                      su_index)
        except MediaError:
            rebuilt = b""
        content = bytes(rebuilt[:take])
        clean = 0
        if error.device == volume.devices[device].name:
            clean = self._bad_span(stripe, error, 0, take)[0]
        if clean > len(content):
            content, error = yield from self._read_unit(stripe, device, 0,
                                                        clean)
            if error is not None:
                raise error
        if content:
            unit = volume.relocations.unit_for(su_lba, device, self.zone)
            unit.write(su_lba, content)
            entry = encode_relocated_su(su_lba, content,
                                        volume.generation[self.zone])
            yield from volume.mdzones[device].append(
                MetadataRole.GENERAL, entry, fua=True)
            desc.has_relocations = True
        new_wp = su_lba + len(content)
        self.logical_wp = new_wp
        desc.write_pointer = new_wp
        if new_wp == desc.start_lba:
            desc.state = ZoneState.EMPTY
        elif desc.state is ZoneState.FULL:
            desc.state = ZoneState.CLOSED
        self.has_relocation_conflicts = True
        yield from self._arm_stale_relocations(new_wp)
        # The tail stripe changed: rebuild the buffer for the new tail.
        # The salvaged SU is now served from its relocation unit, so
        # this cannot re-raise for the same extent.
        yield from self.rebuild_tail_buffer(desc)
