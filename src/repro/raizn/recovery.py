"""Mount-time crash recovery (paper §4.3, §5.1–§5.3).

``mount`` reassembles a :class:`~repro.raizn.volume.RaiznVolume` from its
devices after a clean shutdown, a power loss, or a device failure:

1. read each device's metadata zones once, from the top down: the first
   superblock met gives the device's array slot and where its metadata
   zones end;
2. ingest every log entry read, resolving duplicates by generation
   counter; each stripe's partial-parity deltas become one
   :class:`_Chain` (its coverage, its usable prefix for a lost unit,
   its parity up to an LBA);
3. redo the write-back of a §5.2 zone rewrite cut after its copy was
   durable, and replay valid zone-reset write-ahead logs;
4. walk each logical zone's stripes once (:class:`_ZoneContent`): a data
   unit reaches its valid bytes, or as far as redundancy rebuilds it
   when they start on a missing device; a unit short of the end is a
   hole, which a healthy mount repairs from (partial) parity; a complete
   stripe's torn parity is completed in place, or recorded when a device
   is missing.  The walk ends by reloading the tail stripe's buffer.  One
   rollback serves an unrepaired hole and a tail unit that neither its
   media nor redundancy serves whole: the write pointer goes back and
   the stale units past it are armed for relocation; a degraded mount's
   hole just ends the zone.  One reader serves every unit read and holds
   the stripe it read last, so no unit is read twice;
5. record the true parity of complete stripes in zones with relocations,
   and rebuild persistence bitmaps;
6. compact the metadata zones so the volume restarts with a clean,
   checkpointed metadata state.  Mount ends there: the §5.2 threshold
   rewrite is maintenance on the mounted volume.

``tests/reference_mount.py`` is what it is held to: per zone, the
longest prefix of the written bytes that some source derives.
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
from .parity import full_stripe_parity, xor_into
from .relocation import unit_sources
from .stripebuf import StripeBuffer
from .volume import RaiznVolume


class _Chain:
    """One stripe's partial-parity deltas (§5.1), generation-valid, with
    §4.3's duplicate rule applied: a checkpointed entry overlapping a
    normal one is dropped while the normal entries reach as far as it
    does; otherwise it heads the chain and the normal entries it
    contains are the duplicates (DESIGN decision 12)."""

    def __init__(self, lba: int, entries: List[MetadataEntry]):
        #: The stripe's first LBA.
        self.lba = lba
        normals = [e for e in entries if not e.checkpoint]
        ckpts = [e for e in entries if e.checkpoint]
        if normals and ckpts:
            last = max(ckpts, key=lambda e: e.end_lba)
            if _Chain(lba, normals).coverage() < last.end_lba:
                # The deltas the checkpoint stands in for went with the
                # reclaimed zone, and it already holds the one appended
                # behind it (the append that found the zone full): the
                # checkpoint is the chain's head, not the duplicate.
                entries = [last] + [
                    n for n in normals if n.start_lba >= last.end_lba]
            else:
                entries = normals + [ckpt for ckpt in ckpts if not any(
                    ckpt.start_lba < n.end_lba and n.start_lba < ckpt.end_lba
                    for n in normals)]
        self.entries = entries
        self.spans = sorted((e.start_lba, e.end_lba) for e in entries)

    def coverage(self) -> int:
        """End of the gap-free run of deltas from the stripe's start."""
        end = self.lba
        for lo, hi in self.spans:
            if lo > end:
                break
            end = max(end, hi)
        return end

    def parity(self, su: int, end: int) -> bytearray:
        """The XOR of the deltas that end by LBA ``end``: the stripe's
        parity up to ``end`` where the chain covers that far."""
        acc = bytearray(su)
        for entry in self.entries:
            if entry.end_lba <= end:
                offset, delta = decode_partial_parity(entry)
                xor_into(acc, delta, offset)
        return acc

    def prefix(self, su: int, su_index: int,
               haves: Dict[int, int]) -> Tuple[int, int]:
        """The usable prefix of data unit ``su_index``, given each
        sibling's valid bytes ``haves``: ``(bytes, end LBA of the deltas
        that rebuild them)``.  A delta of sibling bytes that did not
        survive pollutes the parity from that sibling's extent on (§5.1:
        data past missing data is discarded), so a longer prefix does not
        always rebuild more: keep the best prefix before the first gap."""
        # Polluted parity positions fall under §5.1's rollback rule (data
        # at or past missing data is discarded) and cannot be cancelled
        # out of the XOR: a late multi-SU delta can wipe out positions an
        # earlier single-SU prefix rebuilt exactly.  So scan the prefixes,
        # tracking coverage and the first polluted parity offset.
        best, best_end = 0, self.lba
        coverage, first_polluted = self.lba, su
        for start, stop in self.spans:
            if start > coverage:
                break
            for j, have in haves.items():
                su_lo = self.lba + j * su
                if max(start, su_lo + have) < min(stop, su_lo + su):
                    first_polluted = min(first_polluted,
                                         max(start - su_lo, have))
            coverage = max(coverage, stop)
            usable = min(su, coverage - self.lba - su_index * su,
                         first_polluted)
            if usable > best:
                best, best_end = usable, coverage
        return best, best_end


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
        chains = self._ingest_partial_parity()
        self._ingest_relocations()
        yield from self._resume_interrupted_rewrites(scans)
        reset_logged = self._reset_logged_zones()
        for zone in range(volume.num_data_zones):
            yield from self._recover_zone(zone, chains.get(zone, {}),
                                          zone in reset_logged)
        yield from self._audit_relocated_parity()
        yield from self._flush_repairs()
        for desc in volume.zone_descs:   # §4.3: empty zones' counters move
            if desc.write_pointer == desc.start_lba:
                volume.generation[desc.zone] += 1
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
        """Read ``dev``'s metadata zones (its last ``num_metadata_zones``)
        from the top down, each once.  The general zone always holds a
        superblock (written at format time, re-checkpointed by every
        metadata GC), so the first one met says where they end.  Returns
        it and, top zone first, ``(zone index, entries, bytes read)`` of
        each zone read."""
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
        """Componentwise max over all persisted generation blocks: counters
        only increase, so it is each zone's newest persisted value."""
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

    def _ingest_partial_parity(self) -> Dict[int, Dict[int, _Chain]]:
        """Each zone's partial-parity chains by stripe.  A whole-stripe
        entry is the cumulative relocated-parity shape (logged when a
        complete stripe's parity unit could not be written in place, and
        re-emitted by the metadata-GC checkpoint): self-contained full
        parity, not a delta (DESIGN decision 10).  In the delta chain it
        would double-count any surviving deltas, and the duplicate rule
        would drop the checkpointed copy whenever one delta survives, so
        it goes to the relocated-parity map the read path prefers."""
        volume = self.volume
        width, su = volume.mapper.stripe_width, volume.config.stripe_unit_bytes
        grouped: Dict[int, Dict[int, List[MetadataEntry]]] = {}
        for _device, entry, zone in self._current_by_lba(
                MetadataType.PARTIAL_PARITY):
            stripe, in_stripe = divmod(
                entry.start_lba - zone * volume.zone_capacity, width)
            if in_stripe == 0 and entry.end_lba - entry.start_lba == width:
                offset, payload = decode_partial_parity(entry)
                if offset == 0 and len(payload) == su:
                    volume.relocated_parity[(zone, stripe)] = payload
                    continue
            grouped.setdefault(zone, {}).setdefault(stripe, []).append(entry)
        return {zone: {stripe: _Chain(volume.mapper.zone_start(zone)
                                      + stripe * width, entries)
                       for stripe, entries in stripes.items()}
                for zone, stripes in grouped.items()}

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

    # -- per-zone recovery ------------------------------------------------------------

    def _zone_extents(self, zone: int) -> List[Optional[int]]:
        """Written bytes in each device's physical zone (None if missing)."""
        volume = self.volume
        alive = volume._alive_devices()
        return [volume.phys[index][zone].write_pointer
                - zone * volume.phys_zone_size if index in alive else None
                for index in range(volume.config.num_devices)]

    def _recover_zone(self, zone: int, chains: Dict[int, _Chain],
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
                not chains and not desc.has_relocations)):
            # Nothing in place, logged or relocated.  A zone whose data
            # sits only in the logs (its one unit on the lost device, or
            # every member worn out) goes the long way.
            desc.reset()
            return

        state = _ZoneContent(volume, zone, extents, chains)
        yield from state.analyze()
        desc.write_pointer = state.logical_wp
        desc.tail = state.tail
        if state.relocated:
            desc.has_relocations = True
        if desc.write_pointer == desc.start_lba:
            desc.state = ZoneState.EMPTY
        elif desc.write_pointer == desc.writable_end and all(
                volume.phys[index][zone].state is ZoneState.FULL
                for index in volume._alive_devices()):
            desc.state = ZoneState.FULL
        else:
            desc.state = ZoneState.CLOSED
        if desc.written_bytes:
            # Full SUs only: the recovered partial tail SU is durable now,
            # but a post-mount write can extend it in the device cache and
            # a set bit would go stale (see writepath._WriteJoin.flushed).
            desc.persistence.mark_up_to(desc.su_index_of(desc.write_pointer))

    def _audit_relocated_parity(self):
        """Healthy mount: the true parity of every complete stripe in a
        zone with relocations, recomputed from the data.  A rollback can
        have left a re-filled stripe's parity unit stale (DESIGN decision
        2), and ZNS forbids overwriting it; a mismatch is recorded as
        relocated parity, which the compaction below persists.  A
        degraded mount cannot recompute (its reads depend on parity) and
        reads the logs instead, in its stripe walk (``_settle_parity``)."""
        volume = self.volume
        if len(volume._alive_devices()) < len(volume.devices):
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

    def _resume_interrupted_rewrites(self, scans):
        """Redo the §5.2 write-back of each rewrite whose current
        ``REWRITE_COPIED`` has no ``REWRITE_DONE`` after it, from the
        staged copy the scan read (a staging zone holding less was reset
        once the write-back was durable; an entry naming none staged in
        the first swap zone).  Compaction resets the zone holding it."""
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
        """Make every repair durable before the metadata is finalized.
        Stripe repairs and parity heals are plain cached writes, yet the
        rebuilt persistence bitmaps already count on them.  Compaction
        flushes each device as a side effect, but it resets device N's
        old metadata zones before device N+1's repairs are flushed, and
        generation maintenance may not compact at all: a second crash
        mid-finalization could lose repairs the next mount counts on.
        One all-device barrier closes that window."""
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
    """One logical zone's stripe walk: its write pointer, its repairs and
    its tail stripe buffer."""

    def __init__(self, volume: RaiznVolume, zone: int,
                 extents: List[Optional[int]], chains: Dict[int, _Chain]):
        self.volume = volume
        self.zone = zone
        #: Written bytes of each device's physical zone, None if missing.
        self.extents = extents
        self.chains = chains
        self.su = volume.config.stripe_unit_bytes
        self.width = volume.mapper.stripe_width
        self.zone_start = volume.mapper.zone_start(zone)
        self.missing = next((index for index, extent in enumerate(extents)
                             if extent is None), None)
        self.logical_wp = self.zone_start
        self.tail: Optional[StripeBuffer] = None
        #: The walk relocated: it armed a healthy mount's rollback, or
        #: salvaged a torn tail unit into a relocation unit.
        self.relocated = False
        #: (stripe, su_index) pairs being rebuilt under a media error.
        self._repairing: set = set()
        #: ``(stripe, {device: sorted (lo, hi, bytes) read})``: what
        #: ``_read_unit`` holds of the stripe it read last.
        self._held: Tuple[Optional[int], dict] = (None, {})

    # Stripe units --------------------------------------------------------------

    def _chain(self, stripe: int) -> _Chain:
        return self.chains.get(stripe) or \
            _Chain(self.zone_start + stripe * self.width, [])

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
        ``stripe`` and None, or None and the error a device read met.  The
        device is asked only for what the stripe's earlier reads do not
        hold: bytes read stay valid until their zone's reset (DESIGN
        decision 14), and mount resets no zone it walks."""
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
        :func:`unit_sources` places them, zeroes past its valid bytes.  A
        latent extent under a read takes the unit's rebuild within it and
        the media around it, round again if that meets another; a second
        fault in the stripe (the recursion guard) or a rebuild short of
        the extent raises the error (DESIGN decision 5)."""
        volume = self.volume
        have = self._su_extent(stripe, device) or 0
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
            # A latent extent no scrub healed before the crash: rebuild
            # the unit from redundancy rather than fail the mount (the
            # read path re-heals the extent later).  A second fault in the
            # stripe is beyond single parity.
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

    def _append(self, device: int, stripe: int, at: int, data: bytes):
        """Process-style: write ``data`` at offset ``at`` of ``device``'s
        unit of ``stripe``, where its zone's write pointer is."""
        volume = self.volume
        pba = self.zone * volume.phys_zone_size + stripe * self.su + at
        yield volume.devices[device].submit(Bio.write(pba, data))
        volume.phys[device][self.zone].write_pointer = pba + len(data)
        self.extents[device] = stripe * self.su + at + len(data)

    # The walk ------------------------------------------------------------------

    def analyze(self):
        """Derive the logical write pointer in one walk over the stripes,
        then reload the tail stripe's buffer (``_load_tail``).

        A data unit reaches its valid bytes (``_data_extent``), or as far
        as redundancy rebuilds it when they start on the missing device
        (``_rebuild_reach``); one short of the walk's end is a hole.  A
        healthy mount repairs a hole from parity or rolls back to it
        (``_roll_back``); on a degraded mount it is the zone's end (§5.1:
        bytes past a gap were never flush-acknowledged: a flush ack needs
        every piece durable).  Every complete stripe the walk passes gets
        its parity settled."""
        volume = self.volume
        end = self._walk_end()
        for stripe in range(-(-(end - self.zone_start) // self.width)):
            layout = volume.mapper.stripe_layout(self.zone, stripe)
            shorts = []     # (index, LBA, reach) of each unit short of end
            for i, device in enumerate(layout.data_devices):
                su_lba = volume.mapper.su_lba(self.zone, stripe, i)
                reach = self._data_extent(stripe, i, device)
                if reach is None:
                    reach = self._rebuild_reach(stripe, layout, i)[0]
                if reach < min(self.su, end - su_lba):
                    shorts.append((i, su_lba, reach))
            if shorts and (self.missing is not None or not (
                    yield from self._repair_stripe(stripe, layout, shorts,
                                                   end))):
                _i, su_lba, reach = shorts[0]
                if self.missing is None:   # DESIGN decision 3: healthy only
                    self.relocated = True
                    yield from self._roll_back(su_lba + reach)
                else:
                    self.logical_wp = su_lba + reach
                break
            yield from self._settle_parity(stripe, layout, end)
        else:
            self.logical_wp = min(end, self.zone_start + volume.zone_capacity)
        yield from self._load_tail()

    def _walk_end(self) -> int:
        """Where the walk ends: past the last byte of a data unit, scanning
        until a stripe holding nothing follows a short unit; on a degraded
        mount, the end of the last stripe holding data or logged partial
        parity (the missing unit's reach bounds the tail)."""
        volume = self.volume
        end, gap = self.zone_start, False
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
        if self.missing is None:
            return end
        stripes = max([-(-(end - self.zone_start) // self.width)] +
                      [stripe + 1 for stripe in self.chains])
        return self.zone_start + stripes * self.width

    def _repair_stripe(self, stripe: int, layout, shorts, end: int):
        """Healthy mount: rebuild the one short data unit of ``stripe`` and
        write it back at its device's write pointer, which is where the
        hole is.  False when it cannot be: two holes (beyond single
        parity), a relocated one (no writable hole to repair into),
        a sibling's latent extent (the torn bytes were never durable), or
        a rebuild that falls short."""
        if len(shorts) > 1 or shorts[0][1] in self.volume.relocations:
            return False
        su_index, su_lba, have = shorts[0]
        try:
            rebuilt = yield from self._reconstruct_su(stripe, layout, su_index)
        except MediaError:
            return False
        needed_end = min(self.su, end - su_lba)
        if len(rebuilt) < needed_end:
            return False
        yield from self._append(layout.data_devices[su_index], stripe, have,
                                rebuilt[have:needed_end])
        return True

    def _roll_back(self, wp: int):
        """The one rollback: the zone ends at ``wp``.  Bytes persisted past
        it can never be served again (ZNS forbids overwriting them in
        place), so every stale unit past it gets a persisted relocation
        marker, and a second crash cannot resurrect its bytes (§5.2,
        DESIGN decision 3)."""
        volume = self.volume
        self.logical_wp = wp
        written = max((e for e in self.extents if e is not None), default=0)
        events = []
        for stripe in range(-(-written // self.su)):
            layout = volume.mapper.stripe_layout(self.zone, stripe)
            for i, device in enumerate(layout.data_devices):
                su_lba = volume.mapper.su_lba(self.zone, stripe, i)
                if su_lba < wp or not self._su_extent(stripe, device) or \
                        su_lba in volume.relocations:
                    continue  # valid, nothing stale there, or armed
                volume.relocations.unit_for(su_lba, device, self.zone)
                entry = encode_relocated_su(su_lba, b"",
                                            volume.generation[self.zone])
                events.append(volume.sim.process(volume.mdzones[device].append(
                    MetadataRole.GENERAL, entry, fua=True)))
        if events:
            yield volume.sim.all_of(events)

    def _settle_parity(self, stripe: int, layout, end: int):
        """Settle the parity of a fully-written stripe.  A torn parity SU
        (DESIGN decision 5) would block later writes to its device's zone,
        whose write pointer sits mid-unit: it is completed in place on a
        healthy mount, and recorded as relocated parity on a degraded
        one, which the read path prefers over the torn copy.  A degraded
        mount also takes the true parity of a stripe in a zone with
        relocations (a rollback can have left its parity unit stale,
        decision 2) from a chain that reaches the stripe's end.  A chain
        with a gap cannot give it, and the missing unit is lost: say so
        rather than serve it from a stale copy.  The relocations are
        those the scan found: a relocation this mount's ``_salvage`` adds
        later rolls back into the incomplete tail stripe only, and leaves
        every complete stripe's parity unit as it was."""
        volume = self.volume
        stripe_end = self.zone_start + (stripe + 1) * self.width
        parity_extent = self._su_extent(stripe, layout.parity_device) or 0
        if end < stripe_end:
            return  # incomplete stripe: no full parity SU yet
        key, chain = (self.zone, stripe), self.chains.get(stripe)
        if self.missing is not None:
            if parity_extent < self.su and key not in volume.relocated_parity \
                    and layout.parity_device != self.missing:
                volume.relocated_parity[key] = \
                    yield from self._stripe_parity(stripe, layout)
            if chain and volume.zone_descs[self.zone].has_relocations and \
                    max(hi for _lo, hi in chain.spans) >= stripe_end:
                if chain.coverage() >= stripe_end:
                    volume.relocated_parity[key] = bytes(
                        chain.parity(self.su, stripe_end))
                elif key not in volume.relocated_parity:
                    raise DataLossError(
                        f"zone {self.zone} stripe {stripe}: relocated "
                        "parity not recoverable from its partial-parity log")
            return
        if parity_extent >= self.su or self.extents[layout.parity_device] \
                != stripe * self.su + parity_extent or not volume.phys[
                    layout.parity_device][self.zone].state.is_writable:
            # Whole; or the device holds (stale) data beyond this parity
            # SU, or its zone wore out: it cannot be appended in place,
            # and the parity audit records the true parity instead.
            return
        parity = yield from self._stripe_parity(stripe, layout)
        yield from self._append(layout.parity_device, stripe, parity_extent,
                                parity[parity_extent:])

    def _stripe_parity(self, stripe: int, layout):
        """Process-style: the true parity of a complete stripe."""
        data = yield from self._stripe_data(stripe, layout, self.width)
        return full_stripe_parity(data, self.volume.config.num_data)

    def _stripe_data(self, stripe: int, layout, fill: int, torn=None):
        """Process-style: the first ``fill`` bytes of ``stripe``'s data.
        The missing device's unit is rebuilt from redundancy (or
        ``RecoveryError`` when it falls short); in a complete stripe, only
        where its relocation unit does not hold it whole.  With ``torn``
        a list, a live unit's media error goes there as ``(index, device,
        bytes wanted, error)`` and None is returned."""
        data = bytearray(fill)
        for i, device in enumerate(layout.data_devices[:-(-fill // self.su)]):
            take = min(self.su, fill - i * self.su)
            if device == self.missing and (fill < self.width or (
                    self._data_extent(stripe, i, device) or 0) < self.su):
                chunk = yield from self._reconstruct_su(stripe, layout, i)
                if len(chunk) < take:
                    raise RecoveryError(f"zone {self.zone} stripe {stripe}: "
                                        "cannot reconstruct missing data")
            else:
                try:
                    chunk = yield from self._read_su_prefix(stripe, i, device,
                                                            take)
                except MediaError as error:
                    if torn is None:
                        raise
                    torn.append((i, device, take, error))
                    return None
            data[i * self.su:i * self.su + take] = chunk[:take]
        return data

    # Redundancy ----------------------------------------------------------------

    def _rebuild_reach(self, stripe: int, layout, su_index: int,
                       full_parity: bool = True) -> Tuple[int, Optional[int]]:
        """§5.1: how many bytes of lost data unit ``su_index`` redundancy
        rebuilds — the one rule ``analyze`` bounds the unit by and
        ``_reconstruct_su`` fetches it by (DESIGN decision 4); metadata
        only.  The larger of the chain's usable prefix and full parity's
        reach (unless ``full_parity`` is False): relocated parity or a
        whole parity SU, exact up to the shortest sibling's valid extent.
        Returns ``(reach, chain_end)``, the end LBA of the deltas to fold,
        or None when full parity is the source, ties included."""
        haves = {j: self._data_extent(stripe, j, other) or 0
                 for j, other in enumerate(layout.data_devices)
                 if j != su_index}
        prefix, chain_end = self._chain(stripe).prefix(self.su, su_index,
                                                       haves)
        if full_parity and (
                (self.zone, stripe) in self.volume.relocated_parity or
                self._su_extent(stripe, layout.parity_device) == self.su):
            # Full parity is computed over a completely written stripe: a
            # sibling shorter than the unit lost real bytes to a rollback,
            # and the zeroes ``_read_su_prefix`` pads it with are not what
            # went into the parity (§5.1's "treated as zeroes" holds for
            # partial parity only, computed over zero-padded buffers).  So
            # it is exact up to the shortest sibling; the shorter reach
            # makes ``_repair_stripe`` roll back rather than write garbage.
            full = min(haves.values(), default=self.su)
            if full >= prefix:
                return full, None
        return prefix, chain_end

    def _reconstruct_su(self, stripe: int, layout, su_index: int):
        """Process-style: the first ``_rebuild_reach`` bytes of lost data
        unit ``su_index``, from the source that reaches further.  A media
        error on the on-device parity falls back to the chain's prefix,
        possibly empty."""
        volume = self.volume
        reach, chain_end = self._rebuild_reach(stripe, layout, su_index)
        parity = None
        if chain_end is None:
            # Relocated parity (§5.2) is the true full parity: the
            # on-device parity SU, if any, holds stale bytes.
            parity = volume.relocated_parity.get((self.zone, stripe))
            if parity is None:
                # A latent extent under the parity unit is tolerated: the
                # chain may still rebuild the unit.
                parity, error = yield from self._read_unit(
                    stripe, layout.parity_device, 0, self.su)
                if error is not None:
                    reach, chain_end = self._rebuild_reach(
                        stripe, layout, su_index, full_parity=False)
        if parity is None:
            chain = self._chain(stripe)
            acc, covered = chain.parity(self.su, chain_end), \
                chain_end - chain.lba
        else:
            acc, covered = bytearray(parity), self.width
        # Fold in the surviving data SUs up to the covered end, zero
        # padding beyond each unit's valid bytes.  Positions past
        # ``reach`` may be garbage (polluted or uncovered): sliced off.
        for j, other in enumerate(layout.data_devices):
            su_covered = max(0, min(self.su, covered - j * self.su))
            if j != su_index and su_covered:
                data = yield from self._read_su_prefix(stripe, j, other,
                                                       su_covered)
                xor_into(acc, data)
        return bytes(acc[:reach])

    # The tail ------------------------------------------------------------------

    def _load_tail(self):
        """Reload the stripe buffer of an incomplete tail stripe: writes
        that complete the stripe compute its full parity from it, and
        degraded reads of the tail are served from it.  A live unit that
        neither its media nor redundancy serves whole is a torn tail: the
        zone rolls back over it (``_salvage``) and loads the new tail,
        whose salvaged unit its relocation unit now serves."""
        while (self.logical_wp - self.zone_start) % self.width:
            stripe, fill = divmod(self.logical_wp - self.zone_start,
                                  self.width)
            layout = self.volume.mapper.stripe_layout(self.zone, stripe)
            torn = []
            data = yield from self._stripe_data(stripe, layout, fill, torn)
            if torn:
                yield from self._salvage(stripe, layout, *torn[0])
                continue
            self.tail = StripeBuffer(self.zone, stripe,
                                     self.volume.config.num_data, self.su)
            self.tail.absorb(0, data)
            return

    def _salvage(self, stripe: int, layout, su_index: int, device: int,
                 take: int, error: MediaError):
        """Roll back over a torn tail unit, a latent extent the rebuild does
        not cover.  Those bytes were never durably acknowledged: a FUA or
        flush ack needs the covering partial parity durable first, so an
        acked byte of the unit is rebuildable.  Its longest genuine prefix
        — the clean bytes before the extent ``error`` names (the media is
        untrustworthy past its start; an error from another device names
        none on this one), or the rebuild, whichever is longer — goes to a
        persisted relocation unit, and the zone ends there."""
        volume = self.volume
        su_lba = volume.mapper.su_lba(self.zone, stripe, su_index)
        try:
            content = (yield from self._reconstruct_su(
                stripe, layout, su_index))[:take]
        except MediaError:
            content = b""
        clean = self._bad_span(stripe, error, 0, take)[0] \
            if error.device == volume.devices[device].name else 0
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
            self.relocated = True
        yield from self._roll_back(su_lba + len(content))
