"""Maintenance operations (paper §4.3, §5.2).

Two multi-step operations need write-ahead logging so they can resume
after power loss:

* **Physical zone rewrite** (§5.2): when a physical zone accumulates more
  relocated stripe units than the configured threshold, its live contents
  are copied into a swap zone, the zone is reset, and the data is written
  back with every relocated stripe unit at its correct address — healing
  the relocations.  A step on the mounted volume: :func:`run_zone_rewrites`.

* **Generation counter maintenance** (§4.3): if any counter reaches its
  maximum, the volume goes read-only; maintenance garbage collects and
  resets all metadata zones, then resets the counters.  The atomicity of
  the operation (WAL + idempotent re-run) lets counters restart without
  impacting data consistency.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from ..block.bio import Bio
from ..errors import DegradedModeError, MediaError, RaiznError
from ..sim import Simulator
from ..units import SECTOR_SIZE
from ..zns.spec import ZoneState
from .mdzone import MetadataRole
from .metadata import (
    MetadataEntry,
    decode_op_wal,
    encode_op_wal,
    encode_partial_parity,
)
from .parity import full_stripe_parity
from .rebuild import ZoneStream, heal_relocations, rebuild
from .volume import DeviceHealth

#: OP_WAL opcodes.
OP_ZONE_REWRITE_START = 1   # copy phase beginning (original intact)
OP_ZONE_REWRITE_COPIED = 2  # staged copy durable; original may be destroyed
OP_GEN_MAINTENANCE = 3      # generation counter maintenance in progress
OP_ZONE_REWRITE_DONE = 4    # write-back durable; the staged copy is spent

#: device, zone, content length, staging zone (0, a data zone, for none).
_REWRITE = struct.Struct("<QQQQ")


def encode_rewrite_wal(opcode: int, device: int, zone: int, length: int,
                       generation: int,
                       staging: Optional[int] = None) -> MetadataEntry:
    """A zone-rewrite WAL entry."""
    return encode_op_wal(
        opcode, _REWRITE.pack(device, zone, length, staging or 0),
        generation=generation)


def decode_rewrite_wal(
        entry: MetadataEntry) -> Tuple[int, int, int, int, Optional[int]]:
    """Returns ``(opcode, device, zone, content_length, staging zone)``,
    the staging zone None when the entry names none."""
    opcode, payload = decode_op_wal(entry)
    device, zone, length, staging = _REWRITE.unpack_from(payload)
    return opcode, device, zone, length, staging or None


def zones_needing_rewrite(volume) -> List[Tuple[int, int]]:
    """(device, zone) pairs whose relocation count exceeds the threshold."""
    threshold = volume.config.relocation_rebuild_threshold
    return sorted(key for key, count in
                  volume.relocations.per_phys_zone.items()
                  if count >= threshold)


def run_zone_rewrites(sim: Simulator, volume) -> List[Tuple[int, int]]:
    """§5.2 maintenance on the mounted volume: rewrite, one after another,
    every zone :func:`zones_needing_rewrite` names on a present device;
    drains the event loop (a write to a zone being rewritten must wait).
    Returns the ``(device, zone)`` pairs rewritten."""
    targets = [key for key in zones_needing_rewrite(volume)
               if key[0] in volume._alive_devices()]
    for device_index, zone in targets:
        sim.run_process(rewrite_physical_zone(volume, device_index, zone))
    return targets


def rewrite_physical_zone(volume, device_index: int, zone: int):
    """Process-style §5.2 zone rewrite for one (device, zone).

    Stage 1 copies the zone's corrected image into a swap zone taken out
    of the pool, which ``REWRITE_COPIED`` names; stage 2 resets the zone
    and writes the image back.  ``REWRITE_DONE`` retires the WAL once
    stage 2 is durable, and only then is the staging zone reset.  Last,
    rotating both of the device's logs erases the WAL and the relocation
    entries and relocated parity the rewrite healed.
    """
    device = volume.devices[device_index]
    if device is None or volume.failed[device_index]:
        raise RaiznError("cannot rewrite a zone on a missing device")
    mdz = volume.mdzones[device_index]
    content = yield from _desired_content(volume, device_index, zone)

    def wal(opcode, staging=None):
        return mdz.append(MetadataRole.GENERAL, encode_rewrite_wal(
            opcode, device_index, zone, len(content),
            volume.generation[zone], staging), fua=True)

    # START, COPIED and DONE share one general zone: rotating the log in
    # between would need a swap zone while the staging zone is out.
    if mdz.remaining(MetadataRole.GENERAL) < 3 * SECTOR_SIZE:
        yield from mdz.force_gc(MetadataRole.GENERAL)
    yield from wal(OP_ZONE_REWRITE_START)
    # Taken after the START append, which may rotate the log into a swap
    # zone.
    staging = yield from mdz._take_swap_zone(MetadataRole.GENERAL)
    if content:
        yield device.submit(Bio.write(staging * volume.phys_zone_size,
                                      content))
    yield device.submit(Bio.flush())
    yield from wal(OP_ZONE_REWRITE_COPIED, staging)

    yield from write_back(volume, device_index, zone, content)
    yield device.submit(Bio.flush())
    yield from wal(OP_ZONE_REWRITE_DONE, staging)
    yield from mdz.quiesce()    # a log zone holding COPIED is reset first
    yield device.submit(Bio.zone_reset(staging * volume.phys_zone_size))
    mdz.used[staging] = 0
    mdz.swap_zones.append(staging)

    # The relocations this device held in the zone are healed in place.
    heal_relocations(volume, device_index, zone)
    for role in MetadataRole:
        yield from mdz.force_gc(role)


def write_back(volume, device_index: int, zone: int, content: bytes):
    """Process-style stage 2 of a zone rewrite, which mount redoes from the
    staged copy: reset the physical zone and write ``content`` back."""
    device = volume.devices[device_index]
    zone_pba = zone * volume.phys_zone_size
    yield device.submit(Bio.zone_reset(zone_pba))
    if content:
        yield device.submit(Bio.write(zone_pba, content))
    volume.phys[device_index][zone].write_pointer = zone_pba + len(content)


def _desired_content(volume, device_index: int, zone: int):
    """The corrected byte image of one device's physical zone: the same
    chunk stream a rebuild writes to a replacement, collected instead —
    the only difference is that the destination device is the same one."""
    stream = ZoneStream(volume, device_index, zone)
    out = bytearray()
    while (chunk := (yield from stream.next_chunk())) is not None:
        out += chunk
    return bytes(out)


# -- generation counter maintenance (§4.3) ------------------------------------


GENERATION_LIMIT = 2 ** 64 - 1


def needs_generation_maintenance(volume) -> bool:
    """True when any counter is at (or one step from) its maximum."""
    return any(g >= GENERATION_LIMIT - 1 for g in volume.generation)


def run_generation_maintenance(sim: Simulator, volume):
    """Process-style §4.3 maintenance: reset every generation counter.

    The caller must hold the volume read-only (the volume enters that
    state automatically on counter overflow).  Idempotent — a crash at
    any point re-runs the whole operation at the next mount, guided by
    the OP_GEN_MAINTENANCE write-ahead log.
    """
    if not volume.read_only:
        raise RaiznError("generation maintenance requires a read-only volume")
    # WAL the intent on every device before mutating anything.
    events = []
    for index in volume._alive_devices():
        events.append(sim.process(volume.mdzones[index].append(
            MetadataRole.GENERAL,
            encode_op_wal(OP_GEN_MAINTENANCE, b"", generation=0),
            fua=True)))
    yield sim.all_of(events)
    # New counters first, so the compaction checkpoints carry them; every
    # stale metadata entry (old, huge generations) dies with the old
    # metadata zones — the guarantee that lets counters restart (§4.3).
    volume.generation = [1] * volume.num_data_zones
    for index in volume._alive_devices():
        yield from volume.mdzones[index].recovery_compact()
    volume.read_only = False
    return True


# -- background scrubbing ------------------------------------------------------


class ScrubReport:
    """What one scrub pass found and fixed."""

    def __init__(self) -> None:
        #: Complete stripes whose parity was checked.
        self.stripes_scanned = 0
        #: Data stripe units the logical read path healed along the way
        #: (latent media errors surfaced by the scrub's own reads).
        self.data_heals = 0
        #: Parity copies that did not match the recomputed value.
        self.parity_mismatches = 0
        #: Parity media errors found on the parity PBA itself.
        self.parity_media_errors = 0
        #: Parity copies re-established (in memory + partial-parity log).
        self.parity_heals = 0
        #: Complete stripes the read could not serve: two devices
        #: unavailable under them, beyond single parity.
        self.unreadable_stripes = 0

    def to_dict(self) -> dict:
        return dict(vars(self))


def check_stripe_parity(volume, desc, stripe: int, probe_if):
    """Process-style check of one complete stripe's parity: read the
    stripe through the volume's read path (which heals latent data errors
    on the way) and recompute its parity; if ``probe_if(parity_device,
    pba)`` holds, read the parity unit from its device — a media error
    coming back as status — and compare.

    Returns ``(parity, error, matches)``: the recomputed parity, the
    probe's error, and whether the unit on the device equals the parity —
    None when it was not probed.
    """
    su = volume.config.stripe_unit_bytes
    bio = yield volume.submit(Bio.read(
        desc.start_lba + stripe * desc.stripe_width, desc.stripe_width))
    parity = full_stripe_parity(bio.result, volume.config.num_data)
    device = volume.mapper.stripe_layout(desc.zone, stripe).parity_device
    pba = desc.zone * volume.phys_zone_size + stripe * su
    if not probe_if(device, pba):
        return parity, None, None
    probe = Bio.read(pba, su)
    probe.errors_as_status = True
    member, tracer = volume.devices[device], volume.tracer
    if tracer is None:
        onboard = yield member.submit(probe)
    else:   # the probe's device read hangs under a scrub verify span
        span = tracer.begin("scrub", "verify", member.name, su)
        event = volume.readpath._traced(span.span_id, member.submit, probe)
        event.add_callback(span)
        onboard = yield event
    return parity, onboard.error, \
        onboard.error is None and onboard.result == parity


def scrub_process(sim: Simulator, volume, idle_delay: float = 0.0,
                  report: Optional[ScrubReport] = None):
    """Process-style background scrub pass over every written stripe.

    Walks each logical zone's complete stripes, reading the stripe
    through the volume's logical read path — which transparently heals
    latent data errors via read-repair — and verifying that the stored
    parity matches the parity recomputed from the data.  Mismatched or
    unreadable parity is routed through the same heal machinery the
    datapath uses: the true parity is recorded in the relocated-parity
    map and persisted to the parity device's partial-parity log (§5.2).

    ``idle_delay`` seconds of simulated idle time are inserted between
    stripes so the scrub trickles along behind foreground IO instead of
    monopolising the channels.
    """
    if report is None:
        report = ScrubReport()
    heals_before = volume.health.heals
    for desc in volume.zone_descs:
        zone = desc.zone
        for stripe in range(desc.written_bytes // desc.stripe_width):
            try:
                expected, error, matches = yield from check_stripe_parity(
                    volume, desc, stripe,
                    _stored_on_media(volume, zone, stripe))
            except DegradedModeError:
                # Nothing to verify or heal from: count it, go on.
                report.unreadable_stripes += 1
                continue
            report.stripes_scanned += 1
            parity_device = volume.mapper.stripe_layout(
                zone, stripe).parity_device
            relocated = volume.relocated_parity.get((zone, stripe))
            if matches is not None:
                if isinstance(error, MediaError):
                    report.parity_media_errors += 1
                    volume.health.media_errors += 1
                    volume._note_device_error(parity_device)
                elif error is None and not matches:
                    report.parity_mismatches += 1
            elif relocated is not None:
                # The authoritative parity is the in-memory/logged copy.
                matches = bytes(relocated) == expected
                report.parity_mismatches += not matches
            elif not volume._device_available(parity_device, zone):
                # Degraded: the parity is gone with the device; the
                # rebuild recreates it.
                matches = True
            elif volume.phys[parity_device][zone].state is ZoneState.OFFLINE:
                # The parity PBA is unreadable (worn-out zone)...
                report.parity_media_errors += 1
            else:
                # ...or holds nothing: until healed, this stripe's parity
                # exists only in partial-parity deltas.
                report.parity_mismatches += 1
            if not matches:
                yield from _heal_parity_copy(volume, desc, stripe, expected,
                                             report)
            if idle_delay:
                yield sim.timeout(idle_delay)
    report.data_heals = volume.health.heals - heals_before
    return report


def _stored_on_media(volume, zone: int, stripe: int):
    """``check_stripe_parity``'s probe condition for the scrub: the
    stripe's stored parity is its unit on the device — no relocated copy
    stands in for it — and that unit is whole on a readable zone."""
    def probe_if(device: int, pba: int) -> bool:
        pdesc = volume.phys[device][zone]
        return (zone, stripe) not in volume.relocated_parity and \
            volume._device_available(device, zone) and \
            pdesc.state is not ZoneState.OFFLINE and \
            pdesc.write_pointer >= pba + volume.config.stripe_unit_bytes
    return probe_if


def _heal_parity_copy(volume, desc, stripe: int, parity: bytes, report):
    """Re-establish one stripe's parity: remember it in the relocated-
    parity map and persist it to the parity device's partial-parity log
    as a whole-stripe delta (offset 0), the same §5.2 path the write
    datapath uses when a parity PBA is unusable."""
    zone = desc.zone
    layout = volume.mapper.stripe_layout(zone, stripe)
    volume.relocated_parity[(zone, stripe)] = parity
    stripe_lba = desc.start_lba + stripe * desc.stripe_width
    entry = encode_partial_parity(stripe_lba, stripe_lba + desc.stripe_width,
                                  volume.generation[zone], 0, parity)
    mdz = volume.mdzones[layout.parity_device]
    if mdz is not None:
        yield from mdz.append(MetadataRole.PARTIAL_PARITY, entry, fua=True)
    volume.health.parity_heals += 1
    report.parity_heals += 1


def run_scrub(sim: Simulator, volume, idle_delay: float = 0.0) -> ScrubReport:
    """Synchronously run one full scrub pass (drains the event loop)."""
    report = ScrubReport()
    process = sim.process(scrub_process(sim, volume, idle_delay, report))
    sim.run()
    if not process.triggered:
        raise RaiznError("scrub never completed")
    if not process.ok:
        raise process.value
    return report


# ---------------------------------------------------------------- health sweep


class HealthSweepReport:
    """Outcome of one gray-failure health-maintenance sweep."""

    def __init__(self) -> None:
        #: Slots currently demoted (reads served from redundancy) but not
        #: yet evicted — on watch, no action taken.
        self.demoted: List[int] = []
        #: Slots replaced this sweep (slow-evicted devices rebuilt onto
        #: fresh replacements).
        self.replaced: List[int] = []
        #: The :class:`~repro.raizn.rebuild.RebuildReport` per replacement.
        self.rebuild_reports: list = []

    def to_dict(self) -> dict:
        return {
            "demoted": list(self.demoted),
            "replaced": list(self.replaced),
            "zones_rebuilt": sum(r.zones_rebuilt
                                 for r in self.rebuild_reports),
        }


def slow_evicted_devices(volume) -> List[int]:
    """Array slots evicted for persistent slowness.

    A slow eviction leaves the device object in place (``remove=False``)
    with its demotion flag still set — distinguishable from a plain
    device loss, whose slot holds ``None`` or a never-demoted device.
    """
    return [index for index in range(volume.config.num_devices)
            if volume.failed[index] and volume.device_health[index].demoted]


def run_health_maintenance(sim: Simulator, volume,
                           replacement_factory) -> HealthSweepReport:
    """Feed slow-evicted devices into the standard rebuild flow.

    The escalation ladder's last rung: a device whose health score stayed
    bad was evicted by the volume (``HealthStats.slow_evictions``); this
    sweep replaces each such device with ``replacement_factory(index)``
    and rebuilds its contents from redundancy, exactly as a fail-stop
    loss would be handled.  The slot's health score is reset afterwards —
    the replacement starts with a clean latency distribution.  Demoted
    but not-yet-evicted devices are only reported: demotion is reversible
    and the volume lifts it on sustained recovery.
    """
    report = HealthSweepReport()
    report.demoted = [
        index for index in range(volume.config.num_devices)
        if not volume.failed[index] and volume.device_health[index].demoted]
    for index in slow_evicted_devices(volume):
        new_device = replacement_factory(index)
        report.rebuild_reports.append(rebuild(sim, volume, index, new_device))
        volume.device_health[index] = DeviceHealth()
        report.replaced.append(index)
    return report
