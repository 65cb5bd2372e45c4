"""The logical write path pinned against committed digests.

Every fate a write piece can meet — in place, omitted (degraded),
relocated at emission (§5.2 conflict, worn physical zone), retried,
escalated, redirected by the failing command itself (data and parity),
logged as partial parity, flushed behind (§5.3), queued behind a zone
reset, refused at the door — is driven through ``volume.submit`` only, by
a closed loop that keeps several bios in flight and issues the next one
from the completion callback, so the order in which completions are
*delivered* feeds the order of later submissions.
``tests/data/write_path_goldens.json`` holds one digest per scenario over
the completion log (callback order, ``complete_time``, op / landing LBA
or the error type), ``HealthStats``, every device's ``DeviceStats``, zone
table and written media, the metadata zones' bookkeeping, the logical
zone table with its persistence frontiers, the relocation store and the
final clock; the health counters, error tallies and metadata-log
rotation counts sit beside it in the clear so the file shows which branch each
scenario reached.  After the digest is taken every acknowledged write is
read back and compared.

A digest that moves means write-path behaviour moved — timing, ordering,
accounting or bytes.  Regenerate with
``PYTHONPATH=src python tests/test_write_path_goldens.py --regen`` only
when that is the intent, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.block import Bio, BioFlags, Op
from repro.errors import TransientCommandError
from repro.faults import fresh_replacement, wear_out_zone
from repro.raizn import RaiznConfig, RaiznVolume
from repro.raizn.mdzone import MetadataRole
from repro.raizn.rebuild import rebuild_process
from repro.sim import Simulator
from repro.units import KiB, MiB
from repro.zns import ZNSDevice

GOLDENS = pathlib.Path(__file__).resolve().parent / "data" / \
    "write_path_goldens.json"

SU = 64 * KiB
STRIPE = 4 * SU
DEPTH = 8
FUA = BioFlags.FUA
PREFLUSH = BioFlags.PREFLUSH
COMMIT = FUA | PREFLUSH


class Array:
    """One formatted, empty five-device array plus what was acknowledged."""

    def __init__(self, zone_capacity=1 * MiB, **config):
        self.sim = Simulator()
        self.devices = [
            ZNSDevice(self.sim, name=f"zns{i}", num_zones=12,
                      zone_capacity=zone_capacity, seed=200 + i)
            for i in range(5)]
        self.volume = RaiznVolume.create(
            self.sim, self.devices,
            RaiznConfig(num_data=4, stripe_unit_bytes=SU, **config),
            array_uuid=b"writepath-golden")
        self.zone = 4 * zone_capacity
        #: Landing offset -> payload of every write acknowledged so far
        #: (dropped again when its zone is reset).
        self.acked = {}
        #: Metadata-log rotations by role, counted from the test side.
        self.rotations = {role.value: 0 for role in MetadataRole}
        for mdz in self.volume.mdzones:
            mdz._swap_in = self._counting(mdz._swap_in)
        #: Full parities that landed with no bio waiting for them.
        self.detached_parities = 0
        attempted = self.volume.writepath._attempted

        def counted(bio):
            self.detached_parities += bio.error is None and \
                getattr(bio.wctx, "join", True) is None
            attempted(bio)
        self.volume.writepath._attempted = counted

    def _counting(self, swap_in):
        def counted(role):
            self.rotations[role.value] += 1
            return swap_in(role)
        return counted

    def location(self, lba):
        """(device index, pba) holding ``lba``."""
        return self.volume.mapper.lba_to_pba(lba)

    def parity_device(self, zone, stripe):
        return self.volume.mapper.stripe_layout(zone, stripe).parity_device


class Streams:
    """Sequential write streams, one per logical zone, emitted round
    robin: each stream's bios are in offset order, so a closed loop
    submits them in order however the streams interleave."""

    def __init__(self, array, seed, zones):
        self.array = array
        self.rng = random.Random(seed)
        self.cursor = {zone: zone * array.zone for zone in zones}
        self.bios = []

    def write(self, zone, length, flags=BioFlags.NONE):
        bio = Bio.write(self.cursor[zone], self.rng.randbytes(length), flags)
        self.cursor[zone] += length
        self.bios.append(bio)
        return bio

    def append(self, zone, length, flags=BioFlags.NONE):
        self.cursor[zone] += length
        self.bios.append(Bio.zone_append(zone * self.array.zone,
                                         self.rng.randbytes(length), flags))

    def mix(self, count, sizes, flags=(BioFlags.NONE,)):
        """``count`` writes, zones round robin, seeded sizes and flags;
        a stream stops short of its zone's end."""
        zones = sorted(self.cursor)
        for i in range(count):
            zone = zones[i % len(zones)]
            room = (zone + 1) * self.array.zone - self.cursor[zone]
            length = min(self.rng.choice(sizes), room)
            if length:
                self.write(zone, length, self.rng.choice(flags))
        return self.bios


def drive(array, bios, depth=DEPTH):
    """Closed loop: ``depth`` bios in flight, the next one issued from
    the completion callback.  Returns the completion log in callback
    order."""
    sim, volume = array.sim, array.volume
    log = []
    source = iter(enumerate(bios))

    def pump():
        item = next(source, None)
        if item is None:
            return
        index, bio = item
        volume.submit(bio).add_callback(
            lambda event, index=index: done(index, event))

    def done(index, event):
        if not event.ok:
            log.append((index, sim.now, type(event.value).__name__))
        else:
            bio = event.value
            outcome = bio.op.value
            if bio.op is Op.READ:
                outcome = hashlib.sha256(bio.result).hexdigest()[:16]
            elif bio.op is Op.WRITE or bio.op is Op.ZONE_APPEND:
                array.acked[bio.offset] = bytes(bio.data)
                if bio.op is Op.ZONE_APPEND:
                    outcome += f"@{bio.result:#x}"
            elif bio.op is Op.ZONE_RESET:
                zone = bio.offset // array.zone
                for offset in [o for o in array.acked
                               if o // array.zone == zone]:
                    del array.acked[offset]
            log.append((index, bio.complete_time, outcome))
        pump()

    for _ in range(depth):
        pump()
    sim.run()
    assert len(log) == len(bios), "closed loop stalled"
    return log


def media_digest(device):
    sha = hashlib.sha256()
    for zone in device.zones:
        sha.update(repr((zone.index, zone.state.value, zone.write_pointer,
                         zone.durable_pointer)).encode())
        sha.update(device._media[zone.start:zone.write_pointer])
    return sha.hexdigest()[:16]


def report(array, log, check=True):
    volume = array.volume
    errors = {}
    for _index, _time, outcome in log:
        if outcome.endswith("Error") or outcome.endswith("Violation"):
            errors[outcome] = errors.get(outcome, 0) + 1
    mdzones = [None if mdz is None else {
        "role_zone": {role.value: mdz.role_zone[role]
                      for role in MetadataRole},
        "swap": mdz.swap_zones, "used": sorted(mdz.used.items()),
        "appended": mdz.appended_bytes, "gc": mdz.gc_cycles}
        for mdz in volume.mdzones]
    state = {
        "log": log,
        "health": volume.health.to_dict(),
        "error_counts": volume.error_counts,
        "failed": volume.failed,
        "devices": [dev.stats.to_dict() for dev in array.devices],
        "media": [media_digest(dev) for dev in array.devices],
        "mdzones": mdzones,
        "volume": volume.stats.to_dict(),
        "zones": [(desc.state.value, desc.write_pointer,
                   desc.persistence.frontier, desc.has_relocations)
                  for desc in volume.zone_descs],
        "phys": [[(pdesc.state.value, pdesc.write_pointer)
                  for pdesc in device] for device in volume.phys],
        "generation": volume.generation,
        "relocations": len(volume.relocations),
        "relocated_parity": sorted(volume.relocated_parity),
        "reset_pending": sorted(volume._reset_pending),
        "now": array.sim.now,
    }
    digest = hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()).hexdigest()[:32]
    if check:
        for offset, data in sorted(array.acked.items()):
            got = volume.execute(Bio.read(offset, len(data))).result
            assert bytes(got) == data, f"acked write at {offset:#x} lost"
    return {"digest": digest,
            "health": {k: v for k, v in state["health"].items() if v},
            "failed": [i for i, gone in enumerate(volume.failed) if gone],
            "errors": errors,
            "md_rotations": array.rotations,
            "relocations": len(volume.relocations),
            "detached_parities": array.detached_parities}


SIZES = (4 * KiB, 4 * KiB, 8 * KiB, 16 * KiB, 28 * KiB, SU, SU + 4 * KiB)

# ---------------------------------------------------------------- scenarios

SCENARIOS = {}


def scenario(fn):
    SCENARIOS[fn.__name__] = fn
    return fn


def sub_stripe_bios(array):
    return Streams(array, 1, (0, 1, 2)).mix(150, SIZES)


@scenario
def sub_stripe():
    """Sub-stripe writes to three zones: data in place, a partial-parity
    log append per write, full parity when a stripe closes."""
    array = Array()
    return report(array, drive(array, sub_stripe_bios(array)))


@scenario
def sub_stripe_traced():
    """Tracing is inert: same digest as ``sub_stripe``."""
    array = Array(tracing=True)
    return report(array, drive(array, sub_stripe_bios(array)))


@scenario
def stripe_crossing():
    """Writes that start mid-unit and span up to four stripes."""
    array = Array()
    bios = Streams(array, 2, (0, 3)).mix(
        40, (SU + 8 * KiB, STRIPE, STRIPE + 12 * KiB, 2 * STRIPE + SU,
             3 * STRIPE + 20 * KiB, 36 * KiB))
    return report(array, drive(array, bios))


@scenario
def zone_crossing():
    """A zone filled to its last byte goes FULL; a write that would
    cross into the next zone is refused whole, as is the write behind it
    (its offset is no longer the write pointer), and the next zone is
    written from its start."""
    array = Array()
    streams = Streams(array, 3, (0, 1))
    zone = array.zone
    streams.write(0, zone - STRIPE - 8 * KiB)
    streams.write(0, STRIPE)
    streams.bios.append(Bio.write(zone - 8 * KiB, bytes(16 * KiB)))  # crosses
    streams.write(0, 8 * KiB)                       # ends on the boundary
    streams.bios.append(Bio.write(zone - 4 * KiB, bytes(4 * KiB)))  # FULL
    for _ in range(6):
        streams.write(1, 2 * STRIPE - 4 * KiB)
    return report(array, drive(array, streams.bios))


@scenario
def fua_writes():
    """Plain writes with FUA writes among them: a FUA write flushes the
    devices holding unpersisted units below it (§5.3) and only those."""
    array = Array()
    bios = Streams(array, 4, (0, 1)).mix(
        120, SIZES, (BioFlags.NONE, BioFlags.NONE, BioFlags.NONE, FUA))
    return report(array, drive(array, bios))


@scenario
def preflush_commits():
    """4 KiB FUA|PREFLUSH commits beside buffered 64 KiB writes, and a
    bare PREFLUSH now and then."""
    array = Array()
    streams = Streams(array, 5, (0, 1, 2))
    for i in range(90):
        if i % 3 == 2:
            streams.write(2, SU)
        elif i % 10 == 7:
            streams.write(i % 2, 8 * KiB, PREFLUSH)
        else:
            streams.write(i % 2, 4 * KiB, COMMIT)
    return report(array, drive(array, streams.bios))


def flush_beside_writes_bios(array):
    bios = Streams(array, 6, (0, 1, 2)).mix(
        90, SIZES, (BioFlags.NONE, BioFlags.NONE, FUA))
    for slot in range(85, 0, -7):
        bios.insert(slot, Bio.flush())
    return bios


@scenario
def flush_beside_writes():
    """``Op.FLUSH`` bios in the window with buffered and FUA writes."""
    array = Array()
    return report(array, drive(array, flush_beside_writes_bios(array)))


@scenario
def flush_beside_writes_traced():
    """Tracing is inert where flushes are elided too: same digest as
    ``flush_beside_writes``."""
    array = Array(tracing=True)
    return report(array, drive(array, flush_beside_writes_bios(array)))


@scenario
def commits_beside_reads():
    """The OLTP shape: 4 KiB durable commits, reads of what was written
    a window earlier in the same ticks, a FLUSH every 16 bios."""
    array = Array()
    streams = Streams(array, 23, (0, 1))
    bios = []
    for i in range(120):
        commit = streams.write(i % 2, 4 * KiB if i % 5 else 16 * KiB, COMMIT)
        bios.append(commit)
        if i >= 16 and i % 2:
            old = streams.bios[i - 16]
            bios.append(Bio.read(old.offset, old.length))
        if i % 16 == 15:
            bios.append(Bio.flush())
    return report(array, drive(array, bios))


@scenario
def stripe_completed_on_its_delta():
    """4 KiB FUA writes that complete a stripe, acknowledged on their
    logged delta: each stripe's parity lands behind its write, and its
    in-memory copy is dropped then.  A FUA write completing a stripe with
    a whole unit, and a plain one with 4 KiB, wait for their parity."""
    array = Array()
    streams = Streams(array, 25, (0, 1, 2))
    for _stripe in range(5):
        for zone, flags in ((0, FUA), (1, FUA), (2, BioFlags.NONE)):
            tail = SU if zone == 1 else 4 * KiB
            streams.write(zone, STRIPE - tail - 8 * KiB)
            streams.write(zone, 8 * KiB, COMMIT)
            streams.write(zone, tail, flags)
            streams.bios.append(Bio.read(streams.cursor[zone] - STRIPE,
                                         STRIPE))
    streams.bios.append(Bio.flush())
    result = report(array, drive(array, streams.bios))
    assert not array.volume.relocated_parity
    return result


@scenario
def zone_appends():
    """Zone appends land at the write pointer and report where; one
    aimed past the zone start is refused."""
    array = Array()
    streams = Streams(array, 7, (0, 1))
    for i in range(60):
        length = streams.rng.choice(SIZES)
        if i % 4 == 3:
            streams.write(i % 2, length)
        else:
            streams.append(i % 2, length, FUA if i % 5 == 0 else BioFlags.NONE)
    streams.bios.insert(9, Bio.zone_append(4 * KiB, bytes(4 * KiB)))
    return report(array, drive(array, streams.bios))


@scenario
def failed_device():
    """One device gone before the writes: its pieces are omitted, parity
    covers them, and reads of them reconstruct."""
    array = Array()
    array.volume.fail_device(array.location(SU)[0])
    bios = Streams(array, 8, (0, 1)).mix(
        80, SIZES + (STRIPE + 8 * KiB,), (BioFlags.NONE, FUA))
    return report(array, drive(array, bios))


@scenario
def relocation_armed():
    """§5.2 state: one unit of stripe 0 already lives in the log, so the
    device's write pointer stays behind and every later piece for it is
    relocated at emission."""
    array = Array()
    array.volume.execute(Bio.write(0, random.Random(9).randbytes(8 * KiB)))
    armed = array.location(2 * SU)[0]
    array.volume.relocations.unit_for(2 * SU, armed, 0)
    array.volume.zone_descs[0].has_relocations = True
    streams = Streams(array, 9, (0, 1))
    streams.cursor[0] = 8 * KiB
    bios = streams.mix(60, SIZES + (STRIPE,), (BioFlags.NONE, FUA))
    return report(array, drive(array, bios))


def worn_zone(offline):
    array = Array()
    array.volume.execute(Bio.write(0, random.Random(10).randbytes(8 * KiB)))
    worn = array.location(3 * SU)[0]
    wear_out_zone(array.devices[worn], 0, offline=offline)
    array.volume._sync_phys_desc(worn, 0)     # the volume has noticed
    streams = Streams(array, 10, (0, 1))
    streams.cursor[0] = 8 * KiB
    bios = streams.mix(60, SIZES + (STRIPE,), (BioFlags.NONE, FUA))
    # An OFFLINE zone cannot serve the 8 KiB it already held, and its
    # relocated units are not rebuilt from parity either: no read-back.
    return report(array, drive(array, bios), check=not offline)


@scenario
def read_only_physical_zone():
    """A worn (READ_ONLY) physical zone the volume knows about: data and
    parity for it go to the log at emission."""
    return worn_zone(offline=False)


@scenario
def offline_physical_zone():
    return worn_zone(offline=True)


def flaky_writes(device, rng, probability):
    def hook(dev, bio):
        if bio.op is Op.WRITE and rng.random() < probability:
            raise TransientCommandError(f"{dev.name}: injected")
    device.add_hook("pre_apply", hook)


@scenario
def transient_retry_then_escalation():
    """Two flaky devices: most pieces succeed on a retry (and the pieces
    queued behind a rejected one come back as write-pointer violations
    and retry too), some exhaust the budget and fail their write."""
    array = Array(max_transient_retries=2)
    rng = random.Random(11)
    flaky_writes(array.devices[1], rng, 0.3)
    flaky_writes(array.devices[3], rng, 0.08)
    bios = Streams(array, 11, (0, 1, 2)).mix(90, SIZES + (STRIPE,))
    return report(array, drive(array, bios), check=False)


@scenario
def wpv_collateral():
    """One rejected piece with a later piece for the same physical zone
    already behind it: the later one arrives ahead of the device's write
    pointer, both retry after the same backoff, in order."""
    array = Array()
    victim = array.devices[array.location(0)[0]]
    rejected = []

    def hook(dev, bio):
        if bio.op is Op.WRITE and len(rejected) < 3 and \
                bio.offset % (2 * SU) == 0 and bio.offset not in rejected:
            rejected.append(bio.offset)
            raise TransientCommandError(f"{dev.name}: injected")
    victim.add_hook("pre_apply", hook)
    bios = Streams(array, 12, (0,)).mix(12, (3 * STRIPE, 2 * STRIPE + SU))
    result = report(array, drive(array, bios))
    assert len(rejected) == 3
    return result


@scenario
def wear_out_redirects_data():
    """Physical zones go READ_ONLY under a full window, unknown to the
    volume: the failing data writes themselves are redirected into the
    general log, later pieces at emission."""
    array = Array()
    streams = Streams(array, 13, (0, 1))
    bios = streams.mix(80, SIZES + (STRIPE,), (BioFlags.NONE, FUA))
    sim = array.sim
    for at, lba in ((400e-6, SU), (900e-6, array.zone + 2 * SU)):
        device = array.location(lba)[0]
        sim.schedule(at, wear_out_zone, array.devices[device],
                     lba // array.zone)
    return report(array, drive(array, bios))


@scenario
def wear_out_redirects_parity():
    """The first command to meet the worn zone is a full-parity write:
    the parity stays in memory, one cumulative log entry covers the
    stripe; the data pieces that follow find the descriptor synced."""
    array = Array()
    for zone in (0, 1):
        wear_out_zone(array.devices[array.parity_device(zone, 0)], zone)
    streams = Streams(array, 14, (0, 1))
    streams.write(0, STRIPE, FUA)
    streams.write(1, SU)
    streams.write(1, 3 * SU)
    bios = streams.mix(40, SIZES + (STRIPE,))
    result = report(array, drive(array, bios))
    assert (0, 0) in array.volume.relocated_parity
    assert (1, 0) in array.volume.relocated_parity
    return result


def small_md_zones(**config):
    """256 KiB zones: a metadata zone holds 32 partial-parity entries of
    a 4 KiB write, so logs rotate every few dozen writes."""
    return Array(zone_capacity=256 * KiB, **config)


@scenario
def mdzone_rotation_partial_parity():
    """The partial-parity log fills and rotates under the window: the old
    zone's checkpoint, flush and reset run behind the appends."""
    array = small_md_zones()
    bios = Streams(array, 15, (0, 1, 2, 3)).mix(
        420, (4 * KiB, 4 * KiB, 8 * KiB, 12 * KiB), (BioFlags.NONE, FUA))
    return report(array, drive(array, bios))


def general_log_rotation(array):
    volume = array.volume
    volume.execute(Bio.write(0, random.Random(16).randbytes(8 * KiB)))
    armed = array.location(SU)[0]
    volume.relocations.unit_for(SU, armed, 0)
    volume.zone_descs[0].has_relocations = True
    streams = Streams(array, 16, (0,))
    streams.cursor[0] = 8 * KiB
    bios = streams.mix(200, (4 * KiB, 4 * KiB, 8 * KiB),
                       (BioFlags.NONE, FUA))
    return report(array, drive(array, bios))


@scenario
def mdzone_rotation_general():
    """Relocated pieces fill the general log until it rotates, its
    checkpoint carrying the relocated units themselves."""
    # Both roles of one device rotate at once: a swap zone for each.
    return general_log_rotation(small_md_zones(num_metadata_zones=4))


@scenario
def mdzone_rotation_three_zones():
    """The same with the default three metadata zones: the rotation that
    finds the one swap zone taken waits for the other role's reclaim."""
    array = small_md_zones()
    result = general_log_rotation(array)
    assert sum(mdz.swap_waits for mdz in array.volume.mdzones)
    return result


@scenario
def reset_racing_queued_writes():
    """A zone reset with the zone's writes still in flight, writes and a
    second reset queued behind it, and a neighbour zone written
    throughout.  A write submitted while the reset persists the zone's
    new generation waits behind the queued writes instead of overtaking
    them, so none is refused."""
    array = Array()
    streams = Streams(array, 17, (0, 1))
    for round_ in range(4):
        for i in range(10):
            streams.write(0, streams.rng.choice(SIZES),
                          FUA if i % 4 == 0 else BioFlags.NONE)
            streams.write(1, 16 * KiB)
        streams.bios.append(Bio.zone_reset(0))
        if round_ == 2:
            streams.bios.append(Bio.zone_reset(0))
        streams.cursor[0] = 0
    streams.write(0, STRIPE + 4 * KiB, FUA)
    return report(array, drive(array, streams.bios))


@scenario
def failed_reset_releases_queued_writes():
    """A device dies under the volume and the next zone reset fails on
    it: the writes parked behind the reset are dispatched against the
    un-reset zone — the one continuing at the write pointer completes
    (degraded), the ones aimed at offset 0 are refused — and the zone is
    not left ``reset_in_progress``."""
    array = Array()
    streams = Streams(array, 24, (0, 1))
    for _ in range(6):
        streams.write(0, 16 * KiB)
        streams.write(1, 16 * KiB)
    array.sim.schedule(250e-6, array.devices[array.location(0)[0]].fail_device)
    streams.bios.append(Bio.zone_reset(0))
    streams.write(0, 8 * KiB, FUA)              # continues the old zone
    streams.bios.append(Bio.write(0, bytes(8 * KiB)))   # expects the reset
    for _ in range(6):
        streams.write(1, 16 * KiB)
    streams.bios.append(Bio.zone_reset(0))      # now degraded: succeeds
    streams.cursor[0] = 0
    streams.mix(12, SIZES, (BioFlags.NONE, FUA))
    result = report(array, drive(array, streams.bios))
    assert not array.volume._reset_pending
    return result


@scenario
def device_fails_mid_write():
    """The device dies under a full window: in-flight pieces come back
    failed, later ones are rejected, the volume evicts it and the writes
    complete degraded."""
    array = Array()
    victim = array.devices[array.location(SU)[0]]
    array.sim.schedule(500e-6, victim.fail_device)
    bios = Streams(array, 18, (0, 1, 2)).mix(
        120, SIZES + (STRIPE,), (BioFlags.NONE, FUA))
    return report(array, drive(array, bios))


@scenario
def device_powered_off_mid_write():
    """Power cut on one device, unknown to the volume and not a reason
    to evict: the writes that reach it fail."""
    array = Array()
    victim = array.devices[array.location(2 * SU)[0]]
    array.sim.schedule(400e-6, victim.power_off)
    bios = Streams(array, 20, (0, 1)).mix(60, SIZES, (BioFlags.NONE, FUA))
    return report(array, drive(array, bios), check=False)


@scenario
def fully_degraded_fan_out():
    """Writes with no device command at all: empty writes, and — one
    device mid-rebuild, a second one evicted under it — writes to a zone
    not rebuilt yet whose data unit and parity unit are both
    unavailable."""
    array = Array()
    sim, volume = array.sim, array.volume
    fill = Streams(array, 21, (0, 1, 2))
    for zone in (0, 1, 2):
        fill.write(zone, 6 * STRIPE)
    drive(array, fill.bios)
    rebuilding = array.parity_device(2, 6)
    second = array.location(2 * array.zone + 6 * STRIPE)[0]
    volume.fail_device(rebuilding)
    replacement = fresh_replacement(sim, array.devices[0], name="spare")
    rebuild = sim.process(rebuild_process(sim, volume, rebuilding,
                                          replacement))
    rebuild.add_callback(lambda event: None)    # its failure is expected
    sim.schedule(150e-6, array.devices[second].fail_device)
    streams = Streams(array, 22, (2, 3))
    streams.cursor[2] = fill.cursor[2]
    for i in range(40):
        if i % 8 == 5:
            streams.write(3, 0)
        streams.write(2 if i % 2 else 3, 4 * KiB, FUA if i % 3 == 0
                      else BioFlags.NONE)
    result = report(array, drive(array, streams.bios), check=False)
    assert rebuild.triggered
    return result


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name):
    golden = json.loads(GOLDENS.read_text())
    assert SCENARIOS[name]() == golden[name], \
        f"{name}: write-path behaviour changed"


def test_goldens_reach_the_branches_they_name():
    """The matrix is not vacuous: each scenario's committed counters show
    the branch it exists for."""
    golden = json.loads(GOLDENS.read_text())
    assert sorted(golden) == sorted(SCENARIOS)
    assert len(SCENARIOS) >= 20
    assert golden["sub_stripe"] == golden["sub_stripe_traced"]
    assert golden["flush_beside_writes"] == \
        golden["flush_beside_writes_traced"]
    for name in ("sub_stripe", "stripe_crossing", "fua_writes",
                 "preflush_commits", "flush_beside_writes", "failed_device",
                 "relocation_armed", "read_only_physical_zone",
                 "wpv_collateral", "mdzone_rotation_partial_parity",
                 "mdzone_rotation_general", "mdzone_rotation_three_zones",
                 "commits_beside_reads", "stripe_completed_on_its_delta"):
        assert not golden[name]["errors"], name
    assert set(golden["zone_crossing"]["errors"]) == {
        "InvalidAddressError", "ZoneStateError"}
    assert golden["zone_appends"]["errors"] == {"InvalidAddressError": 1}
    expected_health = {
        "transient_retry_then_escalation": ("transient_retries",
                                            "transient_escalations"),
        "wpv_collateral": ("transient_retries",),
        "wear_out_redirects_data": ("wear_errors",),
        "wear_out_redirects_parity": ("wear_errors",),
    }
    for name, counters in expected_health.items():
        for counter in counters:
            assert golden[name]["health"].get(counter), (name, counter)
    for name in ("relocation_armed", "read_only_physical_zone",
                 "offline_physical_zone", "wear_out_redirects_data",
                 "mdzone_rotation_general"):
        assert golden[name]["relocations"], name
    assert golden["mdzone_rotation_partial_parity"]["md_rotations"][
        "partial_parity"] >= 5
    # Five stripes completed by a 4 KiB FUA write: five detached parities.
    assert golden["stripe_completed_on_its_delta"]["detached_parities"] == 5
    for name in ("mdzone_rotation_general", "mdzone_rotation_three_zones"):
        assert all(golden[name]["md_rotations"].values()), name
    # The scenarios whose digest a change to metadata GC timing moves.
    assert {name for name, entry in golden.items()
            if any(entry["md_rotations"].values())} == {
        "sub_stripe", "sub_stripe_traced", "fua_writes",
        "device_fails_mid_write", "reset_racing_queued_writes",
        "mdzone_rotation_partial_parity", "mdzone_rotation_general",
        "mdzone_rotation_three_zones"}
    assert golden["reset_racing_queued_writes"]["errors"] == {}
    assert golden["failed_reset_releases_queued_writes"]["errors"] == {
        "DeviceFailedError": 1, "WritePointerViolation": 1}
    for name in ("failed_device", "device_fails_mid_write"):
        assert len(golden[name]["failed"]) == 1, name
    assert golden["device_powered_off_mid_write"]["errors"].get(
        "PowerLossError")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_write_path_goldens.py --regen")
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(
        {name: SCENARIOS[name]() for name in sorted(SCENARIOS)},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(SCENARIOS)} digests to {GOLDENS}")
