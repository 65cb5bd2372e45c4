"""The logical read path pinned against committed digests.

Every kind of read piece the volume can serve — healthy, multi-piece and
zone-crossing, served from the stripe buffer, relocated and stitched,
retried, escalated, healed, worn out, demoted, hedged (win, lose and
same-tick tie), degraded, degraded beside the direct reads that want the
same survivors, failing mid-read, behind a rebuild, refused —
is driven through ``volume.submit`` only, by a closed loop that keeps
several reads in flight and issues the next one from the completion
callback, so the order in which completions are *delivered* feeds the
order of later submissions.  ``tests/data/read_path_goldens.json`` holds
one digest per scenario over the completion log (callback order,
``complete_time``, sha of the result or the error type), ``HealthStats``,
every device's ``DeviceStats`` and the final clock; the device read
count, the health counters and error tallies sit beside it in the clear
so the file shows which branch each scenario reached and what it cost.

A digest that moves means read-path behaviour moved — timing, ordering,
accounting or bytes.  Regenerate with
``PYTHONPATH=src python tests/test_read_path_goldens.py --regen`` only
when that is the intent, and say why in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
import random
import sys

import pytest

from repro.block import Bio, Op
from repro.block.timing import zns_zn540_model
from repro.errors import TransientCommandError
from repro.faults import fresh_replacement, wear_out_zone
from repro.raizn import RaiznConfig, RaiznVolume
from repro.raizn.config import TRANSIENT_BACKOFF_S
from repro.raizn.rebuild import rebuild_process
from repro.raizn.volume import HEDGE_MIN_SAMPLES
from repro.sim import Simulator
from repro.units import KiB, MiB
from repro.zns import ZNSDevice

GOLDENS = pathlib.Path(__file__).resolve().parent / "data" / \
    "read_path_goldens.json"

SU = 64 * KiB
STRIPE = 4 * SU
ZONE = 4 * MiB                      # logical zone: 4 data x 1 MiB
#: Zone 0 is full, zone 1 holds five stripes and a 1.5-SU tail that lives
#: in the stripe buffer, zone 2 holds three stripes.
ZONE1_END = ZONE + 5 * STRIPE + SU + SU // 2
ZONE2_END = 2 * ZONE + 3 * STRIPE
DEPTH = 8


class Array:
    """One formatted, written five-device array plus what was written.

    ``wear`` lists ``(lba, device)``: the device's zone under ``lba``
    wears out READ_ONLY just before the write reaches ``lba``, so the
    write path sends the rest of that unit, and the device's later units
    in the zone, to relocation units (§5.2)."""

    def __init__(self, model=None, wear=(), **config):
        self.sim = Simulator()
        self.devices = [
            ZNSDevice(self.sim, name=f"zns{i}", num_zones=12,
                      zone_capacity=1 * MiB, model=model, seed=100 + i)
            for i in range(5)]
        self.volume = RaiznVolume.create(
            self.sim, self.devices,
            RaiznConfig(num_data=4, stripe_unit_bytes=SU, **config),
            array_uuid=b"read-path-golden")
        self.expected = bytearray(3 * ZONE)
        rng = random.Random(20230403)
        for start, end in ((0, ZONE), (ZONE, ZONE1_END),
                           (2 * ZONE, ZONE2_END)):
            for lba in range(start, end, STRIPE):
                data = rng.randbytes(min(STRIPE, end - lba))
                self.expected[lba:lba + len(data)] = data
                position = lba
                for at, device in wear:
                    if lba <= at < lba + len(data):
                        self.volume.execute(Bio.write(
                            position, data[position - lba:at - lba]))
                        position = at
                        wear_out_zone(self.devices[device], at // ZONE)
                self.volume.execute(Bio.write(
                    position, data[position - lba:]))
        self.volume.execute(Bio.flush())

    def location(self, lba):
        """(device index, pba) holding ``lba``."""
        return self.volume.mapper.lba_to_pba(lba)


def read_mix(seed, count=96):
    """Seeded (offset, length) reads over the written extents, the
    structurally interesting ones first."""
    reads = [
        (ZONE - 2 * SU, STRIPE),               # crosses zone 0 -> zone 1
        (0, 2 * STRIPE),                       # eight whole pieces
        (SU // 2, SU),                         # straddles two units
        (ZONE + 5 * STRIPE, SU + SU // 2),     # the buffered tail stripe
        (ZONE + 5 * STRIPE + SU, 4 * KiB),     # inside the partial tail SU
        (ZONE + 4 * STRIPE + 3 * SU, 2 * SU),  # sealed stripe into the tail
        (2 * ZONE, 3 * STRIPE),                # a whole written extent
    ]
    rng = random.Random(seed)
    extents = ((0, ZONE1_END), (2 * ZONE, ZONE2_END))
    while len(reads) < count:
        start, end = extents[rng.random() < 0.25]
        length = rng.choice((4 * KiB, 4 * KiB, 8 * KiB, 16 * KiB, SU,
                             2 * SU, STRIPE, 2 * STRIPE))
        offset = start + rng.randrange((end - start) // (4 * KiB)) * 4 * KiB
        reads.append((offset, min(length, end - offset)))
    return reads


def drive(array, bios, depth=DEPTH, check=True):
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
            if bio.op is Op.READ:
                result = bytes(bio.result)
                if check:
                    assert result == array.expected[
                        bio.offset:bio.offset + bio.length], \
                        f"read {index} returned wrong bytes"
                outcome = hashlib.sha256(result).hexdigest()[:16]
            else:
                outcome = bio.op.value
            log.append((index, bio.complete_time, outcome))
        pump()

    for _ in range(depth):
        pump()
    sim.run()
    assert len(log) == len(bios), "closed loop stalled"
    return log


def reads_of(pairs):
    return [Bio.read(offset, length) for offset, length in pairs]


def report(array, log):
    volume = array.volume
    errors = {}
    for _index, _time, outcome in log:
        if outcome.endswith("Error") or outcome.endswith("Violation"):
            errors[outcome] = errors.get(outcome, 0) + 1
    state = {
        "log": log,
        "health": volume.health.to_dict(),
        "error_counts": volume.error_counts,
        "failed": volume.failed,
        "devices": [dev.stats.to_dict() if dev is not None else None
                    for dev in array.devices],
        "volume": volume.stats.to_dict(),
        "relocations": len(volume.relocations),
        "now": array.sim.now,
    }
    digest = hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()).hexdigest()[:32]
    return {"digest": digest,
            "device_reads": sum(dev["reads"] for dev in state["devices"]
                                if dev is not None),
            "health": {k: v for k, v in state["health"].items() if v},
            "failed": [i for i, gone in enumerate(volume.failed) if gone],
            "errors": errors}


# ---------------------------------------------------------------- scenarios

SCENARIOS = {}


def scenario(fn):
    SCENARIOS[fn.__name__] = fn
    return fn


@scenario
def healthy():
    array = Array()
    return report(array, drive(array, reads_of(read_mix(1))))


@scenario
def healthy_traced():
    """Tracing is inert: same digest as ``healthy``."""
    array = Array(tracing=True)
    return report(array, drive(array, reads_of(read_mix(1))))


@scenario
def refused_reads():
    """Beyond the write pointer, outside the volume, misaligned — each
    refused at the door, between reads that are served."""
    array = Array()
    pairs = read_mix(2, count=24)
    for slot, pair in ((3, (ZONE1_END - 4 * KiB, 8 * KiB)),
                       (5, (ZONE - SU, ZONE)),          # zone 1 too short
                       (9, (2 * ZONE + 3 * STRIPE, 4 * KiB)),
                       (11, (40 * MiB - 4 * KiB, 8 * KiB)),
                       (13, (1 * KiB, 4 * KiB)),
                       (17, (5 * ZONE, 4 * KiB))):      # an empty zone
        pairs.insert(slot, pair)
    return report(array, drive(array, reads_of(pairs)))


@scenario
def same_tick_writes():
    """Reads beside sequential FUA writes to another zone, both issued
    from completion callbacks: per-device submission order between a
    read's fan-out and a same-tick write's must not move."""
    array = Array()
    rng = random.Random(3)
    bios = []
    lba = 3 * ZONE
    for offset, length in read_mix(3, count=64):
        bios.append(Bio.read(offset, length))
        if len(bios) % 3 == 0:
            data = rng.randbytes(rng.choice((4 * KiB, 16 * KiB, SU)))
            bios.append(Bio.write(lba, data))
            lba += len(data)
    # The writes are sequential in one zone, so they must be *submitted*
    # in order: a closed loop does that as long as the source is ordered.
    return report(array, drive(array, bios))


@scenario
def failed_device():
    """One device gone before the reads: every piece on it is rebuilt
    from the survivors, the buffered tail comes from memory."""
    array = Array()
    array.volume.fail_device(array.location(0)[0])
    return report(array, drive(array, reads_of(read_mix(4))))


@scenario
def failed_device_traced():
    """Tracing is inert on the degraded path too: same digest as
    ``failed_device``."""
    array = Array(tracing=True)
    array.volume.fail_device(array.location(0)[0])
    return report(array, drive(array, reads_of(read_mix(4))))


@scenario
def tail_stripe_from_buffer():
    """Degraded reads confined to the incomplete tail stripe: served
    from the stripe buffer inside the start hop, no device command."""
    array = Array()
    array.volume.fail_device(array.location(ZONE + 5 * STRIPE)[0])
    tail = ZONE + 5 * STRIPE
    pairs = [(tail, 4 * KiB), (tail + 8 * KiB, SU - 8 * KiB),
             (tail, SU), (tail + 4 * KiB, 4 * KiB)] * 4
    before = [dev.stats.reads for dev in array.devices]
    result = report(array, drive(array, reads_of(pairs)))
    assert [dev.stats.reads for dev in array.devices] == before
    return result


@scenario
def device_fails_mid_read():
    """The device dies under a full window: in-flight commands come back
    failed, later ones are rejected, the volume evicts and reconstructs."""
    array = Array()
    victim = array.devices[array.location(SU)[0]]
    array.sim.schedule(300e-6, victim.fail_device)
    return report(array, drive(array, reads_of(read_mix(5))))


@scenario
def second_device_fails_mid_read():
    """A second death is past the parity tolerance: pieces on it fail
    with DataLossError, reconstructions through it fail, the rest of the
    window is still served, and a failed bio fails exactly once."""
    array = Array()
    first, second = array.location(0)[0], array.location(SU)[0]
    array.sim.schedule(200e-6, array.devices[first].fail_device)
    array.sim.schedule(500e-6, array.devices[second].fail_device)
    return report(array, drive(array, reads_of(read_mix(6))))


@scenario
def device_powered_off_mid_read():
    """Power cut on one device, unknown to the volume: rejected pieces
    are served from redundancy and nothing is evicted."""
    array = Array()
    victim = array.devices[array.location(2 * SU)[0]]
    array.sim.schedule(250e-6, victim.power_off)
    return report(array, drive(array, reads_of(read_mix(7))))


def flaky_reads(device, rng, probability):
    def hook(dev, bio):
        if bio.op is Op.READ and rng.random() < probability:
            raise TransientCommandError(f"{dev.name}: injected")
    device.add_hook("pre_apply", hook)


@scenario
def transient_retry_then_escalation():
    """Two flaky devices: most commands succeed on a retry, some exhaust
    the budget and are served from redundancy — survivor reads retry too."""
    array = Array(max_transient_retries=2)
    rng = random.Random(8)
    flaky_reads(array.devices[1], rng, 0.55)
    flaky_reads(array.devices[3], rng, 0.15)
    return report(array, drive(array, reads_of(read_mix(8))))


def mark_bad_units(array, rng, count, extent=SU):
    for _ in range(count):
        lba = rng.randrange(ZONE // SU) * SU
        device, pba = array.location(lba)
        array.devices[device].mark_bad(pba, extent)


@scenario
def media_error_heal():
    """Latent errors under concurrent reads: reconstruct, relocate,
    persist FUA, serve; later reads come from the relocated unit."""
    array = Array()
    mark_bad_units(array, random.Random(9), 10)
    pairs = read_mix(9) + [(0, ZONE // 2), (ZONE // 2, ZONE // 2)]
    return report(array, drive(array, reads_of(pairs)))


@scenario
def media_error_unrepaired():
    """Detection-power mode: the corrupt view is served as is."""
    array = Array(read_repair=False)
    mark_bad_units(array, random.Random(10), 6, extent=4 * KiB)
    return report(array, drive(array, reads_of(read_mix(10)), check=False))


@scenario
def media_error_on_survivor():
    """A latent error on a survivor of a degraded stripe is a double
    fault: those reads fail with MediaError, the others are served."""
    array = Array()
    array.volume.fail_device(array.location(0)[0])
    mark_bad_units(array, random.Random(11), 6)
    return report(array, drive(array, reads_of(read_mix(11)), check=False))


@scenario
def media_errors_evict_the_device():
    """Enough charged errors cross the threshold: the device is evicted
    between two pieces of the same window."""
    array = Array(device_error_threshold=3)
    device, _pba = array.location(0)
    for stripe in range(8):
        layout = array.volume.mapper.stripe_layout(0, stripe)
        if device in layout.data_devices:
            array.devices[device].mark_bad(stripe * SU, SU)
    return report(array, drive(array, reads_of(read_mix(12))))


@scenario
def offline_zone():
    """An OFFLINE physical zone (end of life): reads of it come back
    ZoneStateError, are reconstructed and relocated like a media error."""
    array = Array()
    array.devices[array.location(0)[0]].set_zone_offline(0)
    array.devices[array.location(ZONE)[0]].set_zone_offline(1)
    return report(array, drive(array, reads_of(read_mix(13))))


#: Two units at the end of zone 0 split between their device and the
#: log: device 1 wears out 16 KiB into unit 0 of stripe 14, and device 2
#: 48 KiB into unit 2 of stripe 15, so each device keeps that prefix and
#: a relocation unit takes the rest; device 1's unit 1 of stripe 15 is
#: relocated whole.
WORN = 14 * STRIPE
WEAR = ((WORN + 16 * KiB, 1), (WORN + STRIPE + 2 * SU + 48 * KiB, 2))
#: Reads of the worn stripes: device prefix only, across the boundary,
#: log only, whole stitched units, and the wholly relocated unit.
WORN_READS = [
    (WORN, SU), (WORN, 16 * KiB), (WORN + 8 * KiB, 16 * KiB),
    (WORN + 16 * KiB, 48 * KiB), (WORN + SU, SU), (WORN, 2 * STRIPE),
    (WORN + STRIPE + SU, SU), (WORN + STRIPE + 2 * SU, SU),
    (WORN + STRIPE + 2 * SU + 40 * KiB, 16 * KiB), (WORN + STRIPE, STRIPE)]


@scenario
def relocated_and_stitched():
    array = Array(wear=WEAR)
    return report(array, drive(array, reads_of(WORN_READS * 3
                                                + read_mix(14, 48))))


@scenario
def stitched_gap_needs_repair():
    """The on-device prefixes of the two stitched units sit on bad
    media: the prefix read heals the whole unit."""
    array = Array(wear=WEAR)
    for lba in (WORN + 4 * KiB, WORN + STRIPE + 2 * SU + 32 * KiB):
        device, pba = array.location(lba)
        array.devices[device].mark_bad(pba, 4 * KiB)
    return report(array, drive(array, reads_of(WORN_READS * 2)))


@scenario
def stitched_unit_on_lost_device():
    """The device under a partly relocated unit is gone: its prefix
    bytes are unreadable, so the whole piece is rebuilt from
    redundancy."""
    array = Array(wear=WEAR)
    array.volume.fail_device(array.location(WORN + STRIPE + 2 * SU)[0])
    return report(array, drive(array, reads_of(WORN_READS * 2)))


def warmed(array):
    """Read zone 0 until every device's read EWMA can derive a deadline."""
    volume = array.volume
    for _ in range(8):
        if all(health.read.samples >= HEDGE_MIN_SAMPLES
               for health in volume.device_health):
            return
        for lba in range(0, ZONE, STRIPE):
            volume.execute(Bio.read(lba, STRIPE))
    raise AssertionError("read EWMAs never warmed up")


@scenario
def demoted_device():
    """A demoted device is avoided for reads while every other device is
    up; with a second one down it is still the best source."""
    array = Array(failslow_protection=True)
    warmed(array)
    victim = array.location(0)[0]
    health = array.volume.device_health[victim]
    health.demoted = True
    health.slow_score = 0.8  # healthy samples (hedge sources) decay it
    reads = [dev.stats.reads for dev in array.devices]
    log = drive(array, reads_of(read_mix(15, 48)))
    served = [dev.stats.reads - before
              for dev, before in zip(array.devices, reads)]
    assert served[victim] < min(served[:victim] + served[victim + 1:]) // 2
    array.volume.fail_device(array.location(SU)[0])
    log += drive(array, reads_of(read_mix(16, 48)))
    return report(array, log)


def stall_reads(array, victim, delay_for):
    """Hold every read on ``victim`` for ``delay_for(deadline)`` extra
    seconds, ``deadline`` being the hedge deadline the volume derives for
    that command."""
    volume = array.volume

    def hook(dev, bio):
        if bio.op is not Op.READ:
            return 0.0
        deadline = volume.device_health[victim].read.threshold()
        return delay_for(deadline, dev, bio)
    array.devices[victim].add_hook("service_delay", hook)


@scenario
def hedge_wins():
    """A 20 ms stall: the reconstruction serves long before the straggler."""
    array = Array(failslow_protection=True)
    warmed(array)
    victim = array.location(0)[0]
    rng = random.Random(17)
    stall_reads(array, victim,
                lambda deadline, dev, bio: 20e-3 if rng.random() < 0.3
                else 0.0)
    return report(array, drive(array, reads_of(read_mix(17))))


@scenario
def hedge_loses():
    """The straggler limps in after its deadline but before the
    reconstruction: the hedge is fired, counted, and abandoned."""
    array = Array(failslow_protection=True)
    warmed(array)
    victim = array.location(0)[0]
    stall_reads(array, victim,
                lambda deadline, dev, bio: deadline - 40e-6)
    result = report(array, drive(array, reads_of(read_mix(18, 48)), depth=2))
    assert array.volume.health.slow_hedges > array.volume.health.hedge_wins
    return result


@scenario
def hedge_ties_in_the_same_tick():
    """The hedge serves the buffered tail from memory at the deadline and
    the straggler completes in that very tick (jitter-free devices, the
    stall sized to the float): the tie is not charged to its EWMA."""
    model = dataclasses.replace(zns_zn540_model(), jitter=0.0)
    array = Array(model=model, failslow_protection=True)
    warmed(array)
    tail = ZONE + 5 * STRIPE
    victim = array.location(tail)[0]
    sim = array.sim

    def exact_stall(deadline, dev, bio):
        # Completion lands at ((now + (occupancy + stall)) + 0.0) +
        # pipeline; the hedge timer at now + deadline.  Nudge the stall
        # by ulps until the two floats are equal.
        occupancy = dev.model.occupancy_time(Op.READ, bio.length, None)
        pipeline = dev.model.pipeline_latency(Op.READ)
        target = sim.now + deadline
        stall = deadline - occupancy - pipeline
        for _ in range(64):
            landed = ((sim.now + (occupancy + stall)) + 0.0) + pipeline
            if landed == target:
                return stall
            stall = math.nextafter(stall, math.inf if landed < target
                                   else -math.inf)
        raise AssertionError("no stall lands on the hedge deadline")
    stall_reads(array, victim, exact_stall)
    samples = array.volume.device_health[victim].read.samples
    pairs = [(tail, 4 * KiB), (tail + 4 * KiB, 8 * KiB), (tail, SU)] * 4
    result = report(array, drive(array, reads_of(pairs), depth=1))
    health = array.volume.health
    assert health.hedge_wins == health.slow_hedges == len(pairs)
    assert array.volume.device_health[victim].read.samples == samples
    return result


@scenario
def rebuilding_zone():
    """Foreground reads beside a rebuild: zones not yet rebuilt are
    served degraded, rebuilt ones from the replacement, and the rebuild's
    own read-ahead goes through the same path."""
    array = Array()
    sim, volume = array.sim, array.volume
    index = array.location(0)[0]
    volume.fail_device(index)
    replacement = fresh_replacement(sim, array.devices[0], name="spare")
    rebuild = sim.process(rebuild_process(sim, volume, index, replacement))
    log = drive(array, reads_of(read_mix(19, 160)))
    assert rebuild.triggered and rebuild.ok
    array.devices[index] = replacement
    log += drive(array, reads_of(read_mix(20, 32)))
    return report(array, log)


# Degraded concurrency: reads in flight together over one lost device, so
# a stripe's direct reads and a reconstruction's survivor reads want the
# same bytes at the same time.  ``device_reads`` beside each digest is the
# device read commands the whole scenario cost.

def lose_data_device(array, stripes=(0, 1)):
    """Fail a device that holds data (not parity) in each of zone 0's
    ``stripes``; returns its index."""
    mapper = array.volume.mapper
    lost = next(device for device in range(len(array.devices))
                if all(device in mapper.stripe_layout(0, stripe).data_devices
                       for stripe in stripes))
    array.volume.fail_device(lost)
    return lost


def unit_on(array, device, stripe, lost=True):
    """LBA of the stripe unit of zone 0's ``stripe`` that ``device`` holds
    (``lost``) or of the first one it does not."""
    data_devices = array.volume.mapper.stripe_layout(0, stripe).data_devices
    slot = data_devices.index(device)
    if not lost:
        slot = (slot + 1) % len(data_devices)
    return stripe * STRIPE + slot * SU


@scenario
def degraded_full_stripe():
    """One full-stripe read over a lost data device: three direct pieces
    and a reconstruction that wants those same three units plus parity."""
    array = Array()
    lose_data_device(array)
    return report(array, drive(array, reads_of([(0, STRIPE)])))


@scenario
def degraded_sequential_units():
    """Eight 1-SU reads in flight across two stripes, as a sequential
    reader at QD 8 issues them."""
    array = Array()
    lose_data_device(array)
    return report(array, drive(array, reads_of(
        [(unit * SU, SU) for unit in range(8)])))


@scenario
def degraded_same_bytes_twice():
    """Two concurrent reads of the same lost unit, and of the same
    surviving unit of another stripe: requests for the same logical bytes
    are never coalesced, so each costs its own commands."""
    array = Array()
    lost = lose_data_device(array)
    pairs = [(unit_on(array, lost, 0), SU)] * 2 + \
        [(unit_on(array, lost, 1, lost=False), SU)] * 2
    result = report(array, drive(array, reads_of(pairs)))
    assert result["device_reads"] == 2 * 4 + 2
    return result


@scenario
def shared_survivor_media_error():
    """A surviving unit with a latent error is read directly while a
    reconstruction of its stripe's lost unit wants it too: the direct
    read tries to heal and fails on the lost device (DegradedModeError),
    the reconstruction reports the double fault (MediaError), the rest of
    the stripe is served."""
    array = Array()
    lost = lose_data_device(array)
    bad = unit_on(array, lost, 0, lost=False)
    device, pba = array.location(bad)
    array.devices[device].mark_bad(pba, SU)
    pairs = [(unit_on(array, lost, 0), SU), (bad, SU), (STRIPE, STRIPE)]
    result = report(array, drive(array, reads_of(pairs), check=False))
    assert result["errors"] == {"MediaError": 1, "DegradedModeError": 1}
    return result


@scenario
def shared_survivor_transient_error():
    """The same pair of consumers over a survivor whose commands fail
    transiently in the first tick: both retry, both are served."""
    array = Array()
    lost = lose_data_device(array)
    flaky = unit_on(array, lost, 0, lost=False)
    device, pba = array.location(flaky)
    until = array.sim.now + TRANSIENT_BACKOFF_S / 2

    def hook(dev, bio):
        if bio.op is Op.READ and bio.offset == pba and array.sim.now < until:
            raise TransientCommandError(f"{dev.name}: injected")
    array.devices[device].add_hook("pre_apply", hook)
    pairs = [(unit_on(array, lost, 0), SU), (flaky, SU)]
    result = report(array, drive(array, reads_of(pairs)))
    assert result["health"] == {"transient_retries": 2}
    return result


@scenario
def foreground_reads_during_rebuild():
    """Full-stripe reads of the zone rebuilt last, beside the rebuild
    that is reading the same stripes for the replacement."""
    array = Array()
    sim, volume = array.sim, array.volume
    lost = lose_data_device(array)
    replacement = fresh_replacement(sim, array.devices[0], name="spare")
    rebuild = sim.process(rebuild_process(sim, volume, lost, replacement))
    array.devices[lost] = replacement
    log = drive(array, reads_of(
        [(stripe * STRIPE, STRIPE) for stripe in range(16)]), depth=2)
    assert rebuild.triggered and rebuild.ok
    return report(array, log)


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name):
    golden = json.loads(GOLDENS.read_text())
    assert SCENARIOS[name]() == golden[name], \
        f"{name}: read-path behaviour changed"


def test_goldens_reach_the_branches_they_name():
    """The matrix is not vacuous: each scenario's committed counters show
    the branch it exists for."""
    golden = json.loads(GOLDENS.read_text())
    assert sorted(golden) == sorted(SCENARIOS)
    assert golden["healthy"] == golden["healthy_traced"]
    assert golden["failed_device"] == golden["failed_device_traced"]
    assert not golden["healthy"]["health"] and not golden["healthy"]["errors"]
    assert set(golden["refused_reads"]["errors"]) == {
        "ReadUnwrittenError", "InvalidAddressError"}
    expected_health = {
        "transient_retry_then_escalation": ("transient_retries",
                                            "transient_escalations"),
        "media_error_heal": ("media_errors", "heals"),
        "media_error_unrepaired": ("media_errors", "unrepaired_serves"),
        "media_errors_evict_the_device": ("heals", "evictions"),
        "offline_zone": ("wear_errors", "heals"),
        "stitched_gap_needs_repair": ("media_errors", "heals"),
        "hedge_wins": ("slow_hedges", "hedge_wins"),
        "hedge_loses": ("slow_hedges",),
        "hedge_ties_in_the_same_tick": ("slow_hedges", "hedge_wins"),
    }
    for name, counters in expected_health.items():
        for counter in counters:
            assert golden[name]["health"].get(counter), (name, counter)
    for name in ("device_fails_mid_read", "second_device_fails_mid_read",
                 "media_errors_evict_the_device"):
        assert len(golden[name]["failed"]) == 1, name
    assert golden["second_device_fails_mid_read"]["errors"].get(
        "DataLossError")
    assert set(golden["media_error_on_survivor"]["errors"]) == {
        "MediaError", "DegradedModeError"}
    for name in ("failed_device", "tail_stripe_from_buffer",
                 "device_powered_off_mid_read", "relocated_and_stitched",
                 "demoted_device", "rebuilding_zone", "same_tick_writes",
                 "degraded_full_stripe", "degraded_sequential_units",
                 "degraded_same_bytes_twice",
                 "shared_survivor_transient_error",
                 "foreground_reads_during_rebuild"):
        assert not golden[name]["errors"], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_read_path_goldens.py --regen")
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(
        {name: SCENARIOS[name]() for name in sorted(SCENARIOS)},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(SCENARIOS)} digests to {GOLDENS}")
