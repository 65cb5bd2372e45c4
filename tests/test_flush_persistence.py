"""What the §5.3 persistence bitmap may mark, and when.  An ``Op.FLUSH``
marks what its device flushes covered, not what the zone holds when they
complete: a plain write accepted while they are in flight is behind none
of them.  A FUA write that ends a stripe unit marks (seals) that unit
when its own device command completes — before its logical bio is
acknowledged, and never in a zone reset since."""

import pytest

from repro.block import Bio, BioFlags, Op
from repro.errors import TransientCommandError
from repro.faults.oracle import check_persistence_bitmap_soundness
from repro.raizn import RaiznConfig, RaiznVolume, config, mount
from repro.units import KiB

from conftest import TEST_STRIPE_UNIT, make_volume, make_zns_devices, pattern

SU = TEST_STRIPE_UNIT
FUA = BioFlags.FUA
DURABLE = BioFlags.FUA | BioFlags.PREFLUSH


def write_during_flush(sim):
    """SU0 written; SU1 accepted 30 µs into an ``Op.FLUSH`` whose device
    commands are still in flight; both acknowledged."""
    volume, devices = make_volume(sim, num_zones=8)
    data = [pattern(SU, seed=index) for index in range(3)]
    volume.execute(Bio.write(0, data[0]))
    flush = volume.submit(Bio.flush())
    late = []
    sim.schedule(30e-6, lambda: late.append(
        volume.submit(Bio.write(SU, data[1]))))
    sim.run()
    assert flush.ok and late[0].ok
    return volume, devices, data


def test_write_accepted_during_a_flush_is_not_marked_persisted(sim):
    volume, devices, _data = write_during_flush(sim)
    su1_device = volume.mapper.stripe_layout(0, 0).data_devices[1]
    # Device truth: no flush covered SU1 ...
    assert devices[su1_device].zones[0].durable_pointer == 0
    # ... and the bitmap says so.
    persistence = volume.zone_descs[0].persistence
    assert persistence.is_persisted(0)
    assert not persistence.is_persisted(1)


def test_next_fua_write_flushes_it_and_survives_crash_plus_device_loss(sim):
    volume, devices, data = write_during_flush(sim)
    su0_device, su1_device = \
        volume.mapper.stripe_layout(0, 0).data_devices[:2]
    flushed = []
    for device in devices:
        device.add_hook("pre_apply", lambda dev, bio: flushed.append(dev)
                        if bio.op is Op.FLUSH else None)
    volume.execute(Bio.write(2 * SU, data[2], DURABLE))
    assert devices[su1_device] in flushed
    assert devices[su1_device].zones[0].durable_pointer == SU
    # Every cache is lost whole, then SU0's device: an acknowledged FUA
    # write vouches for all three units, one of them through parity.
    for device in devices:
        device.power_fail_to({})
    for device in devices:
        device.power_on()
    devices[su0_device].fail_device()
    remounted = mount(sim, [None if index == su0_device else device
                            for index, device in enumerate(devices)])
    assert remounted.zone_info(0).write_pointer == 3 * SU
    assert remounted.execute(Bio.read(0, 3 * SU)).result == b"".join(data)


def test_zone_reset_during_a_flush_is_not_marked_persisted(sim):
    """The generation guard: a zone reset and rewritten under the
    in-flight device flushes keeps none of the old zone's marks."""
    volume, devices = make_volume(sim, num_zones=8)
    volume.execute(Bio.write(0, pattern(2 * SU, seed=7)))
    # A device flush that outlasts the reset (1 ms a zone) and the rewrite.
    devices[0].add_hook("service_delay", lambda dev, bio:
                        10e-3 if bio.op is Op.FLUSH else 0.0)
    flush = volume.submit(Bio.flush())
    rewrite = []

    def reset_then_write():
        yield volume.submit(Bio.zone_reset(0))
        rewrite.append((yield volume.submit(
            Bio.write(0, pattern(2 * SU, seed=8)))))

    sim.schedule(30e-6, sim.process, reset_then_write())
    sim.run()
    assert flush.ok and rewrite[0].complete_time < flush.value.complete_time
    assert volume.zone_descs[0].persistence.frontier == 0


def test_fua_write_seals_its_unit_when_the_device_write_completes(sim):
    volume, devices = make_volume(sim, num_zones=8)
    volume.execute(Bio.flush())
    su0, su1 = (devices[slot] for slot in
                volume.mapper.stripe_layout(0, 0).data_devices[:2])
    # The write's last piece is held up, so its bio is still out when the
    # piece that ends SU0 lands.
    su1.add_hook("service_delay", lambda dev, bio:
                 1e-3 if bio.op is Op.WRITE else 0.0)
    done = volume.submit(Bio.write(0, pattern(SU + 4 * KiB, seed=1), FUA))
    persistence = volume.zone_descs[0].persistence
    while su0.zones[0].durable_pointer < SU:
        sim.run(until=sim.now + 1e-6)
    assert persistence.is_persisted(0) and not done.triggered
    assert volume.writepath.units_sealed == 1
    sim.run()
    assert done.ok and not persistence.is_persisted(1)


def test_flush_over_an_in_flight_sealing_write_leaves_the_unit_to_its_seal(
        sim):
    """Every write since the last flush was FUA, so the ``Op.FLUSH`` owes
    no device anything; the unit whose FUA write is still in flight is
    not its to mark."""
    volume, devices = make_volume(sim, num_zones=8)
    volume.execute(Bio.flush())
    su0 = devices[volume.mapper.stripe_layout(0, 0).data_devices[0]]
    flushed = []
    for device in devices:
        device.add_hook("pre_apply", lambda dev, bio: flushed.append(dev)
                        if bio.op is Op.FLUSH else None)
    write = volume.submit(Bio.write(0, pattern(SU, seed=2), FUA))
    flush = volume.submit(Bio.flush())
    persistence = volume.zone_descs[0].persistence
    while not flush.triggered:
        sim.run(until=sim.now + 1e-6)
    assert flush.ok and flushed == []
    assert not write.triggered and not persistence.is_persisted(0)
    assert su0.zones[0].durable_pointer == 0
    sim.run()
    assert write.ok and persistence.is_persisted(0)
    assert su0.zones[0].durable_pointer == SU and flushed == []


def test_write_that_outlives_a_zone_reset_marks_nothing(sim):
    """A FUA write held up on its device past a reset of its zone and a
    plain rewrite: neither its seal nor its own acknowledgement may mark
    the rewritten zone's unit, which a later plain write fills in the
    device cache only."""
    volume, devices = make_volume(sim, num_zones=8)
    volume.execute(Bio.flush())
    su0 = devices[volume.mapper.stripe_layout(0, 0).data_devices[0]]
    held = []

    def hold_first_fua_data_write(dev, bio):
        if bio.op is Op.WRITE and bio.flags and bio.offset < SU \
                and not held:
            held.append(bio)
            return 10e-3
        return 0.0

    su0.add_hook("service_delay", hold_first_fua_data_write)
    stale = volume.submit(Bio.write(0, pattern(SU, seed=3), FUA))
    rewritten = []

    def reset_then_rewrite():
        yield volume.submit(Bio.zone_reset(0))
        rewritten.append((yield volume.submit(
            Bio.write(0, pattern(4 * KiB, seed=4)))))

    sim.schedule(30e-6, sim.process, reset_then_rewrite())
    sim.run()
    assert stale.ok and rewritten[0].complete_time < stale.value.complete_time
    assert not volume.zone_descs[0].persistence.is_persisted(0)
    assert volume.writepath.units_sealed == 0
    volume.execute(Bio.write(4 * KiB, pattern(SU - 4 * KiB, seed=5)))
    assert check_persistence_bitmap_soundness(volume) == []


@pytest.mark.parametrize("flush_after, backoff", [
    (0.0, 100e-6), (50e-6, 100e-6),
    # The retry is scheduled, sent and done while the device flush is out:
    # nothing is outstanding at either end of the flush.
    (0.0, 0.0)])
def test_flush_marks_nothing_in_a_zone_with_a_retry_outstanding(
        sim, monkeypatch, flush_after, backoff):
    """The 4 KiB write that fills SU0 is refused once, transiently; an
    ``Op.FLUSH`` is submitted right behind it, or while the retry waits
    out its backoff.  The retry reaches the device after the flush did, so the
    FLUSH may not mark SU0."""
    monkeypatch.setattr(config, "TRANSIENT_BACKOFF_S", backoff)
    devices = make_zns_devices(sim, num_zones=8)
    volume = RaiznVolume.create(sim, devices, RaiznConfig(
        num_data=4, stripe_unit_bytes=SU))
    volume.execute(Bio.write(0, pattern(SU - 4 * KiB, seed=9)))
    su0 = devices[volume.mapper.stripe_layout(0, 0).data_devices[0]]
    refused = []

    def refuse_once(dev, bio):
        if bio.op is Op.WRITE and bio.offset == SU - 4 * KiB \
                and not refused:
            refused.append(bio)
            raise TransientCommandError(f"{dev.name}: injected")

    su0.add_hook("pre_apply", refuse_once)
    write = volume.submit(Bio.write(SU - 4 * KiB, pattern(4 * KiB, seed=10)))
    flushes = []
    if flush_after:
        sim.schedule(flush_after, lambda: flushes.append(
            volume.submit(Bio.flush())))
    else:
        flushes.append(volume.submit(Bio.flush()))
    sim.run()
    assert write.ok and flushes[0].ok and refused
    assert su0.zones[0].durable_pointer == SU - 4 * KiB
    assert not volume.zone_descs[0].persistence.is_persisted(0)
    assert check_persistence_bitmap_soundness(volume) == []


def test_preflush_only_write_leaves_its_own_unit_volatile(sim):
    """A PREFLUSH makes durable what lies below the write, not the write
    itself: its device commands carry no FUA, so the unit it ends stays
    unmarked, and the next durable write flushes that unit's device."""
    volume, devices = make_volume(sim, num_zones=8)
    for index in range(14):
        volume.execute(Bio.write(index * 4 * KiB,
                                 pattern(4 * KiB, seed=index), DURABLE))
    su0 = devices[volume.mapper.stripe_layout(0, 0).data_devices[0]]
    volume.execute(Bio.write(56 * KiB, pattern(8 * KiB, seed=14),
                             BioFlags.PREFLUSH))
    assert su0.zones[0].durable_pointer == 56 * KiB
    assert not volume.zone_descs[0].persistence.is_persisted(0)
    assert check_persistence_bitmap_soundness(volume) == []
    volume.execute(Bio.write(SU, pattern(4 * KiB, seed=15), DURABLE))
    assert volume.writepath.flushes_issued == 1
    assert su0.zones[0].durable_pointer == SU
    assert check_persistence_bitmap_soundness(volume) == []
