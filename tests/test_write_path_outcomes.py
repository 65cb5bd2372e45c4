"""What a write's submitter hears back: every outcome of a logical write
arrives on its own event — never as an exception out of ``sim.run()`` —
and a write is refused only for something its submitter did."""

import collections

import pytest

from repro.block import Bio, BioFlags, Op
from repro.units import KiB

from conftest import TEST_STRIPE_UNIT, make_volume, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


def outcomes(events):
    return collections.Counter(
        "ok" if event.ok else type(event.value).__name__ for event in events)


def test_second_device_lost_under_writes_fails_the_bios(sim):
    """A device dies under writes that are already degraded: the
    ``DataLossError`` of exceeding the parity tolerance fails the bios
    that met it."""
    volume, devices = make_volume(sim)
    volume.fail_device(0)
    events = [volume.submit(Bio.write(
        volume.zone_capacity + index * 16 * KiB, pattern(16 * KiB, index),
        BioFlags.FUA)) for index in range(16)]
    sim.schedule(20e-6, devices[1].fail_device)
    sim.run()
    assert outcomes(events) == {"ok": 8, "DataLossError": 4,
                                "DeviceFailedError": 4}


def test_write_in_the_reset_window_waits_its_turn(sim):
    """Writes submitted in order behind a zone reset land in order, also
    one that arrives while the reset persists the zone's new generation —
    after the zone is empty again, before the reset has completed."""
    volume, _devices = make_volume(sim)
    volume.execute(Bio.write(0, pattern(16 * KiB, 1)))
    generation = volume.generation[0]
    reset = volume.submit(Bio.zone_reset(0))
    first = volume.submit(Bio.write(0, pattern(16 * KiB, 2)))
    while volume.generation[0] == generation:
        sim.run(until=sim.now + 1e-6)
    assert not reset.triggered
    second = volume.submit(Bio.write(16 * KiB, pattern(16 * KiB, 3)))
    sim.run()
    assert outcomes([reset, first, second]) == {"ok": 3}
    assert volume.execute(Bio.read(0, 32 * KiB)).result == \
        pattern(16 * KiB, 2) + pattern(16 * KiB, 3)


@pytest.mark.parametrize("length, flags, before_parity", [
    # A FUA write shorter than a unit is acknowledged on its logged delta.
    (4 * KiB, BioFlags.FUA, True),
    # A full unit's delta is as large as the parity write; a plain write
    # promises nothing durable: both wait for the parity, as they did.
    (SU, BioFlags.FUA, False),
    (4 * KiB, BioFlags.NONE, False),
])
def test_when_a_stripe_completing_write_is_acknowledged(sim, length, flags,
                                                        before_parity):
    """Heard from the parity device's completion hook: whether the write
    that completes stripe 1 is acknowledged before the stripe's parity
    command completes.  Until it does, the parity's in-memory copy stands
    in for it, and it goes when the command lands."""
    volume, devices = make_volume(sim, num_zones=8)
    volume.execute(Bio.write(0, pattern(2 * STRIPE - length, 1)))
    parity = devices[volume.mapper.stripe_layout(0, 1).parity_device]
    landed = []
    parity.add_hook("completion", lambda dev, bio: landed.append(bio)
                    if bio.op is Op.WRITE and bio.offset == SU else None)
    done = volume.submit(Bio.write(2 * STRIPE - length, pattern(length, 2),
                                   flags))
    heard = []
    done.add_callback(lambda event: heard.append(
        (not landed, (0, 1) in volume.relocated_parity)))
    sim.run()
    assert done.ok and len(landed) == 1
    assert heard == [(before_parity, before_parity)]
    assert (0, 1) not in volume.relocated_parity
