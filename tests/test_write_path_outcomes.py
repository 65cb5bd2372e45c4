"""What a write's submitter hears back: every outcome of a logical write
arrives on its own event — never as an exception out of ``sim.run()`` —
and a write is refused only for something its submitter did."""

import collections

from repro.block import Bio, BioFlags
from repro.units import KiB

from conftest import make_volume, pattern


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
