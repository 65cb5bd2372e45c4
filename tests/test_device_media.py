"""Device media: degenerate geometry is refused before anything is
allocated, and a device's media is resident only where it was written."""

import os

import pytest

from repro.block import Bio
from repro.conv import ConventionalSSD
from repro.errors import InvalidAddressError
from repro.units import MiB
from repro.zns import ZNSDevice

from conftest import pattern

STATM = "/proc/self/statm"


@pytest.mark.parametrize("make, match", [
    (lambda sim: ZNSDevice(sim, num_zones=0), "num_zones >= 1"),
    (lambda sim: ZNSDevice(sim, num_zones=-1), "num_zones >= 1"),
    (lambda sim: ZNSDevice(sim, zone_capacity=0), "zone_capacity >= 4096"),
    (lambda sim: ConventionalSSD(sim, capacity_bytes=0),
     "device size must be positive"),
], ids=["zns-zones-0", "zns-zones-neg", "zns-capacity-0", "conv-capacity-0"])
def test_degenerate_geometry_rejected(sim, make, match):
    with pytest.raises(InvalidAddressError, match=match):
        make(sim)


def resident_bytes() -> int:
    with open(STATM) as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists(STATM), reason=f"needs {STATM}")
def test_media_resident_only_where_written(sim):
    zone = 4 * MiB
    payload = pattern(zone, seed=1)
    other = pattern(zone, seed=2)

    before = resident_bytes()
    zns = ZNSDevice(sim, name="a", num_zones=64, zone_capacity=zone)
    assert zns.size_bytes == 256 * MiB
    assert resident_bytes() - before < 16 * MiB

    before = resident_bytes()
    conv = ConventionalSSD(sim, capacity_bytes=256 * MiB)
    assert resident_bytes() - before < 16 * MiB

    before = resident_bytes()
    zns.execute(Bio.write(0, payload))
    assert 3 * MiB <= resident_bytes() - before <= 8 * MiB

    # Two devices' media are separate memory.
    twin = ZNSDevice(sim, name="b", num_zones=64, zone_capacity=zone)
    twin.execute(Bio.write(0, other))
    conv.execute(Bio.write(0, other))
    assert bytes(zns.execute(Bio.read(0, zone)).result) == payload
    assert bytes(twin.execute(Bio.read(0, zone)).result) == other
    assert conv.execute(Bio.read(0, zone)).result == other
