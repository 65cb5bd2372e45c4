"""Finite per-zone erase endurance on the simulated ZNS device (§2.1).

The soak campaign leans on this to develop *organic* wear: repeated GC
and zone resets spend real erase budget, and the end-of-life READ_ONLY
transition then composes with the other fault dimensions.
"""

import pytest

from repro.block import Bio
from repro.errors import DeviceError, ZoneStateError
from repro.faults.devicefail import fresh_replacement
from repro.units import KiB, MiB
from repro.zns import ZNSDevice, ZoneState

from conftest import pattern


def make_dev(sim, limit):
    return ZNSDevice(sim, num_zones=4, zone_capacity=1 * MiB,
                     zone_reset_limit=limit)


def fill_and_reset(dev, zone=0):
    start = zone * dev.zone_size
    dev.execute(Bio.write(start, pattern(8 * KiB, seed=1)))
    dev.execute(Bio.zone_reset(start))


class TestEnduranceAccounting:
    def test_resets_counted_per_zone(self, sim):
        dev = make_dev(sim, limit=None)
        for _ in range(3):
            fill_and_reset(dev)
        assert dev.zone_reset_count(0) == 3
        assert dev.zone_reset_count(1) == 0
        assert dev.worn_zones() == []        # unlimited: never worn

    def test_endurance_report(self, sim):
        dev = make_dev(sim, limit=3)
        fill_and_reset(dev)
        fill_and_reset(dev)
        report = dev.endurance_report()
        assert report["reset_limit"] == 3
        assert report["total_resets"] == 2
        assert report["max_zone_resets"] == 2
        assert report["worn_zones"] == []


class TestEndOfLife:
    def test_last_cycle_succeeds_but_zone_goes_read_only(self, sim):
        dev = make_dev(sim, limit=2)
        fill_and_reset(dev)
        assert dev.zones[0].state is not ZoneState.READ_ONLY
        fill_and_reset(dev)                  # spends the last cycle
        assert dev.zones[0].state is ZoneState.READ_ONLY
        assert dev.worn_zones() == [0]

    def test_worn_zone_rejects_reset_and_write(self, sim):
        dev = make_dev(sim, limit=1)
        fill_and_reset(dev)
        with pytest.raises(ZoneStateError):
            dev.execute(Bio.zone_reset(0))
        with pytest.raises(DeviceError):
            dev.execute(Bio.write(0, pattern(4 * KiB, seed=2)))
        # Other zones keep their full budget.
        fill_and_reset(dev, zone=1)


class TestSnapshots:
    def test_snapshot_roundtrip_carries_reset_counts(self, sim):
        dev = make_dev(sim, limit=3)
        fill_and_reset(dev)
        snap = dev.crash_snapshot()
        fill_and_reset(dev)
        assert dev.zone_reset_count(0) == 2
        dev.restore_crash_snapshot(snap)
        assert dev.zone_reset_count(0) == 1


def test_fresh_replacement_propagates_limit(sim):
    dev = make_dev(sim, limit=5)
    replacement = fresh_replacement(sim, dev, "fresh", seed=7)
    assert replacement.zone_reset_limit == 5
