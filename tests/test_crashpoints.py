"""Unit tests for the crash-state enumeration primitives.

Exercises the ``ZNSDevice`` survivor-state API (legal post-crash write
pointers, deterministic ``power_fail_to``, crash snapshots) and the
array-level helpers in ``repro.faults.crashpoints``.
"""

import random

import pytest

from repro.block import Bio, BioFlags
from repro.errors import InvalidAddressError
from repro.faults import (
    CompletionBoundaries,
    apply_survivor_assignment,
    array_crash_snapshot,
    array_restore_crash_snapshot,
    array_state_fingerprint,
    enumerate_survivor_assignments,
    survivor_product_size,
)
from repro.units import KiB, MiB, SECTOR_SIZE
from repro.zns import ZNSDevice, ZoneState

from conftest import make_zns_devices, pattern


class TestSurvivorStates:
    def test_clean_zone_single_state(self, zns):
        assert zns.zone_survivor_states(0) == [0]
        zns.execute(Bio.write(0, pattern(8 * KiB, seed=1), BioFlags.FUA))
        assert zns.zone_survivor_states(0) == [8 * KiB]

    def test_cached_data_steps_at_awu(self, zns):
        zns.execute(Bio.write(0, pattern(4 * KiB, seed=2), BioFlags.FUA))
        zns.execute(Bio.write(4 * KiB, pattern(12 * KiB, seed=3)))
        # durable 4K, cached 12K = 3 atomic units -> 4 legal survivors
        assert zns.zone_survivor_states(0) == [
            4 * KiB, 8 * KiB, 12 * KiB, 16 * KiB]

    def test_sub_unit_tail_included(self, sim):
        dev = ZNSDevice(sim, num_zones=4, zone_capacity=1 * MiB,
                        atomic_write_bytes=8 * KiB)
        dev.execute(Bio.write(0, pattern(20 * KiB, seed=4)))
        # 2 whole 8 KiB units plus a 4 KiB tail
        assert dev.zone_survivor_states(0) == [
            0, 8 * KiB, 16 * KiB, 20 * KiB]

    def test_state_space_covers_only_dirty_zones(self, zns):
        zns.execute(Bio.write(0, pattern(4 * KiB, seed=5), BioFlags.FUA))
        zns.execute(Bio.write(MiB, pattern(8 * KiB, seed=6)))
        space = zns.survivor_state_space()
        assert set(space) == {1}
        assert space[1] == [MiB, MiB + 4 * KiB, MiB + 8 * KiB]

    def test_flush_collapses_state_space(self, zns):
        zns.execute(Bio.write(0, pattern(64 * KiB, seed=7)))
        assert len(zns.zone_survivor_states(0)) == 17
        zns.execute(Bio.flush())
        assert zns.survivor_state_space() == {}


class TestPowerFailTo:
    def test_illegal_survivor_rejected(self, zns):
        zns.execute(Bio.write(0, pattern(8 * KiB, seed=8)))
        with pytest.raises(InvalidAddressError):
            zns.power_fail_to({0: 3 * KiB})   # not unit-aligned
        with pytest.raises(InvalidAddressError):
            zns.power_fail_to({0: 12 * KiB})  # beyond the write pointer

    def test_chosen_survivor_applied_exactly(self, zns):
        zns.execute(Bio.write(0, pattern(16 * KiB, seed=9)))
        zns.power_fail_to({0: 8 * KiB})
        zns.power_on()
        zone = zns.zone_info(0)
        assert zone.write_pointer == 8 * KiB
        assert zns.zones[0].durable_pointer == 8 * KiB
        assert zns.execute(Bio.read(0, 8 * KiB)).result == \
            pattern(16 * KiB, seed=9)[:8 * KiB]

    def test_unnamed_zones_keep_durable_prefix_only(self, zns):
        zns.execute(Bio.write(0, pattern(8 * KiB, seed=10), BioFlags.FUA))
        zns.execute(Bio.write(8 * KiB, pattern(8 * KiB, seed=11)))
        zns.execute(Bio.write(MiB, pattern(4 * KiB, seed=12)))
        zns.power_fail_to({0: 16 * KiB})   # zone 1 unnamed
        zns.power_on()
        assert zns.zone_info(0).write_pointer == 16 * KiB
        assert zns.zone_info(1).write_pointer == MiB
        assert zns.zone_info(1).state is ZoneState.EMPTY


class TestCrashSnapshot:
    def test_roundtrip_restores_everything(self, zns):
        data = pattern(24 * KiB, seed=13)
        zns.execute(Bio.write(0, data[:8 * KiB], BioFlags.FUA))
        zns.execute(Bio.write(8 * KiB, data[8 * KiB:]))
        snapshot = zns.crash_snapshot()

        zns.execute(Bio.write(24 * KiB, pattern(8 * KiB, seed=14)))
        zns.execute(Bio.flush())
        zns.execute(Bio.zone_reset(MiB))
        zns.restore_crash_snapshot(snapshot)

        zone = zns.zone_info(0)
        assert zone.write_pointer == 24 * KiB
        assert zns.zones[0].durable_pointer == 8 * KiB
        assert 0 in zns._dirty_zones
        assert zns.execute(Bio.read(0, 24 * KiB)).result == data

    def test_snapshot_fields_are_named(self, zns):
        zns.execute(Bio.write(0, pattern(8 * KiB, seed=16)))
        zns.mark_bad(0, 4 * KiB)
        snapshot = zns.crash_snapshot()
        assert snapshot.dirty == {0} and snapshot.powered
        assert not snapshot.failed
        assert snapshot.bad_extents == {0: [(0, 4 * KiB)]}
        assert snapshot.zones[0][1] == 8 * KiB   # write pointer
        assert snapshot.reset_counts == {}

    def test_restore_then_power_fail_is_replayable(self, zns):
        """The same snapshot must admit many different crash outcomes."""
        zns.execute(Bio.write(0, pattern(12 * KiB, seed=15)))
        snapshot = zns.crash_snapshot()
        outcomes = set()
        for survivor in zns.zone_survivor_states(0):
            zns.restore_crash_snapshot(snapshot)
            zns.power_fail_to({0: survivor})
            zns.power_on()
            outcomes.add(zns.zone_info(0).write_pointer)
        assert outcomes == {0, 4 * KiB, 8 * KiB, 12 * KiB}

    def test_array_snapshot_roundtrip(self, sim):
        devices = make_zns_devices(sim, n=3, num_zones=4)
        for i, dev in enumerate(devices):
            dev.execute(Bio.write(0, pattern(4 * KiB, seed=16 + i)))
        snaps = array_crash_snapshot(devices)
        fingerprint = array_state_fingerprint(devices)
        devices[1].execute(Bio.write(4 * KiB, pattern(4 * KiB, seed=30)))
        assert array_state_fingerprint(devices) != fingerprint
        array_restore_crash_snapshot(devices, snaps)
        assert array_state_fingerprint(devices) == fingerprint


class TestCompletionBoundaries:
    def test_counts_completions_and_snapshots(self, sim):
        devices = make_zns_devices(sim, n=2, num_zones=4)
        ticks = []
        tracker = CompletionBoundaries(devices, snapshot_at=(2,),
                                       aux_state=lambda: len(ticks))
        devices[0].execute(Bio.write(0, pattern(4 * KiB, seed=17)))
        ticks.append(1)
        devices[1].execute(Bio.write(0, pattern(4 * KiB, seed=18)))
        devices[0].execute(Bio.flush())
        assert tracker.count == 3
        assert set(tracker.snapshots) == {2}
        snaps, aux = tracker.snapshots[2]
        assert len(snaps) == 2
        assert aux == 1   # frozen at the second completion

    def test_disarm_stops_counting(self, sim):
        devices = make_zns_devices(sim, n=2, num_zones=4)
        tracker = CompletionBoundaries(devices)
        devices[0].execute(Bio.write(0, pattern(4 * KiB, seed=19)))
        tracker.disarm()
        devices[0].execute(Bio.write(4 * KiB, pattern(4 * KiB, seed=20)))
        assert tracker.count == 1
        assert all(dev.completion_hook is None for dev in devices)

    def test_crash_after_cuts_power_on_all_devices(self, sim):
        devices = make_zns_devices(sim, n=2, num_zones=4)
        tracker = CompletionBoundaries(devices, crash_after=1)
        devices[0].execute(Bio.write(0, pattern(4 * KiB, seed=21)))
        assert tracker.fired
        assert all(not dev.powered for dev in devices)


class TestAssignmentEnumeration:
    def _spaces(self):
        # two devices: one dirty zone each with 3 and 2 choices
        return [{0: [0, 4 * KiB, 8 * KiB]}, {1: [MiB, MiB + 4 * KiB]}]

    def test_product_size(self):
        assert survivor_product_size(self._spaces()) == 6
        assert survivor_product_size([{}, {}]) == 1

    def test_corners_always_included(self):
        assignments, product = enumerate_survivor_assignments(
            self._spaces(), budget=2, rng=random.Random(0))
        assert product == 6
        assert assignments[0] == [{0: 0}, {1: MiB}]
        assert assignments[1] == [{0: 8 * KiB}, {1: MiB + 4 * KiB}]

    def test_budget_bounds_and_dedup(self):
        assignments, product = enumerate_survivor_assignments(
            self._spaces(), budget=100, rng=random.Random(0))
        assert len(assignments) <= product
        keys = {tuple(tuple(sorted(m.items())) for m in a)
                for a in assignments}
        assert len(keys) == len(assignments)   # no duplicates

    def test_apply_assignment_restores_power(self, sim):
        devices = make_zns_devices(sim, n=2, num_zones=4)
        devices[0].execute(Bio.write(0, pattern(8 * KiB, seed=22)))
        spaces = [dev.survivor_state_space() for dev in devices]
        assignments, _ = enumerate_survivor_assignments(
            spaces, budget=4, rng=random.Random(1))
        apply_survivor_assignment(devices, assignments[0])
        assert all(dev.powered for dev in devices)
        assert devices[0].zone_info(0).write_pointer == 0


class TestFingerprint:
    def test_distinct_states_distinct_hashes(self, sim):
        devices = make_zns_devices(sim, n=2, num_zones=4)
        devices[0].execute(Bio.write(0, pattern(8 * KiB, seed=23)))
        snaps = array_crash_snapshot(devices)
        seen = set()
        for survivor in devices[0].zone_survivor_states(0):
            array_restore_crash_snapshot(devices, snaps)
            apply_survivor_assignment(devices, [{0: survivor}, {}])
            seen.add(array_state_fingerprint(devices))
        assert len(seen) == 3

    def test_content_sensitive(self, sim):
        devices = make_zns_devices(sim, n=1, num_zones=4)
        devices[0].execute(Bio.write(0, pattern(SECTOR_SIZE, seed=24)))
        one = array_state_fingerprint(devices)
        devices[0].execute(Bio.zone_reset(0))
        devices[0].execute(Bio.write(0, pattern(SECTOR_SIZE, seed=25)))
        assert array_state_fingerprint(devices) != one
