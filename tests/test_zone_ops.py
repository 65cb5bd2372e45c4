"""Logical zone commands (raizn/zoneops.py): which members each command
reaches, what their mirrors say afterwards, and what the door refuses.

The ``Test*Reproducer`` cases are bugs of the per-command fan-outs this
module replaced, each named after what it shows."""

import pytest

from repro.block import Bio, BioFlags, Op
from repro.errors import OpenZoneLimitError, ZoneStateError
from repro.faults import fresh_replacement, power_cycle
from repro.faults.powerloss import CrashPoint
from repro.harness.campaign import drain
from repro.raizn import RaiznConfig, RaiznVolume, mount, rebuild
from repro.units import KiB
from repro.zns import ZNSDevice, ZoneState

from conftest import TEST_STRIPE_UNIT, make_volume, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


def member_commands(devices):
    """Every command the devices accept or reject from here on, as
    (device, op, offset)."""
    seen = []
    for dev in devices:
        dev.add_hook("pre_apply", lambda dev, bio: seen.append(
            (dev.name, bio.op, bio.offset)))
    return seen


def zone_commands(seen):
    return [c for c in seen if c[1] in (Op.ZONE_RESET, Op.ZONE_FINISH,
                                        Op.ZONE_OPEN, Op.ZONE_CLOSE)]


def worn_out_array(sim):
    """Every member of logical zone 0 spent its two erase cycles."""
    devices = [ZNSDevice(sim, name=f"zns{i}", num_zones=12,
                         zone_capacity=1024 * KiB, zone_reset_limit=2,
                         seed=i) for i in range(5)]
    volume = RaiznVolume.create(
        sim, devices, RaiznConfig(num_data=4, stripe_unit_bytes=SU))
    for cycle in range(2):
        volume.execute(Bio.write(0, pattern(4 * KiB, seed=cycle)))
        volume.execute(Bio.zone_reset(0))
    assert all(dev.zone_info(0).state is ZoneState.READ_ONLY
               for dev in devices)
    return volume, devices


class TestCloseReproducer:
    def test_close_after_one_write_reaches_the_one_member_holding_data(
            self, sim):
        """(a) The other members are EMPTY: a CLOSE sent to them was
        refused and failed the logical close."""
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(4 * KiB)))
        seen = member_commands(devices)
        volume.execute(Bio.zone_close(0))
        assert volume.zone_info(0).state is ZoneState.CLOSED
        first = volume.mapper.stripe_layout(0, 0).data_devices[0]
        assert seen == [(f"zns{first}", Op.ZONE_CLOSE, 0)]


class TestWornZoneReproducer:
    def test_open_close_finish_of_a_worn_out_zone(self, sim):
        """(b) OPEN and CLOSE reached the READ_ONLY members and failed,
        while FINISH skipped them and succeeded."""
        volume, devices = worn_out_array(sim)
        data = pattern(STRIPE, seed=3)
        volume.execute(Bio.write(0, data))
        assert volume.zone_descs[0].has_relocations
        seen = member_commands(devices)
        volume.execute(Bio.zone_open(0))
        assert volume.zone_info(0).state is ZoneState.EXPLICIT_OPEN
        volume.execute(Bio.zone_close(0))
        assert volume.zone_info(0).state is ZoneState.CLOSED
        volume.execute(Bio.zone_finish(0))
        assert volume.zone_info(0).state is ZoneState.FULL
        assert zone_commands(seen) == []
        assert volume.execute(Bio.read(0, len(data))).result == data


class TestAutoCloseReproducer:
    def test_auto_close_sends_one_member_close(self, sim):
        """(c) The 13th zone opened auto-closes zone 0: its one written
        member is closed; four CLOSEs to EMPTY members were refused and
        the refusals dropped."""
        volume, devices = make_volume(sim, num_zones=16)
        for zone in range(12):
            volume.execute(Bio.write(zone * volume.zone_capacity,
                                     pattern(4 * KiB, seed=zone)))
        seen = member_commands(devices)
        volume.execute(Bio.write(12 * volume.zone_capacity,
                                 pattern(4 * KiB, seed=12)))
        first = volume.mapper.stripe_layout(0, 0).data_devices[0]
        assert zone_commands(seen) == [(f"zns{first}", Op.ZONE_CLOSE, 0)]
        assert volume.zone_info(0).state is ZoneState.CLOSED
        assert sum(info.state.is_open
                   for info in volume.report_zones()) == 12


class TestMountResetReproducer:
    def test_mount_completes_a_reset_over_an_unnoticed_worn_member(self, sim):
        """(d) Power is cut at the reset's first generation append, after
        both write-ahead log entries and the member resets.  Mount
        completed the reset by resetting every member, the READ_ONLY one
        too, and the array did not mount."""
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(2 * STRIPE, seed=4)))
        volume.execute(Bio.flush())
        devices[1].set_zone_read_only(0)
        crash = CrashPoint(devices, after=3, ops={Op.ZONE_APPEND})
        volume.submit(Bio.zone_reset(0))
        drain(sim)
        crash.disarm()
        assert crash.fired
        for dev in devices:
            dev.power_on()
        seen = member_commands(devices)
        first = mount(sim, list(devices))
        assert first.zone_info(0).state is ZoneState.EMPTY
        assert first.zone_info(0).write_pointer == 0
        assert ("zns1", Op.ZONE_RESET, 0) not in seen
        second = mount(sim, list(devices))
        assert second.zone_info(0) == first.zone_info(0)
        fresh = pattern(STRIPE, seed=5)
        second.execute(Bio.write(0, fresh))
        assert second.execute(Bio.read(0, len(fresh))).result == fresh


class TestLostMemberReproducer:
    def test_reset_with_a_member_lost_then_rebuilt_writes_in_place(
            self, sim):
        """(e) The reset left the lost member's mirror at its old write
        pointer; rebuild skips the empty zone, so the first write at the
        zone start was relocated into the log."""
        volume, devices = make_volume(sim)
        lost = volume.mapper.stripe_layout(0, 0).data_devices[0]
        assert lost == 0
        volume.execute(Bio.write(0, pattern(2 * STRIPE, seed=6)))
        volume.fail_device(0)
        volume.execute(Bio.zone_reset(0))
        replacement = fresh_replacement(sim, devices[1], name="new")
        rebuild(sim, volume, 0, replacement)
        data = pattern(SU, seed=7)
        volume.execute(Bio.write(0, data))
        assert not volume.zone_descs[0].has_relocations
        assert len(volume.relocations) == 0
        assert replacement.zone_info(0).write_pointer == SU
        assert volume.execute(Bio.read(0, SU)).result == data


class TestDoor:
    def test_logical_open_limit_raises_open_zone_limit_error(self, sim):
        """Every open zone explicitly open: the next open is refused the
        way a device refuses it."""
        volume, devices = make_volume(sim, num_zones=16)
        for zone in range(12):
            volume.execute(Bio.zone_open(zone * volume.zone_capacity))
        with pytest.raises(OpenZoneLimitError, match="logical: open zone"):
            volume.execute(Bio.write(12 * volume.zone_capacity,
                                     pattern(4 * KiB)))
        seen = member_commands(devices)
        with pytest.raises(OpenZoneLimitError):
            volume.execute(Bio.zone_open(12 * volume.zone_capacity))
        assert seen == []

    def test_two_opens_in_flight_for_the_last_slot(self, sim):
        """The second OPEN is refused at the door before any member is
        sent anything; it once passed the door while the first was in
        flight and left its members explicitly open."""
        volume, devices = make_volume(sim, num_zones=16)
        for zone in range(11):
            volume.execute(Bio.zone_open(zone * volume.zone_capacity))
        seen = member_commands(devices)
        first = volume.submit(Bio.zone_open(11 * volume.zone_capacity))
        second = volume.submit(Bio.zone_open(12 * volume.zone_capacity))
        sim.run()
        assert first.ok
        assert not second.ok
        assert isinstance(second.value, OpenZoneLimitError)
        assert volume.zone_info(12).state is ZoneState.EMPTY
        assert {offset for _, _, offset in seen} == {
            11 * volume.phys_zone_size}
        assert all(dev.zone_info(12).state is ZoneState.EMPTY
                   for dev in devices)

    @pytest.mark.parametrize("setup, op", [
        ("empty", Bio.zone_close), ("full", Bio.zone_close),
        ("full", Bio.zone_open)])
    def test_refused_at_the_door_without_member_commands(self, sim, setup,
                                                         op):
        volume, devices = make_volume(sim)
        if setup == "full":
            volume.execute(Bio.write(0, pattern(4 * KiB)))
            volume.execute(Bio.zone_finish(0))
        seen = member_commands(devices)
        with pytest.raises(ZoneStateError, match="logical: "):
            volume.execute(op(0))
        assert seen == []

    def test_close_of_an_explicitly_opened_zone_reaches_every_member(
            self, sim):
        """The OPEN opened every member; CLOSE must close them all, or
        the empty ones stay explicitly open on their devices."""
        volume, devices = make_volume(sim)
        volume.execute(Bio.zone_open(0))
        volume.execute(Bio.write(0, pattern(4 * KiB), BioFlags.FUA))
        volume.execute(Bio.zone_close(0))
        assert [dev.zone_info(0).state for dev in devices].count(
            ZoneState.EXPLICIT_OPEN) == 0
        assert all(dev.budget.open_count <= 2 for dev in devices)


class TestLogOnlyZonesSurviveMount:
    def test_degraded_zone_known_only_to_the_lost_device(self, sim):
        """A FUA write whose one unit sat on the lost device leaves
        nothing in place on a survivor, only a partial-parity entry: mount
        emptied the zone."""
        volume, devices = make_volume(sim)
        assert volume.mapper.stripe_layout(0, 0).data_devices[0] == 0
        volume.fail_device(0)
        data = pattern(4 * KiB, seed=8)
        volume.execute(Bio.write(0, data, BioFlags.FUA))
        survivors = devices[1:]
        power_cycle(survivors)
        remounted = mount(sim, [None] + survivors)
        assert remounted.zone_info(0).write_pointer == len(data)
        assert remounted.execute(Bio.read(0, len(data))).result == data

    def test_worn_out_zone_whose_data_lives_in_the_log(self, sim):
        """Every member of zone 0 is READ_ONLY and empty; an acknowledged,
        flushed write was relocated into the log, and mount emptied the
        zone."""
        volume, devices = worn_out_array(sim)
        data = pattern(2 * SU, seed=9)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        assert volume.zone_descs[0].has_relocations
        power_cycle(devices)
        remounted = mount(sim, list(devices))
        assert remounted.zone_info(0).write_pointer == len(data)
        assert remounted.execute(Bio.read(0, len(data))).result == data


class TestLoggedResetWinsAtMount:
    """Power is cut at a reset's first generation append: the member
    resets landed, but the pre-reset partial-parity entries and
    relocations are still current.  The logged reset must empty the
    zone, not hand it to the log-only path."""

    @staticmethod
    def crash_reset(sim, volume, devices):
        crash = CrashPoint(devices, after=3, ops={Op.ZONE_APPEND})
        volume.submit(Bio.zone_reset(0))
        drain(sim)
        crash.disarm()
        assert crash.fired
        for dev in devices:
            dev.power_on()

    @pytest.mark.parametrize("size", [4 * KiB, SU + 4 * KiB])
    @pytest.mark.parametrize("lost", [None, 0])
    def test_partial_tail_stripe(self, sim, size, lost):
        """Degraded, a 4 KiB tail came back as data and a longer one
        failed to rebuild from the stale partial parity."""
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(size, seed=10)))
        volume.execute(Bio.flush())
        self.crash_reset(sim, volume, devices)
        survivors = list(devices)
        if lost is not None:
            survivors[lost] = None
        remounted = mount(sim, survivors)
        assert remounted.zone_info(0).state is ZoneState.EMPTY
        assert remounted.zone_info(0).write_pointer == 0

    @pytest.mark.parametrize("lost", [None, 0])
    def test_worn_out_zone_with_relocated_data(self, sim, lost):
        """The relocated pre-reset data came back."""
        volume, devices = worn_out_array(sim)
        volume.execute(Bio.write(0, pattern(2 * SU, seed=11)))
        volume.execute(Bio.flush())
        assert volume.zone_descs[0].has_relocations
        self.crash_reset(sim, volume, devices)
        survivors = list(devices)
        if lost is not None:
            survivors[lost] = None
        remounted = mount(sim, survivors)
        assert remounted.zone_info(0).state is ZoneState.EMPTY
        assert remounted.zone_info(0).write_pointer == 0
        fresh = pattern(SU, seed=12)
        remounted.execute(Bio.write(0, fresh))
        assert remounted.execute(Bio.read(0, SU)).result == fresh
