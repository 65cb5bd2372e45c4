"""The fault-hook registry on ``BlockDevice`` and the layers armed through it.

A device has three hook slots (``pre_apply``, ``service_delay``,
``completion``) that only ``add_hook``/``remove_hook`` write.  The soak
campaign (``repro.harness.soaktest``) arms error injection, fail-slow
delays, crash triggers and completion-boundary snapshots on one array at
once; before the registry each layer chained the previous hook by hand,
so arming a second layer could clobber the first and disarming out of
order silently removed whichever layer was armed later.
"""

import itertools

import pytest

from repro.block import Bio
from repro.block.device import HOOK_SLOTS
from repro.errors import PowerLossError, TransientCommandError
from repro.faults import (
    CompletionBoundaries,
    CrashPoint,
    FaultPlan,
    SlowDeviceSpec,
    SlowPlan,
)
from repro.units import KiB, MiB
from repro.zns import ZNSDevice

from conftest import TEST_STRIPE_UNIT, make_volume, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


def slots(device):
    return [getattr(device, slot + "_hook") for slot in HOOK_SLOTS]


class TestRegistry:
    def test_slot_is_none_then_the_function_then_a_composition(self, zns):
        seen = []

        def first(dev, bio):
            seen.append("first")

        def second(dev, bio):
            seen.append("second")

        assert zns.completion_hook is None
        one = zns.add_hook("completion", first)
        assert zns.completion_hook is first
        two = zns.add_hook("completion", second)
        zns.execute(Bio.write(0, pattern(8 * KiB, seed=1)))
        assert seen == ["first", "second"]   # install order
        zns.remove_hook(one)
        assert zns.completion_hook is second
        zns.remove_hook(two)
        assert zns.completion_hook is None

    def test_service_delays_sum(self, zns):
        zns.add_hook("service_delay", lambda dev, bio: 1e-3)
        zns.add_hook("service_delay", lambda dev, bio: 2e-3)
        zns.add_hook("service_delay", lambda dev, bio: 4e-3)
        assert zns.service_delay_hook(zns, None) == pytest.approx(7e-3)

    def test_pre_apply_rejection_stops_later_hooks(self, zns):
        later = []

        def reject(dev, bio):
            raise TransientCommandError("injected")

        zns.add_hook("pre_apply", reject)
        zns.add_hook("pre_apply", lambda dev, bio: later.append(bio))
        with pytest.raises(TransientCommandError):
            zns.execute(Bio.write(0, pattern(8 * KiB, seed=2)))
        assert later == []

    def test_unknown_slot_and_double_removal_are_errors(self, zns):
        with pytest.raises(KeyError):
            zns.add_hook("post_apply", lambda dev, bio: None)
        handle = zns.add_hook("pre_apply", lambda dev, bio: None)
        zns.remove_hook(handle)
        with pytest.raises(ValueError):
            zns.remove_hook(handle)


class TestCompletionBoundariesComposition:
    def test_existing_hook_keeps_running(self, zns):
        seen = []
        zns.add_hook("completion", lambda dev, bio: seen.append(bio.op))
        cb = CompletionBoundaries([zns], snapshot_at={2})
        for i in range(3):
            zns.execute(Bio.write(i * 8 * KiB, pattern(8 * KiB, seed=i)))
        assert cb.count == 3
        assert len(seen) == 3
        assert set(cb.snapshots) == {2}

    def test_disarm_leaves_previous_hook(self, zns):
        seen = []

        def base(dev, bio):
            seen.append(1)

        zns.add_hook("completion", base)
        cb = CompletionBoundaries([zns])
        cb.disarm()
        assert zns.completion_hook is base
        zns.execute(Bio.write(0, pattern(8 * KiB, seed=1)))
        assert seen == [1]
        assert cb.count == 0

    def test_disarm_under_later_layer_removes_only_itself(self, zns):
        cb = CompletionBoundaries([zns])
        later = []

        def top(dev, bio):
            later.append(1)

        zns.add_hook("completion", top)
        zns.execute(Bio.write(0, pattern(8 * KiB, seed=2)))
        assert cb.count == 1 and later == [1]
        cb.disarm()
        zns.execute(Bio.write(8 * KiB, pattern(8 * KiB, seed=3)))
        assert zns.completion_hook is top
        assert later == [1, 1]
        assert cb.count == 1


class TestCrashPointComposition:
    def test_rejected_command_is_not_a_crash_candidate(self, sim):
        dev = ZNSDevice(sim, num_zones=4, zone_capacity=1 * MiB)
        plan = FaultPlan(seed=3, num_data_zones=4, transient_rate=1.0)
        plan.arm([dev])
        cp = CrashPoint([dev], after=1)
        with pytest.raises(TransientCommandError):
            dev.execute(Bio.write(0, pattern(8 * KiB, seed=4)))
        assert plan.counts.transient == 1
        # The earlier-armed plan rejected the command before it applied,
        # so it must not trip the crash trigger either.
        assert not cp.fired
        assert dev.powered
        cp.disarm()
        plan.disarm()
        assert dev.pre_apply_hook is None

    def test_fires_behind_an_armed_plan(self, sim):
        dev = ZNSDevice(sim, num_zones=4, zone_capacity=1 * MiB)
        plan = FaultPlan(seed=3, num_data_zones=4, transient_rate=0.0)
        plan.arm([dev])
        cp = CrashPoint([dev], after=1)
        with pytest.raises(PowerLossError):
            dev.execute(Bio.write(0, pattern(8 * KiB, seed=5)))
        assert cp.fired
        assert not dev.powered


class TestThreeLayerMatrix:
    def test_layers_compose_and_unwind(self, sim):
        volume, devices = make_volume(sim)
        plan = FaultPlan(seed=1, num_data_zones=volume.num_data_zones,
                         stripe_unit_bytes=SU, latent_rate=1.0, max_latent=2)
        plan.arm(devices)
        slow = SlowPlan(seed=2, specs=[
            SlowDeviceSpec(device_index=1, degrade_factor=4.0)])
        slow.arm(devices)
        cb = CompletionBoundaries(devices, snapshot_at={5})
        data = pattern(2 * STRIPE, seed=9)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        # Every layer observed the same workload.
        assert cb.count > 5 and 5 in cb.snapshots
        assert plan.counts.latent >= 1
        assert slow.counts.slowed_commands.get(1, 0) >= 1
        # Unwinding leaves every slot empty.
        cb.disarm()
        slow.disarm()
        plan.disarm()
        for dev in devices:
            assert slots(dev) == [None, None, None]
        # The array still serves (and heals) the injected stripes.
        assert volume.execute(Bio.read(0, len(data))).result == data


BLOCK = 4 * KiB


def _armed(plan, device):
    plan.arm([device])
    return plan


#: The five layers: name -> (arm(device) -> layer, observed(layer) -> how
#: many commands the layer has seen / injected into so far).
LAYERS = {
    "faults": (
        lambda dev: _armed(FaultPlan(seed=1, num_data_zones=dev.num_zones,
                                     stripe_unit_bytes=BLOCK,
                                     latent_rate=1.0), dev),
        lambda plan: plan.counts.latent),
    "slow": (
        lambda dev: _armed(SlowPlan(seed=2, specs=[SlowDeviceSpec(
            device_index=0, degrade_factor=2.0)]), dev),
        lambda plan: plan.counts.slowed_commands.get(0, 0)),
    "slow2": (
        lambda dev: _armed(SlowPlan(seed=3, specs=[SlowDeviceSpec(
            device_index=0, stall_probability=1.0, stall_seconds=1e-4)]),
            dev),
        lambda plan: plan.counts.stalls.get(0, 0)),
    "boundaries": (
        lambda dev: CompletionBoundaries([dev]),
        lambda cb: cb.count),
    "crashpoint": (
        lambda dev: CrashPoint([dev], after=10 ** 9),
        lambda cp: 10 ** 9 - cp.remaining),
}


def test_every_arm_order_and_disarm_order(sim):
    """Every arm order x every disarm order of the five layers on one
    device: after each removal every still-armed layer keeps observing
    (and injecting) and no removed one does, and after the last all
    three slots are empty."""
    dev = ZNSDevice(sim, num_zones=4, zone_capacity=1 * MiB)
    payload = bytes(BLOCK)
    cursor = 0

    def next_offset():
        """Where the next probe write goes — a fresh 'stripe' each time
        (the plan injects at most one latent error per stripe)."""
        nonlocal cursor
        if cursor == dev.num_zones * dev.zone_capacity:
            for zone in range(dev.num_zones):
                dev.execute(Bio.zone_reset(zone * dev.zone_size))
            cursor = 0
        zone, offset = divmod(cursor, dev.zone_capacity)
        cursor += BLOCK
        return zone * dev.zone_size + offset

    def observed(layers):
        return {name: LAYERS[name][1](layer)
                for name, layer in layers.items()}

    for arm_order in itertools.permutations(LAYERS):
        for disarm_order in itertools.permutations(LAYERS):
            layers = {name: LAYERS[name][0](dev) for name in arm_order}
            armed = set(arm_order)
            for leaving in disarm_order:
                layers[leaving].disarm()
                armed.remove(leaving)
                offset = next_offset()
                before = observed(layers)
                dev.execute(Bio.write(offset, payload))
                after = observed(layers)
                for name in LAYERS:
                    assert after[name] - before[name] == (name in armed), (
                        arm_order, disarm_order, leaving, name)
            assert slots(dev) == [None, None, None]
