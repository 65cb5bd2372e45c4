"""Seeded fault-injection plan: latent/transient/wear hooks (errinject)."""

import pytest

from repro.block import Bio
from repro.faults import FaultPlan
from repro.sim import Simulator
from repro.zns import ZoneState

from conftest import TEST_STRIPE_UNIT, make_volume, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


def armed_volume(sim, **plan_kwargs):
    """A fresh volume with a FaultPlan armed over its devices."""
    volume, devices = make_volume(sim)
    plan = FaultPlan(num_data_zones=volume.num_data_zones,
                     stripe_unit_bytes=SU, **plan_kwargs)
    plan.arm(devices)
    return volume, devices, plan


class TestLatent:
    def test_at_most_one_latent_per_stripe(self, sim):
        volume, _devices, plan = armed_volume(sim, latent_rate=1.0)
        for stripe in range(4):
            volume.execute(Bio.write(stripe * STRIPE,
                                     pattern(STRIPE, seed=stripe)))
        # Rate 1.0 injects on the first write completion of every stripe;
        # the (zone, stripe) guard blocks the remaining SU and parity
        # writes of that same stripe.
        assert plan.counts.latent == 4

    def test_global_latent_cap(self, sim):
        volume, _devices, plan = armed_volume(sim, latent_rate=1.0,
                                              max_latent=2)
        for stripe in range(5):
            volume.execute(Bio.write(stripe * STRIPE,
                                     pattern(STRIPE, seed=stripe)))
        assert plan.counts.latent == 2

    def test_per_device_latent_cap(self, sim):
        volume, _devices, plan = armed_volume(sim, latent_rate=1.0,
                                              max_latent_per_device=1)
        for stripe in range(8):
            volume.execute(Bio.write(stripe * STRIPE,
                                     pattern(STRIPE, seed=stripe)))
        assert 1 <= plan.counts.latent <= volume.config.num_devices

    def test_latent_skips_wear_victim_zones(self, sim):
        volume, _devices, plan = armed_volume(
            sim, latent_rate=1.0,
            wear_victims=[(0, 0, False)], wear_after_writes=10 ** 6)
        volume.execute(Bio.write(0, pattern(2 * STRIPE, seed=1)))
        # Zone 0 is reserved for wear-out, so no latent error may land
        # there — a wear loss plus a latent error would exceed parity.
        assert plan.counts.latent == 0

    def test_injected_errors_are_healed_by_reads(self, sim):
        volume, _devices, plan = armed_volume(sim, latent_rate=1.0)
        data = pattern(3 * STRIPE, seed=2)
        volume.execute(Bio.write(0, data))
        assert plan.counts.latent == 3
        assert volume.execute(Bio.read(0, len(data))).result == data
        assert volume.health.heals >= 1


class TestTransient:
    def test_targeted_transients_are_retried_transparently(self, sim):
        volume, _devices, plan = armed_volume(sim)
        data = pattern(STRIPE, seed=3)
        volume.execute(Bio.write(0, data))
        target = volume.mapper.stripe_layout(0, 0).data_devices[0]
        plan.transient_rate = 1.0
        plan.transient_targets = {target}
        assert volume.execute(Bio.read(0, STRIPE)).result == data
        assert plan.counts.transient > 0
        assert volume.health.transient_retries > 0

    def test_empty_target_set_disables_injection(self, sim):
        volume, _devices, plan = armed_volume(sim)
        volume.execute(Bio.write(0, pattern(STRIPE, seed=4)))
        plan.transient_rate = 1.0
        plan.transient_targets = set()
        volume.execute(Bio.read(0, STRIPE))
        assert plan.counts.transient == 0


class TestWear:
    def test_zone_wears_out_after_write_quota(self, sim):
        volume, devices, plan = armed_volume(
            sim, wear_victims=[(0, 0, False)], wear_after_writes=3)
        for stripe in range(5):
            data = pattern(STRIPE, seed=10 + stripe)
            volume.execute(Bio.write(stripe * STRIPE, data))
        assert plan.counts.wear == 1
        assert devices[0].zone_info(0).state is ZoneState.READ_ONLY
        # The datapath absorbed the mid-write transition.
        for stripe in range(5):
            got = volume.execute(Bio.read(stripe * STRIPE, STRIPE)).result
            assert got == pattern(STRIPE, seed=10 + stripe)

    def test_offline_wear_victim(self, sim):
        volume, devices, plan = armed_volume(
            sim, wear_victims=[(2, 0, True)], wear_after_writes=2)
        data = pattern(4 * STRIPE, seed=20)
        volume.execute(Bio.write(0, data))
        assert plan.counts.wear == 1
        assert devices[2].zone_info(0).state is ZoneState.OFFLINE
        assert volume.execute(Bio.read(0, len(data))).result == data


class TestArming:
    def test_double_arm_rejected(self, sim):
        _volume, devices, plan = armed_volume(sim)
        with pytest.raises(RuntimeError):
            plan.arm(devices)

    def test_disarm_removes_hooks_and_stops_injection(self, sim):
        volume, devices, plan = armed_volume(sim, latent_rate=1.0)
        assert all(d.pre_apply_hook is not None
                   and d.completion_hook is not None for d in devices)
        plan.disarm()
        assert all(d.pre_apply_hook is None and d.completion_hook is None
                   for d in devices)
        volume.execute(Bio.write(0, pattern(STRIPE, seed=5)))
        assert plan.counts.latent == 0

    def test_arm_keeps_hooks_installed_before_and_after(self, sim):
        volume, devices, plan = armed_volume(sim, latent_rate=1.0)
        calls = []
        outer = devices[0].add_hook(
            "pre_apply", lambda dev, bio: calls.append(bio.op))
        # A second plan must leave both the first plan and ``outer`` live.
        second = FaultPlan(seed=9, num_data_zones=volume.num_data_zones,
                           stripe_unit_bytes=SU)
        second.arm(devices)
        volume.execute(Bio.write(0, pattern(STRIPE, seed=6)))
        assert calls and plan.counts.latent > 0
        second.disarm()
        plan.disarm()
        assert devices[0].pre_apply_hook is outer.fn

    def test_determinism_across_runs(self):
        def campaign():
            sim = Simulator()
            volume, _devices, plan = armed_volume(
                sim, latent_rate=0.5, transient_rate=0.05,
                wear_victims=[(1, 1, False)], wear_after_writes=4)
            for stripe in range(6):
                volume.execute(Bio.write(stripe * STRIPE,
                                         pattern(STRIPE, seed=stripe)))
            volume.execute(Bio.read(0, 6 * STRIPE))
            return plan.counts.to_dict(), volume.health.to_dict()

        assert campaign() == campaign()
