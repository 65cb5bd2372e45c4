"""Fail-slow injection and the gray-failure defense ladder.

Covers the :class:`SlowPlan` injector in isolation (determinism, the
four degradation shapes, hook chaining) and the volume-level defense:
hedged reconstruction reads, the slow-score ladder (demote, evict,
health-maintenance rebuild), and the accounting rule that hedges and
latency outliers never touch ``error_counts``."""

import pytest

from repro.block import Bio
from repro.faults import (
    SlowDeviceSpec,
    SlowPlan,
    degraded_device,
    fresh_replacement,
    ramping_device,
    stalling_device,
)
from repro.raizn import run_health_maintenance, slow_evicted_devices
from repro.raizn.config import RaiznConfig
from repro.raizn.volume import HEDGE_MIN_SAMPLES, RaiznVolume
from repro.sim import Simulator
from repro.units import KiB, MiB
from repro.zns import ZNSDevice

from conftest import TEST_STRIPE_UNIT, make_zns_devices, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


def one_device(sim, seed=0):
    return ZNSDevice(sim, name="zns", num_zones=8, zone_capacity=1 * MiB,
                     seed=seed)


def read_duration(device, offset=0, length=SU):
    bio = device.execute(Bio.read(offset, length))
    return bio.complete_time - bio.submit_time


class TestSlowPlan:
    def test_default_spec_injects_nothing(self, sim):
        device = one_device(sim)
        device.execute(Bio.write(0, pattern(SU)))
        plan = SlowPlan(seed=1, specs=[SlowDeviceSpec(device_index=0)])
        plan.arm([device])
        device.execute(Bio.read(0, SU))
        assert plan.counts.slowed_commands == {}

    def test_duplicate_device_spec_rejected(self):
        with pytest.raises(ValueError):
            SlowPlan(specs=[degraded_device(0), stalling_device(0)])

    def test_persistent_degradation_slows_reads(self, sim):
        healthy = one_device(sim, seed=0)
        slow = one_device(sim, seed=0)
        for device in (healthy, slow):
            device.execute(Bio.write(0, pattern(SU)))
        plan = SlowPlan(specs=[degraded_device(0, factor=4.0)])
        plan.arm([slow])
        assert read_duration(slow) > 2.0 * read_duration(healthy)
        assert plan.counts.slowed_commands[0] >= 1

    def test_stalls_fire_and_are_counted(self, sim):
        device = one_device(sim)
        device.execute(Bio.write(0, pattern(SU)))
        plan = SlowPlan(specs=[stalling_device(0, probability=1.0,
                                               stall_seconds=5e-3)])
        plan.arm([device])
        assert read_duration(device) > 5e-3
        assert plan.counts.stalls[0] == 1

    def test_onset_delays_injection(self, sim):
        device = one_device(sim)
        device.execute(Bio.write(0, pattern(SU)))
        plan = SlowPlan(specs=[stalling_device(0, probability=1.0,
                                               stall_seconds=5e-3,
                                               onset_s=100.0)])
        plan.arm([device])
        assert read_duration(device) < 5e-3
        assert plan.counts.stalls == {}

    def test_ramping_delay_grows_with_time(self, sim):
        device = one_device(sim)
        device.execute(Bio.write(0, pattern(SU)))
        plan = SlowPlan(specs=[ramping_device(0, ramp_per_second=1e-3)])
        plan.arm([device])
        early = read_duration(device)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert read_duration(device) > early + 5e-3

    def test_reads_only_spares_writes(self, sim):
        device = one_device(sim)
        plan = SlowPlan(specs=[SlowDeviceSpec(
            device_index=0, stall_probability=1.0, stall_seconds=5e-3,
            reads_only=True)])
        plan.arm([device])
        wrote = device.execute(Bio.write(0, pattern(SU)))
        assert wrote.complete_time - wrote.submit_time < 5e-3
        assert read_duration(device) > 5e-3

    def test_deterministic_replay(self):
        def run(seed):
            sim = Simulator()
            device = one_device(sim)
            device.execute(Bio.write(0, pattern(4 * SU)))
            plan = SlowPlan(seed=seed, specs=[stalling_device(
                0, probability=0.5, stall_seconds=2e-3)])
            plan.arm([device])
            durations = tuple(read_duration(device, offset=i * SU)
                              for i in range(4))
            return durations, plan.counts.to_dict()

        assert run(7) == run(7)
        # A different seed draws a different stall sequence.
        assert run(7)[1] != run(8)[1]

    def test_delays_add_and_disarm_leaves_the_other_hook(self, sim):
        device = one_device(sim)
        device.execute(Bio.write(0, pattern(SU)))
        calls = []

        def prior_hook(dev, bio):
            calls.append(bio.op)
            return 1e-3

        device.add_hook("service_delay", prior_hook)
        plan = SlowPlan(specs=[stalling_device(0, probability=1.0,
                                               stall_seconds=5e-3)])
        plan.arm([device])
        # Both the injected stall and the pre-existing hook apply.
        assert read_duration(device) > 6e-3
        assert calls
        plan.disarm()
        assert device.service_delay_hook is prior_hook


# ------------------------------------------------------- volume-level defense


def protected_volume(sim, **overrides):
    devices = make_zns_devices(sim)
    config = RaiznConfig(num_data=len(devices) - 1,
                         stripe_unit_bytes=SU,
                         failslow_protection=True, **overrides)
    return RaiznVolume.create(sim, devices, config), devices


def fill_zone(volume, zone):
    stripes = volume.mapper.zone_capacity // STRIPE
    base = zone * volume.mapper.zone_capacity
    for stripe in range(stripes):
        volume.execute(Bio.write(base + stripe * STRIPE,
                                 pattern(STRIPE, seed=64 * zone + stripe)))
    return stripes


def prime_health(volume, stripes, max_passes=8):
    """Read the filled zone until every device's read EWMA is warm."""
    for _ in range(max_passes):
        if all(h.read.samples >= HEDGE_MIN_SAMPLES
               for h in volume.device_health):
            return
        for stripe in range(stripes):
            volume.execute(Bio.read(stripe * STRIPE, STRIPE))
    raise AssertionError("EWMAs never warmed up")


class TestHedgedReads:
    def test_gate_off_by_default(self, sim):
        devices = make_zns_devices(sim)
        config = RaiznConfig(num_data=len(devices) - 1,
                             stripe_unit_bytes=SU)
        volume = RaiznVolume.create(sim, devices, config)
        volume.execute(Bio.write(0, pattern(STRIPE)))
        volume.execute(Bio.read(0, STRIPE))
        assert all(h.read.samples == 0 for h in volume.device_health)
        assert volume.health.slow_hedges == 0

    def test_hedge_wins_and_never_charges_error_counts(self, sim):
        volume, devices = protected_volume(sim)
        stripes = fill_zone(volume, 0)
        prime_health(volume, stripes)
        victim = volume.mapper.stripe_layout(0, 0).data_devices[0]
        plan = SlowPlan(seed=3, specs=[stalling_device(
            victim, probability=1.0, stall_seconds=20e-3)])
        plan.arm(devices)
        result = volume.execute(Bio.read(0, STRIPE)).result
        assert result == pattern(STRIPE, seed=0)
        assert volume.health.slow_hedges >= 1
        assert volume.health.hedge_wins >= 1
        assert volume.device_health[victim].slow_hedges >= 1
        # The hedged loser and the latency outliers are slowness, not
        # hard errors: threshold-driven eviction accounting stays clean.
        assert volume.error_counts == [0] * volume.config.num_devices

    def test_ladder_demotes_evicts_and_rebuilds(self, sim):
        volume, devices = protected_volume(sim)
        stripes = fill_zone(volume, 0)
        fill_zone(volume, 1)  # warms the write EWMAs past HEDGE_MIN_SAMPLES
        prime_health(volume, stripes)
        victim = 1
        plan = SlowPlan(seed=5, specs=[stalling_device(
            victim, probability=1.0, stall_seconds=20e-3)])
        plan.arm(devices)

        # Reads drive demotion; once demoted the victim is avoided for
        # reads, so the writes (which still land on it) must carry the
        # score the rest of the way to eviction.
        for round_ in range(6):
            if volume.health.slow_evictions >= 1:
                break
            for stripe in range(stripes):
                volume.execute(Bio.read(stripe * STRIPE, STRIPE))
            fill_zone(volume, 2 + round_)
        assert volume.health.slow_demotions >= 1
        assert volume.health.slow_evictions == 1
        # Slow eviction keeps the device object in place (remove=False).
        assert volume.failed[victim]
        assert volume.devices[victim] is not None
        assert slow_evicted_devices(volume) == [victim]
        assert volume.error_counts == [0] * volume.config.num_devices

        plan.disarm()
        template = devices[0]
        report = run_health_maintenance(
            sim, volume,
            lambda index: fresh_replacement(sim, template,
                                            name=f"replacement{index}"))
        assert report.replaced == [victim]
        assert not volume.failed[victim]
        assert volume.device_health[victim].read.samples == 0
        for stripe in range(stripes):
            assert volume.execute(Bio.read(stripe * STRIPE, STRIPE)) \
                .result == pattern(STRIPE, seed=stripe)

    def test_demoted_device_avoided_for_reads(self, sim):
        volume, devices = protected_volume(sim)
        stripes = fill_zone(volume, 0)
        prime_health(volume, stripes)
        victim = volume.mapper.stripe_layout(0, 0).data_devices[0]
        volume.device_health[victim].demoted = True
        before = devices[victim].stats.reads
        assert volume.execute(Bio.read(0, STRIPE)).result == \
            pattern(STRIPE, seed=0)
        assert devices[victim].stats.reads == before

    def test_demoted_device_serves_when_a_survivor_faults(self, sim):
        """Demoted is not failed: a latent error on the stripe's parity is
        no double fault while the demoted device still answers."""
        volume, devices = protected_volume(sim)
        stripes = fill_zone(volume, 0)
        prime_health(volume, stripes)
        layout = volume.mapper.stripe_layout(0, 0)
        victim = layout.data_devices[0]
        volume.device_health[victim].demoted = True
        devices[layout.parity_device].mark_bad(0, 4 * KiB)
        before = devices[victim].stats.reads
        assert volume.execute(Bio.read(0, STRIPE)).result == \
            pattern(STRIPE, seed=0)
        assert devices[victim].stats.reads == before + 1
