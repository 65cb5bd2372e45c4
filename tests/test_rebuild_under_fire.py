"""Rebuild interacting with the self-healing machinery (§4.2 + §5.2)."""

import random

from repro.block import Bio
from repro.faults import FaultPlan, fresh_replacement
from repro.raizn import RaiznConfig, RaiznVolume, rebuild
from repro.raizn.rebuild import rebuild_process
from repro.units import KiB

from conftest import TEST_STRIPE_UNIT, make_volume, make_zns_devices, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


def make_tuned_volume(sim, **config_kwargs):
    devices = make_zns_devices(sim)
    config = RaiznConfig(num_data=len(devices) - 1,
                         stripe_unit_bytes=SU, **config_kwargs)
    return RaiznVolume.create(sim, devices, config), devices


class TestEvictThenRebuild:
    def test_threshold_evicted_device_rebuilds_cleanly(self, sim):
        volume, devices = make_tuned_volume(sim, device_error_threshold=2)
        data = pattern(6 * STRIPE, seed=1)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())

        victim = volume.mapper.stripe_layout(0, 0).data_devices[0]
        stripes = [s for s in range(6) if victim in
                   volume.mapper.stripe_layout(0, s).data_devices][:2]
        for stripe in stripes:
            devices[victim].mark_bad(stripe * SU, SU)
        # Reading through both bad stripes heals twice and crosses the
        # error threshold, evicting the device into degraded mode.
        for stripe in range(6):
            got = volume.execute(Bio.read(stripe * STRIPE, STRIPE)).result
            assert got == data[stripe * STRIPE:(stripe + 1) * STRIPE]
        assert volume.failed[victim]
        assert volume.health.evictions == 1

        replacement = fresh_replacement(sim, devices[(victim + 1) % 5],
                                        name=f"r{victim}")
        report = rebuild(sim, volume, victim, replacement)
        assert report.bytes_written > 0
        assert volume.execute(Bio.read(0, len(data))).result == data
        # Redundancy is back: a different device may now drop out.
        volume.fail_device((victim + 2) % 5)
        assert volume.execute(Bio.read(0, len(data))).result == data


class TestRebuildUnderTransientFire:
    def test_rebuild_completes_through_transient_errors(self, sim):
        volume, devices = make_tuned_volume(sim, max_transient_retries=5)
        data = pattern(8 * STRIPE, seed=2)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        volume.fail_device(0)

        plan = FaultPlan(seed=7, num_data_zones=volume.num_data_zones,
                         stripe_unit_bytes=SU, transient_rate=0.1)
        plan.arm(devices)
        replacement = fresh_replacement(sim, devices[1], "r0")
        report = rebuild(sim, volume, 0, replacement)
        plan.disarm()

        assert plan.counts.transient > 0
        assert volume.health.transient_retries > 0
        assert report.bytes_written > 0
        assert volume.execute(Bio.read(0, len(data))).result == data
        volume.fail_device(2)
        assert volume.execute(Bio.read(0, len(data))).result == data


class TestHealAfterRebuild:
    def test_latent_error_on_former_survivor_heals(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(4 * STRIPE, seed=3)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        volume.fail_device(0)
        replacement = fresh_replacement(sim, devices[1], "r0")
        rebuild(sim, volume, 0, replacement)

        survivor = volume.mapper.stripe_layout(0, 0).data_devices[-1]
        target = volume.devices[survivor]
        target.mark_bad(0, SU)
        # Full redundancy is restored, so the freshly rebuilt device
        # participates in reconstructing the survivor's bad unit.
        assert volume.execute(Bio.read(0, len(data))).result == data
        assert volume.health.heals >= 1


class TestRebuildUnderForegroundLoad:
    def test_foreground_io_everywhere_while_the_window_runs(self, sim):
        """Four closed loops of foreground appends and checked reads over
        every zone, transient command failures armed on every device,
        running for the whole rebuild: whatever zone an IO hits —
        sealed, in the window, not yet reached — it is served correctly,
        and the array ends byte-exact with redundancy restored."""
        volume, devices = make_tuned_volume(sim, max_transient_retries=5)
        zcap = volume.zone_capacity
        expected = {0: bytearray(pattern(zcap, seed=60)),
                    1: bytearray(pattern(9 * STRIPE + 8 * KiB, seed=61)),
                    2: bytearray(pattern(zcap, seed=62)),
                    3: bytearray(pattern(2 * STRIPE, seed=63))}
        for zone, data in expected.items():
            volume.execute(Bio.write(zone * zcap, bytes(data)))
        volume.fail_device(4)
        plan = FaultPlan(seed=11, num_data_zones=volume.num_data_zones,
                         stripe_unit_bytes=SU, transient_rate=0.05)
        plan.arm(devices)
        replacement = fresh_replacement(sim, devices[0], "r4")
        proc = sim.process(rebuild_process(sim, volume, 4, replacement))
        rng = random.Random(12)
        served = {"reads": 0, "appends": 0}

        def foreground():
            while not proc.triggered:
                zone = rng.randrange(4)
                data = expected[zone]
                if zone in (1, 3) and len(data) + 20 * KiB <= zcap \
                        and rng.random() < 0.4:
                    more = pattern(20 * KiB, seed=rng.randrange(1 << 30))
                    lba = zone * zcap + len(data)
                    data += more
                    yield volume.submit(Bio.write(lba, more))
                    served["appends"] += 1
                else:
                    offset = rng.randrange(0, len(data) - 4 * KiB, 4 * KiB)
                    length = min(len(data) - offset, 96 * KiB)
                    bio = yield volume.submit(
                        Bio.read(zone * zcap + offset, length))
                    assert bio.result == bytes(data[offset:offset + length])
                    served["reads"] += 1

        load = [sim.process(foreground()) for _ in range(4)]
        sim.run()
        plan.disarm()
        assert proc.ok and all(job.ok for job in load)
        assert served["reads"] > 20 and served["appends"] > 5
        assert volume.health.transient_retries > 0

        def check():
            for zone, data in expected.items():
                got = volume.execute(Bio.read(zone * zcap, len(data))).result
                assert got == bytes(data), zone
        check()
        volume.fail_device(1)
        check()
