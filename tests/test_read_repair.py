"""Self-healing read path: read-repair, retry, and threshold eviction."""

import pytest

from repro.block import Bio, Op
from repro.errors import (
    DegradedModeError,
    MediaError,
    TransientCommandError,
)
from repro.raizn import RaiznConfig, RaiznVolume
from repro.units import KiB

from conftest import TEST_STRIPE_UNIT, make_volume, make_zns_devices, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


def make_tuned_volume(sim, **config_kwargs):
    """A volume with self-healing knobs overridden."""
    devices = make_zns_devices(sim)
    config = RaiznConfig(num_data=len(devices) - 1,
                         stripe_unit_bytes=SU, **config_kwargs)
    return RaiznVolume.create(sim, devices, config), devices


def su_location(volume, zone, stripe, slot):
    """(device, pba) of data SU ``slot`` of ``stripe`` in ``zone``."""
    layout = volume.mapper.stripe_layout(zone, stripe)
    device = layout.data_devices[slot]
    pba = zone * volume.phys_zone_size + stripe * SU
    return device, pba


class TestLatentHeal:
    def test_read_repair_reconstructs_and_relocates(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(2 * STRIPE, seed=1)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        device, pba = su_location(volume, 0, 0, 0)
        devices[device].mark_bad(pba, SU)

        assert volume.execute(Bio.read(0, SU)).result == data[:SU]
        assert volume.health.media_errors == 1
        assert volume.health.heals == 1
        assert volume.relocations.units_on_device(device)

    def test_healed_unit_serves_from_relocation(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(STRIPE, seed=2)
        volume.execute(Bio.write(0, data))
        device, pba = su_location(volume, 0, 0, 0)
        devices[device].mark_bad(pba, SU)
        volume.execute(Bio.read(0, SU))
        # The relocated copy serves the re-read without touching the bad
        # media again, so the error counter stays put.
        assert volume.execute(Bio.read(0, SU)).result == data[:SU]
        assert volume.health.media_errors == 1

    def test_sub_unit_read_heals_whole_unit(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(STRIPE, seed=3)
        volume.execute(Bio.write(0, data))
        device, pba = su_location(volume, 0, 0, 1)
        devices[device].mark_bad(pba, SU)
        got = volume.execute(Bio.read(SU + 8 * KiB, 16 * KiB)).result
        assert got == data[SU + 8 * KiB:SU + 24 * KiB]
        assert volume.health.heals == 1


class TestTransientRetry:
    def install_flaky_reads(self, device, failures):
        """Fail the next ``failures`` READ submissions on ``device``."""
        budget = [failures]

        def hook(dev, bio):
            if bio.op is Op.READ and budget[0] > 0:
                budget[0] -= 1
                raise TransientCommandError(f"{dev.name}: injected")
        device.add_hook("pre_apply", hook)

    def test_bounded_retry_recovers(self, sim):
        volume, devices = make_tuned_volume(sim, max_transient_retries=4)
        data = pattern(STRIPE, seed=4)
        volume.execute(Bio.write(0, data))
        device, _pba = su_location(volume, 0, 0, 0)
        self.install_flaky_reads(devices[device], failures=3)
        assert volume.execute(Bio.read(0, SU)).result == data[:SU]
        assert volume.health.transient_retries == 3
        assert volume.health.transient_escalations == 0

    def test_exhausted_retries_escalate_to_degraded_serve(self, sim):
        volume, devices = make_tuned_volume(sim, max_transient_retries=1)
        data = pattern(STRIPE, seed=5)
        volume.execute(Bio.write(0, data))
        device, _pba = su_location(volume, 0, 0, 0)
        self.install_flaky_reads(devices[device], failures=100)
        # Both submissions fail; the SU is reconstructed from the stripe.
        assert volume.execute(Bio.read(0, SU)).result == data[:SU]
        assert volume.health.transient_escalations >= 1
        assert volume.error_counts[device] >= 1


class TestDetectionMode:
    def test_read_repair_off_serves_corrupt_data(self, sim):
        volume, devices = make_tuned_volume(sim, read_repair=False)
        data = pattern(STRIPE, seed=6)
        volume.execute(Bio.write(0, data))
        device, pba = su_location(volume, 0, 0, 0)
        devices[device].mark_bad(pba, SU)
        got = volume.execute(Bio.read(0, SU)).result
        # mark_bad flips bits, so the corruption is observable — that is
        # exactly what the errortest detection-power check relies on.
        assert got != data[:SU]
        assert volume.health.unrepaired_serves == 1
        assert volume.health.heals == 0


class TestThresholdEviction:
    def test_second_error_evicts_device(self, sim):
        volume, devices = make_tuned_volume(sim, device_error_threshold=2)
        data = pattern(4 * STRIPE, seed=7)
        volume.execute(Bio.write(0, data))
        device, pba = su_location(volume, 0, 0, 0)
        # A second bad SU on the same device, in a later stripe where it
        # again holds data (it may be the parity device of stripe 1).
        stripe1 = next(s for s in range(1, 4) if device in
                       volume.mapper.stripe_layout(0, s).data_devices)
        slot1 = volume.mapper.stripe_layout(0, stripe1) \
            .data_devices.index(device)
        devices[device].mark_bad(pba, SU)
        devices[device].mark_bad(pba + stripe1 * SU, SU)

        assert volume.execute(Bio.read(0, SU)).result == data[:SU]
        assert not volume.failed[device]
        offset1 = stripe1 * STRIPE + slot1 * SU
        got = volume.execute(Bio.read(offset1, SU)).result
        assert got == data[offset1:offset1 + SU]
        assert volume.failed[device]
        assert volume.health.evictions == 1
        # The evicted device's data keeps flowing from parity.
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_no_eviction_without_redundancy(self, sim):
        volume, devices = make_tuned_volume(sim, device_error_threshold=1)
        data = pattern(STRIPE, seed=8)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        failed = volume.mapper.stripe_layout(0, 0).parity_device
        volume.fail_device(failed)
        device, pba = su_location(volume, 0, 0, 0)
        devices[device].mark_bad(pba, SU)
        # The error is charged but the device must NOT be evicted: with
        # one device already gone, evicting a second would lose data.
        with pytest.raises(DegradedModeError):
            volume.execute(Bio.read(0, SU))
        assert not volume.failed[device]
        assert volume.health.evictions == 0


class TestDoubleFault:
    def test_media_error_plus_failed_device_raises(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(STRIPE, seed=9)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        device, pba = su_location(volume, 0, 0, 0)
        other = volume.mapper.stripe_layout(0, 0).data_devices[1]
        volume.fail_device(other)
        devices[device].mark_bad(pba, SU)
        # Reconstructing the bad SU needs every other device, one of
        # which is gone — single parity cannot cover two losses.
        with pytest.raises(DegradedModeError):
            volume.execute(Bio.read(0, SU))


class TestTwoLatentSectorsInOneStripe:
    """Two units of one flushed stripe each hold a latent 4 KiB sector, at
    different offsets: parity covers each sector from the other units'
    same offsets, so every read can be served.  It is not: the heal
    reconstructs the bad unit whole (``_degraded(heal=True)`` takes
    ``_reconstruct(whole=True)``), whose ``ReadPath.reconstruct`` reads
    each sibling's whole written extent, and ``_survivor_read`` fails the
    reconstruction on the other unit's own latent sector (ROADMAP items 1
    and 21 (b))."""

    @pytest.mark.xfail(strict=True, raises=MediaError, reason=(
        "ReadPath.reconstruct, healing the bad unit whole, reads the "
        "other bad unit's whole extent, which fails on its own latent "
        "sector"))
    @pytest.mark.parametrize("lo, length", [
        (4 * KiB, 4 * KiB), (2 * SU + 32 * KiB, 4 * KiB), (0, STRIPE)],
        ids=["unit0-sector", "unit2-sector", "whole-stripe"])
    def test_each_read_is_served_from_parity(self, sim, lo, length):
        volume, devices = make_volume(sim)
        data = pattern(STRIPE, seed=10)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        for slot, offset in ((0, 4 * KiB), (2, 32 * KiB)):
            device, pba = su_location(volume, 0, 0, slot)
            devices[device].mark_bad(pba + offset, 4 * KiB)
        assert volume.execute(Bio.read(lo, length)).result == \
            data[lo:lo + length]
