"""Tests for the §4.3/§5.2 maintenance operations: threshold-triggered
physical zone rewrites and generation-counter maintenance."""

import random

import pytest

from repro.block import Bio
from repro.errors import RaiznError
from repro.faults import power_cycle
from repro.raizn import mount
from repro.raizn.maintenance import (
    GENERATION_LIMIT,
    encode_rewrite_wal,
    decode_rewrite_wal,
    needs_generation_maintenance,
    rewrite_physical_zone,
    run_generation_maintenance,
    run_zone_rewrites,
    zones_needing_rewrite,
)
from repro.raizn.config import RaiznConfig
from repro.raizn.volume import RaiznVolume
from repro.sim import Simulator
from repro.units import SECTOR_SIZE, KiB
from repro.zns import ZNSDevice

from conftest import (
    TEST_STRIPE_UNIT,
    make_volume,
    make_zns_devices,
    pattern,
)

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


def remapped_volume(sim, seed=0):
    """A volume with relocations, produced by a crash + rollback + rewrite."""
    volume, devices = make_volume(sim)
    volume.execute(Bio.write(0, pattern(6 * STRIPE, seed=seed)))
    power_cycle(devices, random.Random(seed + 100))
    volume = mount(sim, devices)
    wp = volume.zone_info(0).write_pointer
    more = pattern(3 * STRIPE - (wp % STRIPE or 0), seed=seed + 1)
    volume.execute(Bio.write(wp, more))
    volume.execute(Bio.flush())
    return volume, devices, wp, more


class TestRewriteWal:
    def test_wal_roundtrip(self):
        entry = encode_rewrite_wal(2, device=3, zone=7, length=12345,
                                   generation=9, staging=11)
        assert decode_rewrite_wal(entry) == (2, 3, 7, 12345, 11)
        assert entry.generation == 9
        unnamed = encode_rewrite_wal(2, 3, 7, 12345, 9)
        assert decode_rewrite_wal(unnamed)[4] is None

    def test_threshold_detection(self, sim):
        volume, _devices = make_volume(sim)
        assert zones_needing_rewrite(volume) == []
        threshold = volume.config.relocation_rebuild_threshold
        for i in range(threshold):
            volume.relocations.unit_for(i * SU, device=2, phys_zone=0)
        assert zones_needing_rewrite(volume) == [(2, 0)]


class TestZoneRewrite:
    def test_rewrite_heals_relocations(self, sim):
        volume, devices, wp, more = remapped_volume(sim, seed=1)
        targets = sorted(volume.relocations.per_phys_zone)
        if not targets:
            pytest.skip("seed produced no relocations")
        device_index, zone = targets[0]
        before = volume.execute(
            Bio.read(0, volume.zone_info(zone).write_pointer)).result
        sim.run_process(rewrite_physical_zone(volume, device_index, zone))
        # The relocations on that device/zone are gone...
        assert not [u for u in volume.relocations.units_on_device(
            device_index) if volume.mapper.zone_of(u.su_lba) == zone]
        # ...and the data is intact, now served straight off the device.
        after = volume.execute(
            Bio.read(0, volume.zone_info(zone).write_pointer)).result
        assert after == before

    def test_rewrite_waits_for_a_metadata_reclaim_in_flight(self, sim):
        """The rewrite stages its copy in a swap zone: with the only one
        taken by a log rotation, it waits for the old log zone to come
        back instead of refusing."""
        from repro.raizn.mdzone import MetadataRole
        volume, devices, wp, more = remapped_volume(sim, seed=1)
        targets = sorted(volume.relocations.per_phys_zone)
        if not targets:
            pytest.skip("seed produced no relocations")
        device_index, zone = targets[0]
        before = volume.execute(
            Bio.read(0, volume.zone_info(zone).write_pointer)).result
        mdz = volume.mdzones[device_index]
        rotation = sim.process(mdz.force_gc(MetadataRole.GENERAL))

        def rewrite_mid_rotation():
            yield sim.timeout(10e-6)
            assert not mdz.swap_zones and not rotation.triggered
            yield from rewrite_physical_zone(volume, device_index, zone)
        sim.run_process(rewrite_mid_rotation())
        assert rotation.ok
        assert volume.execute(
            Bio.read(0, volume.zone_info(zone).write_pointer)).result == before

    def test_rewrite_with_the_general_log_one_entry_short_of_full(
            self, sim):
        """The rewrite's WAL appends may rotate the general log into a
        swap zone: its staging zone must not be that one.  (Staging in the
        first swap zone taken before the START append reset the rotated
        log and wrote the copy over it: the device lost its superblock.)"""
        from repro.raizn.mdzone import MetadataRole
        volume, devices, wp, more = remapped_volume(sim, seed=1)
        targets = sorted(volume.relocations.per_phys_zone)
        if not targets:
            pytest.skip("seed produced no relocations")
        device_index, zone = targets[0]
        before = volume.execute(
            Bio.read(0, volume.zone_info(zone).write_pointer)).result
        mdz = volume.mdzones[device_index]
        filler = volume._generation_blocks()[0]
        while mdz.remaining(MetadataRole.GENERAL) > SECTOR_SIZE:
            sim.run_process(mdz.append(MetadataRole.GENERAL, filler))
        sim.run_process(rewrite_physical_zone(volume, device_index, zone))
        assert volume.execute(
            Bio.read(0, volume.zone_info(zone).write_pointer)).result == before
        volume.execute(Bio.flush())
        power_cycle(devices, random.Random(5))
        again = mount(sim, devices)
        assert again.execute(Bio.read(0, len(before))).result == before

    def test_staging_zone_is_reset_only_once_its_wal_is_retired(self, sim):
        """The rewrite never resets its staging zone while a COPIED entry
        naming it is current: a REWRITE_DONE for it is appended first."""
        from repro.block import Op
        from repro.raizn.maintenance import (
            OP_ZONE_REWRITE_COPIED,
            OP_ZONE_REWRITE_DONE,
        )
        from repro.raizn.metadata import MetadataEntry, MetadataType
        volume, devices, wp, more = remapped_volume(sim, seed=1)
        targets = sorted(volume.relocations.per_phys_zone)
        if not targets:
            pytest.skip("seed produced no relocations")
        device_index, zone = targets[0]
        named, staged, resets = set(), set(), []

        def watch(_dev, bio):
            if bio.op is Op.ZONE_RESET:
                resets.append(bio.offset // volume.phys_zone_size)
                assert resets[-1] not in named, "staging zone reset early"
            elif bio.op is Op.ZONE_APPEND:
                entry, _size = MetadataEntry.decode(bytes(bio.data))
                if entry.mdtype is MetadataType.OP_WAL:
                    opcode, *_rest, staging = decode_rewrite_wal(entry)
                    if opcode == OP_ZONE_REWRITE_COPIED:
                        named.add(staging)
                        staged.add(staging)
                    elif opcode == OP_ZONE_REWRITE_DONE:
                        named.discard(staging)
        hook = devices[device_index].add_hook("pre_apply", watch)
        sim.run_process(rewrite_physical_zone(volume, device_index, zone))
        devices[device_index].remove_hook(hook)
        assert len(staged) == 1 and staged <= set(resets) and not named

    def test_rewrite_survives_crash_after_copy(self, sim):
        """Crash between swap-copy and write-back: the COPIED WAL makes
        the next mount redo the write-back from the swap zone."""
        volume, devices, wp, more = remapped_volume(sim, seed=2)
        targets = sorted(volume.relocations.per_phys_zone)
        if not targets:
            pytest.skip("seed produced no relocations")
        device_index, zone = targets[0]
        full = volume.execute(
            Bio.read(0, volume.zone_info(zone).write_pointer)).result

        # Run the rewrite but cut power right after the COPIED WAL: do
        # the copy phase manually, then destroy the original.
        from repro.raizn.maintenance import (
            OP_ZONE_REWRITE_COPIED,
            OP_ZONE_REWRITE_START,
            _desired_content,
        )
        from repro.raizn.mdzone import MetadataRole
        content = sim.run_process(
            _desired_content(volume, device_index, zone))
        mdz = volume.mdzones[device_index]
        device = devices[device_index]
        swap = mdz.swap_zones[0]
        sim.run_process(mdz.append(MetadataRole.GENERAL, encode_rewrite_wal(
            OP_ZONE_REWRITE_START, device_index, zone, len(content),
            volume.generation[zone]), fua=True))
        if content:
            device.execute(Bio.write(swap * volume.phys_zone_size, content))
        device.execute(Bio.flush())
        sim.run_process(mdz.append(MetadataRole.GENERAL, encode_rewrite_wal(
            OP_ZONE_REWRITE_COPIED, device_index, zone, len(content),
            volume.generation[zone]), fua=True))
        device.execute(Bio.zone_reset(zone * volume.phys_zone_size))
        power_cycle(devices, random.Random(7))

        remounted = mount(sim, devices)
        got = remounted.execute(Bio.read(0, len(full))).result
        assert got == full

    def test_threshold_triggers_rewrite_at_mount(self, sim):
        devices = make_zns_devices(sim)
        config = RaiznConfig(num_data=4, stripe_unit_bytes=SU,
                             relocation_rebuild_threshold=1)
        volume = RaiznVolume.create(sim, devices, config)
        volume.execute(Bio.write(0, pattern(6 * STRIPE, seed=3)))
        power_cycle(devices, random.Random(31))
        volume = mount(sim, devices)
        wp = volume.zone_info(0).write_pointer
        more = pattern(2 * STRIPE, seed=4)
        volume.execute(Bio.write(wp, more))
        volume.execute(Bio.flush())
        if not volume.relocations.units():
            pytest.skip("seed produced no relocations")
        # Remount with a threshold of 1: mount leaves the relocations,
        # and the maintenance step after it rewrites every zone holding one.
        again = mount(sim, devices, relocation_rebuild_threshold=1)
        assert again.relocations.units()
        assert run_zone_rewrites(sim, again)
        assert not again.relocations.units()
        got = again.execute(Bio.read(wp, len(more))).result
        assert got == more

    def test_rewrite_requires_live_device(self, sim):
        volume, _devices = make_volume(sim)
        volume.fail_device(1)
        with pytest.raises(RaiznError):
            sim.run_process(rewrite_physical_zone(volume, 1, 0))


class TestGenerationMaintenance:
    def test_needs_maintenance_detection(self, sim):
        volume, _devices = make_volume(sim)
        assert not needs_generation_maintenance(volume)
        volume.generation[3] = GENERATION_LIMIT - 1
        assert needs_generation_maintenance(volume)

    def test_requires_read_only(self, sim):
        volume, _devices = make_volume(sim)
        with pytest.raises(RaiznError):
            sim.run_process(run_generation_maintenance(sim, volume))

    def test_maintenance_resets_counters_and_resumes_service(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(STRIPE + 8 * KiB, seed=5)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        volume.generation = [GENERATION_LIMIT - 1] * volume.num_data_zones
        volume.read_only = True
        sim.run_process(run_generation_maintenance(sim, volume))
        assert not volume.read_only
        assert all(g == 1 for g in volume.generation)
        # Data is untouched and the volume accepts writes again.
        assert volume.execute(Bio.read(0, len(data))).result == data
        volume.execute(Bio.write(len(data), b"\x42" * 4096))

    def test_overflow_triggers_maintenance_at_mount(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(2 * STRIPE, seed=6)
        volume.execute(Bio.write(0, data))
        # Force the counter near its limit and persist it.
        volume.generation[0] = GENERATION_LIMIT - 1

        def persist():
            yield sim.all_of(volume._persist_generation(fua=True))
        sim.run_process(persist())
        volume.execute(Bio.flush())
        remounted = mount(sim, devices)
        assert all(g <= 2 for g in remounted.generation)
        assert not remounted.read_only
        assert remounted.execute(Bio.read(0, len(data))).result == data

    def test_data_survives_post_maintenance_crash(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(STRIPE, seed=7)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        volume.read_only = True
        sim.run_process(run_generation_maintenance(sim, volume))
        more = pattern(STRIPE, seed=8)
        volume.execute(Bio.write(STRIPE, more))
        volume.execute(Bio.flush())
        power_cycle(devices, random.Random(11))
        remounted = mount(sim, devices)
        got = remounted.execute(Bio.read(0, 2 * STRIPE)).result
        assert got == data + more
