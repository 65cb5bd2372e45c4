"""Mount-time recovery edge cases: superblock discovery, device identity,
metadata compaction, and degraded-mount behaviour."""

import random

import pytest

from repro.block import Bio, BioFlags
from repro.errors import DataLossError, MetadataError, RecoveryError
from repro.faults import power_cycle
from repro.raizn import RaiznConfig, RaiznVolume, mount
from repro.raizn.mdzone import MetadataRole
from repro.raizn.metadata import (MetadataEntry, MetadataType,
                                  encode_partial_parity)
from repro.raizn.parity import full_stripe_parity
from repro.raizn.recovery import _Chain, _ZoneContent
from repro.raizn.writepath import WritePath
from repro.sim import Simulator
from repro.units import KiB
from repro.zns import ZNSDevice, ZoneState

from conftest import (TEST_STRIPE_UNIT, make_volume, make_zns_devices,
                      pattern, record_reconstructions)
from crash_corpus import Corpus, load

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


class TestSuperblockDiscovery:
    @pytest.mark.parametrize("field", [
        "num_data", "num_parity", "stripe_unit_bytes", "num_metadata_zones"])
    def test_persisted_geometry_override_rejected(self, sim, field):
        """The superblock fixes the geometry: overriding it is refused
        before mount touches a device."""
        _, devices = make_volume(sim)
        commands = []
        for dev in devices:
            dev.add_hook("pre_apply", lambda dev, bio: commands.append(bio))
        with pytest.raises(RecoveryError, match=field):
            mount(sim, devices, **{field: 4})
        assert commands == []

    def test_blank_devices_rejected(self, sim):
        devices = make_zns_devices(sim)
        with pytest.raises(RecoveryError):
            mount(sim, devices)

    def test_foreign_device_rejected(self, sim):
        volume, devices = make_volume(sim)
        volume.execute(Bio.flush())
        sim2_volume, other_devices = make_volume(sim)
        mixed = devices[:4] + [other_devices[0]]
        with pytest.raises(RecoveryError):
            mount(sim, mixed)

    def test_too_few_devices_rejected(self, sim):
        volume, devices = make_volume(sim)
        volume.execute(Bio.flush())
        with pytest.raises(DataLossError):
            mount(sim, devices[:3])

    def test_superblock_found_after_metadata_gc(self, sim):
        """The general metadata zone migrates between physical zones; the
        backwards superblock scan must still find it."""
        volume, devices = make_volume(sim)
        data = pattern(STRIPE, seed=1)
        volume.execute(Bio.write(0, data))
        for index in range(5):
            sim.run_process(
                volume.mdzones[index].force_gc(MetadataRole.GENERAL))
        volume.execute(Bio.flush())
        remounted = mount(sim, devices)
        assert remounted.execute(Bio.read(0, STRIPE)).result == data

    def test_superblock_found_below_the_top_sixteen_zones(self, sim):
        """With 20 metadata zones on 26-zone devices the general zone is
        zone 7: the scan reads down to the superblock's own reservation,
        not a fixed window of the top zones."""
        devices = make_zns_devices(sim, num_zones=26)
        config = RaiznConfig(num_data=4, stripe_unit_bytes=SU,
                             num_metadata_zones=20)
        volume = RaiznVolume.create(sim, devices, config)
        assert volume.mdzones[0].role_zone[MetadataRole.GENERAL] == 7
        volume.execute(Bio.flush())
        remounted = mount(sim, devices)
        assert remounted.config.num_metadata_zones == 20
        assert [desc.state for desc in remounted.zone_descs] == \
            [ZoneState.EMPTY] * 6


class TestDegradedMount:
    def test_mount_with_missing_device_slot(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(2 * STRIPE, seed=2)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        presented = list(devices)
        presented[1] = None
        degraded = mount(sim, presented)
        assert degraded.failed[1]
        assert degraded.execute(Bio.read(0, len(data))).result == data

    def test_degraded_mount_tail_from_partial_parity(self, sim):
        """§5.1: with a device missing, the tail stripe's lost unit is
        reconstructed by combining all logged partial parity."""
        volume, devices = make_volume(sim)
        data = pattern(STRIPE + 28 * KiB, seed=3)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        missing = volume.mapper.lba_to_pba(STRIPE)[0]  # holds tail data
        presented = list(devices)
        presented[missing] = None
        degraded = mount(sim, presented)
        assert degraded.zone_info(0).write_pointer == len(data)
        assert degraded.execute(Bio.read(0, len(data))).result == data

    def test_rotation_checkpoint_heads_the_partial_parity_chain(self, sim):
        """A write that finds the parity device's log full goes in behind
        the rotation's checkpoint, which already holds its delta (the
        stripe buffer absorbed it first).  The earlier deltas went with
        the reclaimed zone, so the checkpoint is the chain's head — the
        §4.3 duplicate rule must not drop it for overlapping that write."""
        volume, devices = make_volume(sim, num_zones=8)
        layout = volume.mapper.stripe_layout(0, 0)
        lost, parity = layout.data_devices[0], layout.parity_device
        first, second = pattern(16 * KiB, seed=6), pattern(SU, seed=7)
        volume.execute(Bio.write(0, first, BioFlags.FUA))
        mdz = volume.mdzones[parity]
        role = MetadataRole.PARTIAL_PARITY
        other_zone = 7 * volume.zone_capacity
        pad = MetadataEntry(MetadataType.PARTIAL_PARITY, other_zone,
                            other_zone + 4 * KiB, 0, payload=bytes(60 * KiB))
        while mdz.remaining(role) >= SU + 4 * KiB:
            sim.run_process(mdz.append(role, pad))
        volume.fail_device(lost)
        volume.execute(Bio.write(len(first), second, BioFlags.FUA))
        sim.run()
        assert mdz.gc_cycles == 1
        for device in devices:
            device.power_fail_to({})
            device.power_on()
        degraded = mount(sim, [None if index == lost else device
                               for index, device in enumerate(devices)])
        # ``lost`` held the stripe's first unit: all of it comes from the
        # partial-parity chain.
        assert degraded.zone_info(0).write_pointer == len(first + second)
        assert degraded.execute(
            Bio.read(0, len(first + second))).result == first + second

    def test_refilled_stripe_with_conflicting_parity_reads_true(self, sim):
        """A crash tears two units of stripe 3, so the mount rolls the zone
        back into it; the stripe's parity unit stays on its device, stale.
        The refill completes the stripe with its parity relocated (§5.2:
        in memory, its delta in the partial-parity log).  Another crash,
        and the device of the refilled unit 1 is lost: the degraded mount
        must serve unit 1 from the true parity, not the stale one."""
        volume, devices = make_volume(sim, num_zones=8)
        old = pattern(4 * STRIPE, seed=8)
        volume.execute(Bio.write(0, old[:3 * STRIPE]))
        volume.execute(Bio.flush())
        volume.execute(Bio.write(3 * STRIPE, old[3 * STRIPE:]))
        layout = volume.mapper.stripe_layout(0, 3)
        torn = layout.data_devices[1:3]
        for index, device in enumerate(devices):
            device.power_fail_to({0: 3 * SU if index in torn else 4 * SU})
        for device in devices:
            device.power_on()
        remounted = mount(sim, devices)
        assert remounted.zone_info(0).write_pointer == 3 * STRIPE + SU
        new = pattern(3 * SU, seed=9)
        remounted.execute(Bio.write(3 * STRIPE + SU, new, BioFlags.FUA))
        assert (0, 3) in remounted.relocated_parity
        for device in devices:
            device.power_fail_to({})
        for device in devices:
            device.power_on()
        lost = layout.data_devices[1]
        devices[lost].fail_device()
        degraded = mount(sim, [None if index == lost else device
                               for index, device in enumerate(devices)])
        acked = old[:3 * STRIPE + SU] + new
        assert degraded.zone_info(0).write_pointer == len(acked)
        assert degraded.execute(Bio.read(0, len(acked))).result == acked

    def test_relocated_parity_with_a_gap_in_its_chain_is_not_served(self, sim):
        """In a zone with relocations the completing delta says stripe 1's
        on-device parity may be stale, but the chain does not reach back
        to the stripe's start: no parity to serve the missing unit from,
        and the degraded walk says so when it settles the stripe."""
        volume, devices = make_volume(sim, num_zones=8)
        volume.execute(Bio.write(0, pattern(2 * STRIPE, seed=10)))
        volume.zone_descs[0].has_relocations = True
        tail = encode_partial_parity(STRIPE + SU, 2 * STRIPE,
                                     volume.generation[0], 0, bytes(SU))
        layout = volume.mapper.stripe_layout(0, 1)
        extents = [None if index == layout.data_devices[0]
                   else device.zones[0].write_pointer
                   for index, device in enumerate(devices)]
        walk = _ZoneContent(volume, 0, extents, {1: _Chain(STRIPE, [tail])})
        with pytest.raises(DataLossError, match="zone 0 stripe 1"):
            sim.run_process(walk._settle_parity(1, layout, 2 * STRIPE))

    def test_a_missing_unit_held_whole_in_its_relocation_unit_gives_parity(
            self, sim):
        """Stripe 1's unit 0 sits whole in its relocation unit, its device
        is missing from the walk, and the stripe's parity unit is torn,
        with no chain or relocated parity: redundancy rebuilds none of
        unit 0.  Settling the torn parity reads unit 0 from its relocation
        unit and records the stripe's true parity."""
        volume, devices = make_volume(sim, num_zones=8)
        data = pattern(2 * STRIPE, seed=25)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        layout = volume.mapper.stripe_layout(0, 1)
        lost, parity = layout.data_devices[0], layout.parity_device
        volume.relocations.unit_for(STRIPE, lost, 0).write(
            STRIPE, data[STRIPE:STRIPE + SU])
        extents = [None if index == lost else SU + SU // 2 if index == parity
                   else device.zones[0].write_pointer
                   for index, device in enumerate(devices)]
        walk = _ZoneContent(volume, 0, extents, {})
        sim.run_process(walk._settle_parity(1, layout, 2 * STRIPE))
        assert volume.relocated_parity[(0, 1)] == full_stripe_parity(
            data[STRIPE:], volume.config.num_data)

    def test_degraded_mount_can_write(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(STRIPE, seed=4)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        presented = list(devices)
        presented[0] = None
        degraded = mount(sim, presented)
        more = pattern(STRIPE, seed=5)
        degraded.execute(Bio.write(STRIPE, more))
        got = degraded.execute(Bio.read(0, 2 * STRIPE)).result
        assert got == data + more

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 28: the degraded "
                       "walk arms no stale unit (DESIGN decision 3)")
    def test_a_degraded_rollback_keeps_its_stale_units_dead(self, sim):
        """Stripe 1 is written whole and not flushed; the crash tears its
        parity unit, and the device of its unit 0 is lost: the degraded
        mount ends the zone at stripe 1 (no redundancy rebuilds unit 0),
        with units 1-3's bytes stale on their devices past it.  A FUA
        write then refills unit 0 only.  The next mount must not take
        the stale units back as if they followed it."""
        volume, devices = make_volume(sim, num_zones=8)
        old = pattern(2 * STRIPE, seed=23)
        volume.execute(Bio.write(0, old[:STRIPE]))
        volume.execute(Bio.flush())
        volume.execute(Bio.write(STRIPE, old[STRIPE:]))
        layout = volume.mapper.stripe_layout(0, 1)
        for index, device in enumerate(devices):
            device.power_fail_to({zone.index: SU + SU // 2 if zone.index == 0
                                  and index == layout.parity_device
                                  else zone.write_pointer
                                  for zone in device.zones})
        for device in devices:
            device.power_on()
        presented = [None if index == layout.data_devices[0] else device
                     for index, device in enumerate(devices)]
        degraded = mount(sim, presented)
        assert degraded.zone_info(0).write_pointer == STRIPE
        new = pattern(SU, seed=24)
        degraded.execute(Bio.write(STRIPE, new, BioFlags.FUA))
        again = mount(sim, presented)
        assert again.zone_info(0).write_pointer == STRIPE + SU



class TestRebuildReach:
    """``_ZoneContent._rebuild_reach`` is the one rule for how far a lost
    stripe unit is rebuilt.  Mount's stripe walk (``analyze``) bounds the
    zone by it, and ``_reconstruct_su`` must fetch exactly that much: a
    result that heard no media error is as long as the rule said before
    the I/O."""

    @pytest.fixture
    def reconstructions(self, monkeypatch):
        return record_reconstructions(monkeypatch)

    def test_degraded_mount_goldens_fetch_what_the_rule_predicts(
            self, reconstructions):
        degraded = {name: entry for name, entry in load("mount").items()
                    if "missing" in entry}
        corpus = Corpus(degraded)
        assert len(degraded) == 8
        for entry in degraded.values():
            assert corpus.check(entry) == []
        assert any(degraded for degraded, _reach, _got in reconstructions)
        assert [call for call in reconstructions if call[1] != call[2]] == []

    def test_soak_seed_12_fetches_what_the_rule_predicts(self, soak_seed12):
        """Quick soak seed 12 raised at zone 2 stripe 10 while the bound
        counted the chain and the fetch took the shorter full parity.  The
        one run serves ``test_soaktest.py``'s seed-12 campaign too."""
        report, reconstructions = soak_seed12
        assert any(degraded for degraded, _reach, _got in reconstructions)
        assert [call for call in reconstructions if call[1] != call[2]] == []
        assert report["passed"]


class TestUnitReaderFallbacks:
    """Two fallbacks of mount's unit reads that no campaign-free test met
    before: the one reader asking a device only for the gap before a
    piece it holds, and a reconstruction whose parity read meets a
    latent extent falling back to the partial-parity chain."""

    def test_a_held_piece_leaves_only_the_gap_before_it_to_read(self, sim):
        volume, devices = make_volume(sim, num_zones=8)
        data = pattern(STRIPE, seed=21)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        reads = []
        for dev in devices:
            dev.add_hook("pre_apply", lambda dev, bio: reads.append(
                (dev.name, bio.offset, bio.length)))
        device = volume.mapper.stripe_layout(0, 0).data_devices[0]
        extents = [dev.zones[0].write_pointer for dev in devices]
        content = _ZoneContent(volume, 0, extents, {})
        held, _error = sim.run_process(
            content._read_unit(0, device, 8 * KiB, 16 * KiB))
        whole, _error = sim.run_process(
            content._read_unit(0, device, 0, 16 * KiB))
        assert (held, whole) == (data[8 * KiB:16 * KiB], data[:16 * KiB])
        name = devices[device].name
        assert reads == [(name, 8 * KiB, 8 * KiB), (name, 0, 8 * KiB)]

    def test_a_latent_parity_unit_falls_back_to_the_chain(self, sim):
        """Stripe 0 is written one unit at a time, each logging its delta
        but the last (the completing write puts the whole parity in
        place), and never flushed.  The power cut keeps every cached byte
        but unit 1's, and the parity unit has a latent extent.  A
        healthy mount repairs unit 1: full parity reaches further, its
        read fails, and the chain of the first three units rebuilds it —
        without the fallback the repair falls short and the zone rolls
        back to unit 1."""
        volume, devices = make_volume(sim, num_zones=8)
        data = pattern(STRIPE, seed=22)
        for index in range(4):
            volume.execute(Bio.write(index * SU, data[index * SU:
                                                      (index + 1) * SU]))
        layout = volume.mapper.stripe_layout(0, 0)
        torn = layout.data_devices[1]
        for index, device in enumerate(devices):
            device.power_fail_to({zone.index: zone.write_pointer
                                  for zone in device.zones
                                  if zone.index or index != torn})
        for device in devices:
            device.power_on()
        devices[layout.parity_device].mark_bad(0, 4 * KiB)
        remounted = mount(sim, devices)
        assert remounted.zone_info(0).write_pointer == STRIPE
        assert remounted.execute(Bio.read(0, STRIPE)).result == data


def tear_the_parity_of_a_completing_write(sim, torn_at, flags=BioFlags.FUA):
    """Stripe 1 of zone 0 is written but for its last 4 KiB and flushed; a
    4 KiB write completes it.  The power goes the instant that write is
    acknowledged, every data unit on its device and the stripe's parity
    unit torn ``torn_at`` bytes in: a FUA write's parity write is still in
    flight then, a plain write's parity sits in the device cache.  Returns
    the devices (powered on), stripe 1's layout and every byte written."""
    volume, devices = make_volume(sim, num_zones=8)
    written = pattern(2 * STRIPE, seed=13)
    volume.execute(Bio.write(0, written[:-4 * KiB]))
    volume.execute(Bio.flush())
    layout = volume.mapper.stripe_layout(0, 1)

    def crash(event):
        assert event.ok
        for index, device in enumerate(devices):
            device.power_fail_to({0: SU + torn_at
                                  if index == layout.parity_device
                                  else device.zones[0].write_pointer})

    volume.submit(Bio.write(len(written) - 4 * KiB, written[-4 * KiB:],
                            flags)).add_callback(crash)
    sim.run()
    for device in devices:
        device.power_on()
    return devices, layout, written


def degraded_mount_after_the_tear(sim, torn_at):
    """The crash under a FUA write, and the device of stripe 1's last unit
    — the one the completing write landed on — is lost with it."""
    devices, layout, acked = tear_the_parity_of_a_completing_write(
        sim, torn_at)
    lost = layout.data_devices[-1]
    devices[lost].fail_device()
    degraded = mount(sim, [None if index == lost else device
                           for index, device in enumerate(devices)])
    return degraded, acked


class TestParityTornUnderACompletingWrite:
    """A FUA write shorter than a stripe unit that completes its stripe is
    acknowledged on its logged delta, before its parity write lands: a
    crash can tear the parity under an acknowledged write."""

    @pytest.mark.parametrize("flags", [BioFlags.FUA, BioFlags.NONE],
                             ids=["fua", "plain"])
    @pytest.mark.parametrize("torn_at", [0, 32 * KiB])
    def test_healthy_mount_completes_the_parity_unit(self, sim, torn_at,
                                                     flags):
        """The torn parity unit is the last complete stripe's, no logical
        gap: the mount completes it in place all the same."""
        devices, layout, written = tear_the_parity_of_a_completing_write(
            sim, torn_at, flags)
        remounted = mount(sim, devices)
        assert remounted.zone_info(0).write_pointer == len(written)
        assert remounted.execute(Bio.read(0, len(written))).result == written
        assert devices[layout.parity_device].zones[0].write_pointer \
            == 2 * SU
        remounted.fail_device(layout.data_devices[-1])
        assert remounted.execute(Bio.read(0, len(written))).result == written

    @pytest.mark.parametrize("torn_at", [0, 32 * KiB])
    def test_degraded_mount_takes_the_parity_from_the_chain(self, sim,
                                                            torn_at):
        degraded, acked = degraded_mount_after_the_tear(sim, torn_at)
        assert degraded.zone_info(0).write_pointer == len(acked)
        assert degraded.execute(Bio.read(0, len(acked))).result == acked

    def test_without_the_completing_delta_the_write_is_lost(
            self, sim, monkeypatch):
        """Detection power: a write path that does not log the delta of
        the segment completing a stripe leaves the lost unit's last 4 KiB
        nowhere, and the degraded mount rolls back below the ack."""
        emit = WritePath._emit_partial_parity

        def drop_completing(path, join, desc, device, stripe_lba,
                            in_stripe, chunk, fua, batch):
            if in_stripe + len(chunk) < desc.stripe_width:
                emit(path, join, desc, device, stripe_lba, in_stripe,
                     chunk, fua, batch)

        monkeypatch.setattr(WritePath, "_emit_partial_parity",
                            drop_completing)
        degraded, acked = degraded_mount_after_the_tear(sim, 0)
        assert degraded.zone_info(0).write_pointer == len(acked) - 4 * KiB


class TestMetadataCompaction:
    def test_mount_compacts_metadata_zones(self, sim):
        volume, devices = make_volume(sim)
        for i in range(10):
            volume.execute(Bio.write(i * 4 * KiB, b"\x01" * 4096))
        volume.execute(Bio.flush())
        remounted = mount(sim, devices)
        # After compaction at most two metadata zones are non-empty and
        # at least one swap zone is ready on each device.
        for index, dev in enumerate(devices):
            nonempty = sum(
                1 for z in range(remounted.num_data_zones, dev.num_zones)
                if dev.zone_info(z).write_pointer
                > dev.zone_info(z).start)
            assert nonempty <= 2
            assert len(remounted.mdzones[index].swap_zones) >= 1

    def test_generation_counters_survive_compaction(self, sim):
        volume, devices = make_volume(sim)
        for _ in range(5):
            volume.execute(Bio.write(0, b"\x01" * 4096))
            volume.execute(Bio.zone_reset(0))
        generation = volume.generation[0]
        volume.execute(Bio.flush())
        remounted = mount(sim, devices)
        assert remounted.generation[0] >= generation

    @staticmethod
    def tear_tail(volume, dev, zones):
        """End each metadata zone the way a power cut can: the header
        sector and two payload sectors of a 64 KiB partial-parity entry."""
        entry = MetadataEntry(MetadataType.PARTIAL_PARITY, 0, 64 * KiB, 1,
                              payload=bytes(64 * KiB))
        for zone in zones:
            dev.execute(Bio.zone_append(zone * volume.phys_zone_size,
                                        entry.encode()[:12 * KiB]))
        dev.execute(Bio.flush())

    def test_checkpoint_never_lands_behind_a_torn_entry(self, sim):
        """Entries carry no checksum: a checkpoint appended behind a torn
        entry is read back as that entry's payload, and the next mount
        finds no superblock.  The emptiest zones of device 0 are torn, so
        its checkpoint must go to the general log's own zone."""
        volume, devices = make_volume(sim)
        for _ in range(5):      # grow the general log past the torn zones'
            volume.execute(Bio.write(0, b"\x01" * 4096))
            volume.execute(Bio.zone_reset(0))
        data = pattern(STRIPE, seed=11)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        mdz = volume.mdzones[0]
        general = mdz.role_zone[MetadataRole.GENERAL]
        self.tear_tail(volume, devices[0],
                       [z for z in mdz.used if z != general])
        remounted = mount(sim, devices)
        assert remounted.mdzones[0].role_zone[MetadataRole.GENERAL] == general
        assert not remounted.mdzones[0].torn
        again = mount(sim, devices)
        assert again.execute(Bio.read(0, STRIPE)).result == data

    def test_mount_refuses_when_every_metadata_zone_is_torn(self, sim):
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(STRIPE, seed=12)))
        volume.execute(Bio.flush())
        self.tear_tail(volume, devices[0], list(volume.mdzones[0].used))
        with pytest.raises(MetadataError, match="torn"):
            mount(sim, devices)


class TestZoneStatesAfterMount:
    def test_full_zone_stays_full(self, sim):
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(volume.zone_capacity, seed=6)))
        volume.execute(Bio.flush())
        remounted = mount(sim, devices)
        assert remounted.zone_info(0).state is ZoneState.FULL

    def test_partial_zone_comes_back_closed(self, sim):
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(STRIPE, seed=7)))
        volume.execute(Bio.flush())
        remounted = mount(sim, devices)
        assert remounted.zone_info(0).state is ZoneState.CLOSED

    def test_persistence_bitmap_rebuilt(self, sim):
        """Everything on media after a crash is durable by definition."""
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(2 * STRIPE, seed=8)))
        volume.execute(Bio.flush())
        power_cycle(devices, random.Random(1))
        remounted = mount(sim, devices)
        desc = remounted.zone_descs[0]
        assert desc.persistence.frontier == \
            desc.su_index_of(desc.write_pointer - 1) + 1

    def test_tail_stripe_buffer_rebuilt(self, sim):
        """An incomplete tail stripe needs its buffer back so the next
        write completing the stripe can compute full parity."""
        volume, devices = make_volume(sim)
        data = pattern(SU + 8 * KiB, seed=9)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        remounted = mount(sim, devices)
        buffer = remounted.zone_descs[0].tail
        assert buffer is not None and buffer.stripe == 0
        assert buffer.fill_end == len(data)
        # Completing the stripe must produce correct parity: verify by
        # degraded read afterwards.
        rest = pattern(STRIPE - len(data), seed=10)
        remounted.execute(Bio.write(len(data), rest))
        remounted.fail_device(volume.mapper.lba_to_pba(0)[0])
        got = remounted.execute(Bio.read(0, STRIPE)).result
        assert got == data + rest
