"""Integration tests for the RAIZN volume: write/read paths, parity,
zone management, FUA semantics, and error handling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.block import Bio, BioFlags, Op
from repro.errors import (
    DataLossError,
    InvalidAddressError,
    RaiznError,
    ReadUnwrittenError,
    VolumeStateError,
    WritePointerViolation,
    ZoneStateError,
)
from repro.faults import wear_out_zone
from repro.raizn import RaiznConfig, RaiznVolume
from repro.sim import Simulator
from repro.units import KiB, MiB
from repro.zns import ZoneState

from conftest import (
    TEST_STRIPE_UNIT,
    TEST_ZONE_CAPACITY,
    make_volume,
    make_zns_devices,
    pattern,
)

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU  # D = 4


class TestGeometry:
    def test_capacity_excludes_parity_and_metadata(self, volume):
        # 12 zones, 3 metadata => 9 data zones; D=4 of 5 devices.
        assert volume.num_zones == 9
        assert volume.zone_capacity == 4 * TEST_ZONE_CAPACITY
        assert volume.capacity == 9 * 4 * TEST_ZONE_CAPACITY

    def test_zone_report(self, volume):
        report = volume.report_zones()
        assert len(report) == 9
        assert all(info.state is ZoneState.EMPTY for info in report)

    def test_mismatched_geometry_rejected(self, sim):
        devices = make_zns_devices(sim, n=4)
        devices.append(make_zns_devices(sim, n=1, num_zones=20)[0])
        with pytest.raises(Exception):
            RaiznVolume.create(sim, devices)


    def test_array_without_any_device_rejected(self, sim):
        with pytest.raises(RaiznError, match="no present device"):
            RaiznVolume(sim, [None] * 5, RaiznConfig(num_data=4), b"\0" * 16)


class TestWriteRead:
    def test_full_stripe_roundtrip(self, volume):
        data = pattern(STRIPE, seed=1)
        volume.execute(Bio.write(0, data))
        assert volume.execute(Bio.read(0, STRIPE)).result == data

    def test_sector_writes_roundtrip(self, volume):
        data = pattern(16 * KiB, seed=2)
        for offset in range(0, 16 * KiB, 4 * KiB):
            volume.execute(Bio.write(offset, data[offset:offset + 4 * KiB]))
        assert volume.execute(Bio.read(0, 16 * KiB)).result == data

    def test_multi_stripe_write(self, volume):
        data = pattern(3 * STRIPE + 12 * KiB, seed=3)
        volume.execute(Bio.write(0, data))
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_unaligned_read_offsets(self, volume):
        data = pattern(2 * STRIPE, seed=4)
        volume.execute(Bio.write(0, data))
        for offset, length in ((4 * KiB, 8 * KiB), (SU - 4 * KiB, 8 * KiB),
                               (STRIPE - 4 * KiB, 8 * KiB)):
            got = volume.execute(Bio.read(offset, length)).result
            assert got == data[offset:offset + length]

    def test_write_pointer_enforced(self, volume):
        volume.execute(Bio.write(0, b"\x01" * 4096))
        with pytest.raises(WritePointerViolation):
            volume.execute(Bio.write(64 * KiB, b"\x02" * 4096))

    def test_read_beyond_wp_rejected(self, volume):
        volume.execute(Bio.write(0, b"\x01" * 4096))
        with pytest.raises(ReadUnwrittenError):
            volume.execute(Bio.read(0, 8192))

    def test_read_across_zone_boundary(self, volume):
        zone_cap = volume.zone_capacity
        volume.execute(Bio.write(0, pattern(zone_cap, seed=5)))
        data2 = pattern(8 * KiB, seed=6)
        volume.execute(Bio.write(zone_cap, data2))
        got = volume.execute(Bio.read(zone_cap - 4 * KiB, 8 * KiB)).result
        assert got[4 * KiB:] == data2[:4 * KiB]

    def test_write_fills_zone_to_full(self, volume):
        volume.execute(Bio.write(0, pattern(volume.zone_capacity, seed=7)))
        assert volume.zone_info(0).state is ZoneState.FULL

    def test_second_zone_independent(self, volume):
        zone1 = volume.zone_capacity
        data = pattern(STRIPE, seed=8)
        volume.execute(Bio.write(zone1, data))
        assert volume.execute(Bio.read(zone1, STRIPE)).result == data
        assert volume.zone_info(0).state is ZoneState.EMPTY

    def test_misaligned_write_rejected(self, volume):
        with pytest.raises(InvalidAddressError):
            volume.execute(Bio.write(0, b"\x01" * 100))

    def test_parity_written_for_complete_stripes(self, volume_and_devices):
        volume, devices = volume_and_devices
        volume.execute(Bio.write(0, pattern(STRIPE, seed=9)))
        layout = volume.mapper.stripe_layout(0, 0)
        parity_dev = devices[layout.parity_device]
        assert parity_dev.zone_info(0).write_pointer >= SU

    def test_partial_parity_logged_for_incomplete_stripe(
            self, volume_and_devices):
        volume, devices = volume_and_devices
        volume.execute(Bio.write(0, b"\x01" * 4096))
        layout = volume.mapper.stripe_layout(0, 0)
        mdz = volume.mdzones[layout.parity_device]
        from repro.raizn.mdzone import MetadataRole
        pp_zone = mdz.role_zone[MetadataRole.PARTIAL_PARITY]
        assert mdz.used[pp_zone] >= 8192  # header + delta


def _record_commands(devices):
    """Log every command submitted to ``devices`` as plain tuples."""
    log = []
    for index, dev in enumerate(devices):
        def submit(bio, _index=index, _submit=dev.submit):
            log.append((_index, bio.op, bio.offset, bio.length, bio.flags))
            return _submit(bio)
        dev.submit = submit
    return log


def _traced_volume(sim, tracing):
    config = RaiznConfig(num_data=4, stripe_unit_bytes=SU, tracing=tracing)
    devices = make_zns_devices(sim)
    return RaiznVolume.create(sim, devices, config,
                              array_uuid=b"\x07" * 16), devices


# Array states that change a piece's fate.  Each arranges the state on a
# volume whose zone 0 holds an 8 KiB prefix and returns the expected
# outcome of a data piece as a function of its target device.

def _healthy(volume, devices):
    return lambda device: "in place"


def _device_failed(volume, devices):
    failed, _pba = volume.mapper.lba_to_pba(SU)
    volume.fail_device(failed)
    return lambda device: "omitted" if device == failed else "in place"


def _relocation_armed(volume, devices):
    # §5.2 state: SU 2 of stripe 0 already lives in the log.  The
    # device's write pointer then stays behind for later stripes, so
    # everything this write sends to that device is relocated too.
    armed, _pba = volume.mapper.lba_to_pba(2 * SU)
    volume.relocations.unit_for(2 * SU, armed, 0)
    volume.zone_descs[0].has_relocations = True
    return lambda device: "relocated" if device == armed else "in place"


def _zone_read_only(volume, devices):
    worn, _pba = volume.mapper.lba_to_pba(3 * SU)
    wear_out_zone(devices[worn], 0)
    volume._sync_phys_desc(worn, 0)     # the volume has noticed
    return lambda device: "relocated" if device == worn else "in place"


class TestWriteEmission:
    """One multi-stripe logical write through the single emission loop."""

    PREFIX = 8 * KiB              # start mid-SU: first piece is a partial SU
    LENGTH = 2 * STRIPE           # 3 stripes touched, 9 data pieces

    @pytest.mark.parametrize("flags", [BioFlags.NONE, BioFlags.FUA],
                             ids=["plain", "fua"])
    @pytest.mark.parametrize("tracing, arrange", [
        (False, _healthy), (False, _device_failed),
        (False, _relocation_armed), (False, _zone_read_only),
        (True, _healthy),
    ], ids=["healthy", "device-failed", "relocation-armed",
            "zone-read-only", "tracing"])
    def test_multi_stripe_write_piece_outcomes(self, sim, tracing, arrange,
                                               flags):
        volume, devices = _traced_volume(sim, tracing)
        prefix = pattern(self.PREFIX, seed=20)
        volume.execute(Bio.write(0, prefix))
        expected = arrange(volume, devices)
        log = _record_commands(devices)

        data = pattern(self.LENGTH, seed=21)
        bio = Bio.write(self.PREFIX, data, flags)
        done = volume.submit(bio)
        sim.run()
        assert done.triggered and done.ok and done.value is bio
        assert bio.complete_time is not None

        writes = {(dev, offset, length): cmd_flags
                  for dev, op, offset, length, cmd_flags in log
                  if op is Op.WRITE}
        lba, end, count = self.PREFIX, self.PREFIX + self.LENGTH, 0
        while lba < end:
            take = min(end - lba, SU - lba % SU)
            device, pba = volume.mapper.lba_to_pba(lba)
            unit = volume.relocations.lookup(lba - lba % SU)
            if (device, pba, take) in writes:
                outcome = "in place"
                assert writes[(device, pba, take)] == int(flags)
            elif unit is not None and any(
                    lo <= lba % SU and lba % SU + take <= hi
                    for lo, hi in unit.extents):
                outcome = "relocated"
                assert unit.device == device
            else:
                outcome = "omitted"
                assert not any(cmd[0] == device for cmd in log)
            assert outcome == expected(device), (lba, device)
            lba += take
            count += 1
        assert count == 9

        got = volume.execute(Bio.read(0, end)).result
        assert got == prefix + data

    def test_tracing_issues_identical_device_commands(self):
        logs = []
        for tracing in (False, True):
            sim = Simulator()
            volume, devices = _traced_volume(sim, tracing)
            log = _record_commands(devices)
            blob = pattern(self.PREFIX + self.LENGTH + 8 * KiB, seed=22)
            cuts = [0, self.PREFIX, self.PREFIX + self.LENGTH, len(blob)]
            events = [volume.submit(Bio.write(lo, blob[lo:hi], flags))
                      for lo, hi, flags in zip(
                          cuts, cuts[1:],
                          (BioFlags.NONE, BioFlags.FUA, BioFlags.NONE))]
            sim.run()
            assert all(e.ok for e in events)
            logs.append(log)
        assert logs[0] and logs[0] == logs[1]


class TestZoneAppendEmulation:
    def test_append_returns_lba(self, volume):
        bio = volume.execute(Bio.zone_append(0, b"\x01" * 4096))
        assert bio.result == 0
        bio = volume.execute(Bio.zone_append(0, b"\x02" * 4096))
        assert bio.result == 4096

    def test_append_requires_zone_start(self, volume):
        with pytest.raises(InvalidAddressError):
            volume.execute(Bio.zone_append(4096, b"\x01" * 4096))

    def test_refused_append_goes_back_as_it_came(self, volume):
        """A refused append must not carry a rewritten ``offset`` (or a
        ``result``) back to its caller: resubmitted, the same bio then
        fails the zone-start check instead of reporting the real error."""
        room = 4096
        volume.execute(Bio.write(0, pattern(volume.zone_capacity - room,
                                            seed=30)))
        too_big = Bio.zone_append(0, b"\x01" * (2 * room))
        for _ in range(2):
            with pytest.raises(InvalidAddressError, match="capacity"):
                volume.execute(too_big)
            assert (too_big.offset, too_big.result) == (0, None)
        fits = volume.execute(Bio.zone_append(0, b"\x02" * room))
        assert fits.result == fits.offset == volume.zone_capacity - room
        full = Bio.zone_append(0, b"\x03" * room)
        for _ in range(2):
            with pytest.raises(ZoneStateError, match="not writable"):
                volume.execute(full)
            assert (full.offset, full.result) == (0, None)


class TestFlushAndFua:
    def test_flush_broadcasts(self, volume_and_devices):
        volume, devices = volume_and_devices
        volume.execute(Bio.write(0, pattern(STRIPE, seed=10)))
        volume.execute(Bio.flush())
        assert all(dev.stats.flushes >= 1 for dev in devices)

    def test_fua_write_persists_prefix(self, volume_and_devices):
        volume, devices = volume_and_devices
        volume.execute(Bio.write(0, pattern(STRIPE, seed=11)))
        volume.execute(Bio.write(STRIPE, b"\x01" * 4096,
                                 BioFlags.FUA | BioFlags.PREFLUSH))
        # Every device holding data below the FUA write is now durable.
        for device_index in range(5):
            zone = devices[device_index].zones[0]
            assert zone.durable_pointer == zone.write_pointer

    def test_fua_updates_persistence_bitmap(self, volume):
        volume.execute(Bio.write(0, pattern(STRIPE, seed=12)))
        volume.execute(Bio.write(STRIPE, b"\x01" * 4096, BioFlags.FUA))
        desc = volume.zone_descs[0]
        assert desc.persistence.frontier >= 4

    def test_plain_write_does_not_mark_persisted(self, volume):
        volume.execute(Bio.write(0, pattern(STRIPE, seed=13)))
        assert volume.zone_descs[0].persistence.frontier == 0


class TestZoneManagement:
    def test_reset_cycle(self, volume):
        data = pattern(STRIPE, seed=14)
        volume.execute(Bio.write(0, data))
        generation = volume.generation[0]
        volume.execute(Bio.zone_reset(0))
        assert volume.zone_info(0).state is ZoneState.EMPTY
        assert volume.generation[0] == generation + 1
        data2 = pattern(STRIPE, seed=15)
        volume.execute(Bio.write(0, data2))
        assert volume.execute(Bio.read(0, STRIPE)).result == data2

    def test_reset_requires_zone_start(self, volume):
        with pytest.raises(InvalidAddressError):
            volume.execute(Bio.zone_reset(4096))

    def test_failed_reset_releases_what_queued_behind_it(
            self, volume_and_devices):
        """A reset that fails (here: a device dead under the volume)
        must still hand the bios parked behind it back to dispatch."""
        volume, devices = volume_and_devices
        devices[0].fail_device()
        reset = volume.submit(Bio.zone_reset(0))
        write = volume.submit(Bio.write(0, pattern(SU, seed=31)))
        volume.sim.run()
        assert reset.triggered and not reset.ok
        assert write.triggered
        assert not volume._reset_pending
        assert not volume.zone_descs[0].reset_in_progress

    def test_reset_resets_physical_zones(self, volume_and_devices):
        volume, devices = volume_and_devices
        volume.execute(Bio.write(0, pattern(STRIPE, seed=16)))
        volume.execute(Bio.zone_reset(0))
        for dev in devices:
            assert dev.zone_info(0).write_pointer == 0

    def test_finish_seals_zone(self, volume):
        data = pattern(STRIPE + 8 * KiB, seed=17)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.zone_finish(0))
        assert volume.zone_info(0).state is ZoneState.FULL
        assert volume.execute(Bio.read(0, len(data))).result == data
        with pytest.raises(ZoneStateError):
            volume.execute(Bio.write(len(data), b"\x01" * 4096))

    def test_finished_partial_stripe_readable_degraded(self, volume):
        """Finish writes the tail stripe's parity, so a later device
        failure can still reconstruct the partial stripe."""
        data = pattern(SU + 8 * KiB, seed=18)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.zone_finish(0))
        device, _pba = volume.mapper.lba_to_pba(0)
        volume.fail_device(device)
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_explicit_open_close(self, volume):
        volume.execute(Bio.zone_open(0))
        assert volume.zone_info(0).state is ZoneState.EXPLICIT_OPEN
        volume.execute(Bio.write(0, b"\x01" * 4096))
        volume.execute(Bio.zone_close(0))
        assert volume.zone_info(0).state is ZoneState.CLOSED

    def test_open_limit_auto_close(self, sim):
        devices = make_zns_devices(sim, num_zones=12)
        for dev in devices:
            dev.budget.max_open = 5  # logical budget: 5 - 2 = 3
        config = RaiznConfig(num_data=4, stripe_unit_bytes=SU)
        volume = RaiznVolume.create(sim, devices, config)
        assert volume.zoneops.budget.max_open == 3
        for zone in range(5):
            volume.execute(Bio.write(zone * volume.zone_capacity,
                                     b"\x01" * 4096))
        open_zones = [d for d in volume.zone_descs if d.state.is_open]
        assert len(open_zones) == 3
        assert volume.zone_descs[0].state is ZoneState.CLOSED


class TestFailureHandling:
    def test_double_failure_rejected(self, volume):
        volume.fail_device(0)
        with pytest.raises(DataLossError):
            volume.fail_device(1)

    def test_read_only_volume_rejects_writes(self, volume):
        volume.execute(Bio.write(0, b"\x01" * 4096))
        volume.read_only = True
        with pytest.raises(VolumeStateError):
            volume.execute(Bio.write(4096, b"\x01" * 4096))
        with pytest.raises(VolumeStateError):
            volume.execute(Bio.zone_reset(0))
        # A finish would seal the tail stripe's parity onto its device.
        with pytest.raises(VolumeStateError):
            volume.execute(Bio.zone_finish(0))
        assert volume.zone_info(0).state is not ZoneState.FULL
        assert volume.zone_descs[0].tail.fill_end == 4096

    def test_generation_overflow_forces_read_only(self, volume):
        volume.execute(Bio.write(0, b"\x01" * 4096))
        volume.generation[0] = 2 ** 64 - 2
        volume.execute(Bio.zone_reset(0))
        assert volume.read_only


class TestDataIntegrityProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=96),
                    min_size=1, max_size=24),
           st.integers(0, 2 ** 30))
    def test_arbitrary_sequential_write_pattern(self, sizes, seed):
        """Any sequence of sector-aligned writes reads back exactly."""
        sim = Simulator()
        volume, _devices = make_volume(sim)
        blob = pattern(sum(sizes) * 4 * KiB, seed=seed)
        offset = 0
        for size in sizes:
            # ZNS writes cannot cross a zone boundary; clamp like a
            # zone-aware application would.
            nbytes = min(size * 4 * KiB, volume.zone_capacity - offset)
            if nbytes == 0:
                break
            volume.execute(Bio.write(offset, blob[offset:offset + nbytes]))
            offset += nbytes
        assert volume.execute(Bio.read(0, offset)).result == blob[:offset]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 30))
    def test_queued_writes_complete_in_order(self, seed):
        sim = Simulator()
        volume, _devices = make_volume(sim)
        blob = pattern(32 * 4 * KiB, seed=seed)
        events = []
        for i in range(32):
            events.append(volume.submit(
                Bio.write(i * 4 * KiB, blob[i * 4 * KiB:(i + 1) * 4 * KiB])))
        sim.run()
        assert all(e.ok for e in events)
        assert volume.execute(Bio.read(0, len(blob))).result == blob
