"""Fault-tolerance tests: degraded operation and device rebuild (§4.2)."""

import importlib
import random

import pytest

from repro.block import Bio, BioFlags, Op
from repro.errors import (DataLossError, DeviceError, MediaError,
                          RaiznError, TransientCommandError, ZoneStateError)
from repro.faults import (fail_and_rebuild, fresh_replacement, power_cycle,
                          wear_out_zone)
from repro.raizn import RaiznConfig, RaiznVolume, mount, rebuild
from repro.raizn.maintenance import rewrite_physical_zone, run_scrub
from repro.raizn.readpath import ReadPath
from repro.raizn.rebuild import rebuild_process
from repro.trace import MetricsRegistry
from repro.sim import Simulator
from repro.units import KiB, MiB
from repro.zns import ZNSDevice, ZoneState

from conftest import (TEST_STRIPE_UNIT, TEST_ZONE_CAPACITY, make_volume,
                      make_zns_devices, pattern)

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU
#: Device zones whose rebuild reads runs of two units: 32 units over the
#: replacement's 16-command window.
RUNS_OF_TWO = 2 * TEST_ZONE_CAPACITY
#: The module (``repro.raizn.rebuild`` is also the function's name).
rebuild_module = importlib.import_module("repro.raizn.rebuild")


class TestDegradedReads:
    @pytest.mark.parametrize("failed_index", [0, 1, 2, 3, 4])
    def test_degraded_read_any_device(self, sim, failed_index):
        volume, _devices = make_volume(sim)
        data = pattern(4 * STRIPE, seed=failed_index)
        volume.execute(Bio.write(0, data))
        volume.fail_device(failed_index)
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_degraded_read_partial_tail_stripe(self, sim):
        volume, _devices = make_volume(sim)
        data = pattern(STRIPE + 20 * KiB, seed=7)
        volume.execute(Bio.write(0, data))
        volume.fail_device(2)
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_degraded_small_reads(self, sim):
        volume, _devices = make_volume(sim)
        data = pattern(2 * STRIPE, seed=8)
        volume.execute(Bio.write(0, data))
        volume.fail_device(1)
        for offset in range(0, 2 * STRIPE, 16 * KiB):
            got = volume.execute(Bio.read(offset, 16 * KiB)).result
            assert got == data[offset:offset + 16 * KiB]


class TestDegradedWrites:
    def test_writes_continue_degraded(self, sim):
        volume, _devices = make_volume(sim)
        volume.fail_device(3)
        data = pattern(3 * STRIPE, seed=9)
        volume.execute(Bio.write(0, data))
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_degraded_write_then_another_failure_loses_data(self, sim):
        volume, _devices = make_volume(sim)
        volume.fail_device(0)
        volume.execute(Bio.write(0, pattern(STRIPE, seed=10)))
        with pytest.raises(DataLossError):
            volume.fail_device(1)

    def test_degraded_zone_reset(self, sim):
        volume, _devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(STRIPE, seed=11)))
        volume.fail_device(2)
        volume.execute(Bio.zone_reset(0))
        data = pattern(STRIPE, seed=12)
        volume.execute(Bio.write(0, data))
        assert volume.execute(Bio.read(0, STRIPE)).result == data


class TestRebuild:
    def test_rebuild_restores_redundancy(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(5 * STRIPE + 12 * KiB, seed=13)
        volume.execute(Bio.write(0, data))
        report = fail_and_rebuild(sim, volume, 1)
        assert report.bytes_written > 0
        assert volume.execute(Bio.read(0, len(data))).result == data
        # Redundancy is restored: a different device may now fail.
        volume.fail_device(4)
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_rebuild_skips_empty_zones(self, sim):
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(STRIPE, seed=14)))
        report = fail_and_rebuild(sim, volume, 0)
        # Only zone 0 contains data; rebuild writes ~1 SU for it.
        assert report.bytes_written <= 2 * SU

    def test_rebuild_only_to_write_pointer(self, sim):
        """§4.2: RAIZN rebuilds only the LBA ranges holding user data."""
        volume, devices = make_volume(sim)
        half = volume.zone_capacity // 2
        volume.execute(Bio.write(0, pattern(half, seed=15)))
        report = fail_and_rebuild(sim, volume, 2)
        assert report.bytes_written <= half // 4 + SU

    def test_rebuild_full_volume_writes_full_share(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(volume.zone_capacity, seed=16)
        volume.execute(Bio.write(0, data))
        report = fail_and_rebuild(sim, volume, 2)
        # One physical zone of data plus parity shares.
        assert report.bytes_written == volume.zone_capacity // 4

    def test_rebuild_ttr_scales_with_data(self, sim):
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(volume.zone_capacity, seed=17)))
        small = fail_and_rebuild(sim, volume, 0)
        sim2 = Simulator()
        volume2, _ = make_volume(sim2)
        volume2.execute(Bio.write(0, pattern(volume2.zone_capacity, seed=18)))
        volume2.execute(Bio.write(volume2.zone_capacity,
                                  pattern(volume2.zone_capacity, seed=19)))
        volume2.execute(Bio.write(2 * volume2.zone_capacity,
                                  pattern(volume2.zone_capacity, seed=20)))
        large = fail_and_rebuild(sim2, volume2, 0)
        assert large.bytes_written > small.bytes_written
        assert large.duration > small.duration

    def test_rebuild_nonfailed_device_rejected(self, sim):
        volume, devices = make_volume(sim)
        replacement = fresh_replacement(sim, devices[0], "r0")
        with pytest.raises(RaiznError):
            rebuild(sim, volume, 0, replacement)

    def test_rebuild_geometry_mismatch_rejected(self, sim):
        from repro.zns import ZNSDevice
        volume, devices = make_volume(sim)
        volume.fail_device(0)
        wrong = ZNSDevice(sim, name="wrong", num_zones=4,
                          zone_capacity=devices[1].zone_capacity)
        with pytest.raises(RaiznError):
            rebuild(sim, volume, 0, wrong)

    def test_rebuild_parity_device_zone(self, sim):
        """The rebuilt device holds parity for some stripes; those SUs
        must be recomputed, not copied."""
        volume, devices = make_volume(sim)
        data = pattern(volume.zone_capacity, seed=21)
        volume.execute(Bio.write(0, data))
        parity_device = volume.mapper.stripe_layout(0, 0).parity_device
        report = fail_and_rebuild(sim, volume, parity_device)
        assert volume.execute(Bio.read(0, len(data))).result == data
        volume.fail_device((parity_device + 1) % 5)
        assert volume.execute(Bio.read(0, len(data))).result == data

    @pytest.mark.xfail(strict=True, raises=MediaError, reason=(
        "the run's ReadPath.reconstruct meets the latent sector on a "
        "survivor read, _survivor_read fails the whole run, and _ZoneJob "
        "then ends the whole rebuild (ROADMAP items 1 and 21 (c), quick "
        "soak 30)"))
    def test_rebuild_outlives_a_latent_sector_on_a_survivor(self, sim):
        """A double fault in one stripe: device 1 lost, and 4 KiB of a
        survivor's data unit in stripe 2 (where device 1 holds a data
        unit) unreadable.  Only that stripe's lost unit cannot be rebuilt
        over the bad sector; the rebuild should go on past it."""
        volume, devices = make_volume(sim)
        data = pattern(4 * STRIPE, seed=21)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        volume.fail_device(1)
        layout = volume.mapper.stripe_layout(0, 2)
        assert 1 in layout.data_devices
        devices[layout.data_devices[0]].mark_bad(2 * SU + 8 * KiB, 4 * KiB)
        rebuild(sim, volume, 1, fresh_replacement(sim, devices[0], "new"))
        for stripe in (0, 1, 3):
            lo = stripe * STRIPE
            assert volume.execute(Bio.read(lo, STRIPE)).result == \
                data[lo:lo + STRIPE]

    def test_rebuild_after_degraded_mount(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(3 * STRIPE + 8 * KiB, seed=22)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        power_cycle(devices, random.Random(3))
        presented = list(devices)
        presented[2] = None
        degraded = mount(sim, presented)
        assert degraded.execute(Bio.read(0, len(data))).result == data
        replacement = fresh_replacement(sim, devices[0], "r2")
        rebuild(sim, degraded, 2, replacement)
        assert degraded.execute(Bio.read(0, len(data))).result == data

    def test_rebuild_heals_relocations(self, sim):
        """Relocated stripe units are written at their correct PBAs on
        the fresh device, clearing the relocation map (§5.2 + §4.2)."""
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(6 * STRIPE, seed=23)))
        power_cycle(devices, random.Random(41))
        remounted = mount(sim, devices)
        wp = remounted.zone_info(0).write_pointer
        more = pattern(2 * STRIPE, seed=24)
        remounted.execute(Bio.write(wp, more))
        if not remounted.relocations.units():
            pytest.skip("this seed produced no relocations")
        device = remounted.relocations.units()[0].device
        fail_and_rebuild(sim, remounted, device)
        assert not remounted.relocations.units_on_device(device)
        got = remounted.execute(Bio.read(wp, len(more))).result
        assert got == more

    @pytest.mark.parametrize("where", [
        "inflight_ahead", "inflight_behind", "not_started", "rebuilt"])
    def test_writes_during_rebuild_catch_up(self, sim, where):
        """Foreground writes landing while the pipeline runs end up
        byte-exact on the array, wherever they land relative to it: in
        the zone whose window is in flight (while its reads are still
        being issued, and after the last one while its writes drain), in
        a zone the rebuild has not reached, and in one it has sealed."""
        volume, devices = make_volume(sim)
        zcap = volume.zone_capacity
        # Rebuild order is active zones first: 0, 2, then the full zones
        # 1 and 3.  Zone 3's writes come after zone 0 is sealed.
        expected = {0: bytearray(pattern(6 * STRIPE + 20 * KiB, seed=25)),
                    1: bytearray(pattern(zcap, seed=26)),
                    2: bytearray(pattern(3 * STRIPE, seed=27)),
                    3: bytearray(pattern(zcap, seed=29))}
        for zone, data in expected.items():
            volume.execute(Bio.write(zone * zcap, bytes(data)))
        # Lose the device holding zone 0's 20 KiB tail unit, and write
        # unaligned to the stripe unit on both ends: the catch-up resumes
        # mid-unit and ends mid-unit.
        lost = volume.mapper.stripe_layout(0, 6).data_devices[0]
        volume.fail_device(lost)
        replacement = fresh_replacement(sim, devices[(lost + 1) % 5], "new")
        more = pattern(2 * STRIPE + 24 * KiB, seed=28)
        target = {"inflight_ahead": 0, "inflight_behind": 0,
                  "not_started": 2, "rebuilt": 0}[where]
        zone0_extent = 6 * SU + 20 * KiB   # the lost device's share
        fired = []

        def trigger(device, bio):
            if fired or bio.op is not Op.WRITE:
                return
            state = volume.rebuild_state
            zone = device.zone_index(bio.offset)
            if where == "rebuilt":
                due = 0 in state.rebuilt_zones
            elif where == "inflight_behind":
                # The chunk that completes the snapshot taken at start.
                due = zone == 0 and bio.end_offset >= zone0_extent
            else:
                due = zone == 0
            if due:
                fired.append(sim.now)
                lba = target * zcap + len(expected[target])
                expected[target] += more
                volume.submit(Bio.write(lba, more))

        hook = replacement.add_hook("pre_apply", trigger)
        proc = sim.process(rebuild_process(sim, volume, lost, replacement))
        sim.run()
        replacement.remove_hook(hook)
        assert proc.ok and fired
        assert volume.rebuild_state is None

        def check():
            for zone, data in expected.items():
                got = volume.execute(Bio.read(zone * zcap, len(data))).result
                assert got == bytes(data), zone
        check()
        volume.fail_device((lost + 2) % 5)
        check()


def multi_zone_volume(sim, tail=5 * STRIPE + 20 * KiB, full_zones=2,
                      zone_capacity=TEST_ZONE_CAPACITY, **config_kwargs):
    """``full_zones`` full zones plus a zone with a partial tail stripe,
    failed at nothing yet; returns (volume, devices, payload).  A rebuild
    of 1 MiB zones reads one unit per command; ``zone_capacity`` of 2 MiB
    gives runs of two (``ZoneStream.run_units``)."""
    devices = make_zns_devices(sim, zone_capacity=zone_capacity)
    config = RaiznConfig(num_data=4, stripe_unit_bytes=SU, **config_kwargs)
    volume = RaiznVolume.create(sim, devices, config)
    data = pattern(full_zones * volume.zone_capacity + tail, seed=40)
    for lba in range(0, len(data), volume.zone_capacity):
        volume.execute(Bio.write(lba, data[lba:lba + volume.zone_capacity]))
    return volume, devices, data


class CommandLog:
    """The replacement's command stream, recorded at submission."""

    def __init__(self, sim, device, volume):
        self.sim = sim
        self.volume = volume
        self.commands = []   # (sim time, op, offset, length)
        self.open_zones = []
        #: Data zones between their first rebuild write and their seal.
        self.in_pipeline = []
        self._written = set()
        self._hook = device.add_hook("pre_apply", self)

    def detach(self):
        self._hook.device.remove_hook(self._hook)

    def __call__(self, device, bio):
        self.commands.append((self.sim.now, bio.op, bio.offset, bio.length))
        self.open_zones.append(device.budget.open_count)
        zone = device.zone_index(bio.offset)
        if bio.op is Op.WRITE and zone < self.volume.num_data_zones:
            self._written.add(zone)
        self.in_pipeline.append(
            len(self._written - self.volume.rebuild_state.rebuilt_zones))


class TestRebuildPipeline:
    """What the read-ahead window must, and must not, do to the
    replacement's command stream."""

    def run(self, sim, failed_index=0, replacement=None, arrange=None,
            **config_kwargs):
        """Rebuild ``failed_index`` of :func:`multi_zone_volume`, after
        ``arrange(volume, devices)`` (which returns bytes it appended, or
        None).  ``window`` is the most reads (commands per survivor) any
        zone's stream had in flight, ``units`` the most stripe units,
        ``logical`` the LBAs of the logical reads it issued."""
        volume, devices, data = multi_zone_volume(sim, **config_kwargs)
        if arrange is not None:
            data += arrange(volume, devices) or b""
        volume.fail_device(failed_index)
        if replacement is None:
            replacement = fresh_replacement(
                sim, devices[(failed_index + 1) % 5], "new")
        log = CommandLog(sim, replacement, volume)
        streams, logical = [], []
        stream_class = rebuild_module.ZoneStream

        class WatchedStream(stream_class):
            def __init__(self, *args):
                super().__init__(*args)
                self.peak_units = 0
                streams.append(self)

            def _issue(self):
                event = super()._issue()
                # Issued and not yet handed out: the window in units.
                self.peak_units = max(self.peak_units,
                                      -(-(self.issued - self.position) // SU))
                return event

        submit = volume.submit

        def watched_submit(bio):
            if bio.op is Op.READ:
                logical.append(bio.offset)
            return submit(bio)

        rebuild_module.ZoneStream = WatchedStream
        volume.submit = watched_submit
        try:
            report = rebuild(sim, volume, failed_index, replacement)
        finally:
            rebuild_module.ZoneStream = stream_class
            del volume.submit
        log.detach()
        window = max(stream.reads.peak for stream in streams)
        units = max(stream.peak_units for stream in streams)
        return (volume, devices, data, replacement, log,
                {"window": window, "units": units, "logical": logical},
                report)

    def test_zone_writes_contiguous_and_ascending(self, sim):
        _v, _d, _data, replacement, log, _reads, report = self.run(sim)
        cursor = {}
        for _t, op, offset, length in log.commands:
            if op is not Op.WRITE:
                continue
            zone = replacement.zone_index(offset)
            if zone >= _v.num_data_zones:   # the metadata log's appends
                continue
            start = zone * replacement.zone_size
            assert offset == cursor.get(zone, start), (zone, offset)
            cursor[zone] = offset + length
        assert sum(end - zone * replacement.zone_size
                   for zone, end in cursor.items()) == report.bytes_written

    def test_writes_are_not_serialised(self, sim):
        """The point of the window.  A QD-1 loop manages under 8 % of the
        replacement's write bandwidth; even this 2.3 MiB rebuild, mostly
        ramp-up and the closing metadata flush, gets several times that
        (benchmarks/test_fig12 holds a full device to 60 %)."""
        _v, _d, _data, replacement, _log, reads, report = self.run(sim)
        rate = report.bytes_written / report.duration
        assert rate >= 0.4 * replacement.model.write_bandwidth
        assert reads["units"] > replacement.model.channels

    def test_reads_in_flight_bounded_by_derived_depth(self, sim):
        _v, _d, _data, replacement, _log, reads, _report = self.run(sim)
        assert reads["window"] <= replacement.model.saturating_depth
        assert replacement.model.saturating_depth == \
            2 * replacement.model.channels

    def test_units_in_flight_bounded_by_run_length(self, sim):
        _v, _d, _data, replacement, _log, reads, _report = self.run(
            sim, zone_capacity=RUNS_OF_TWO)
        assert reads["units"] <= 2 * replacement.model.saturating_depth
        assert reads["units"] > reads["window"]   # runs were read

    #: Item 27's table (ROADMAP): the rebuild's simulated duration of
    #: device 2 of :func:`multi_zone_volume` with this many full 1 MiB
    #: zones, read one unit per command.  Runs of two units here made the
    #: first write wait for 128 KiB reads: 1,701.6 / 2,687.3 / 3,903.3 /
    #: 5,627.8 / 9,521.3 us.
    ONE_UNIT_US = {0: 1059.4, 1: 2031.8, 2: 3247.8, 4: 5031.1, 8: 9010.2}

    @pytest.mark.parametrize("full_zones", sorted(ONE_UNIT_US))
    def test_short_rebuild_no_slower_than_one_unit_commands(self, sim,
                                                            full_zones):
        _v, _d, _data, _r, _log, _reads, report = self.run(
            sim, 2, full_zones=full_zones)
        assert report.duration * 1e6 <= self.ONE_UNIT_US[full_zones] + 0.05

    def test_open_zones_within_replacement_limit(self, sim):
        """With a replacement that may hold only two zones open the
        pipeline never has a third between first write and seal."""
        template = make_zns_devices(sim)[0]
        tight = ZNSDevice(sim, name="tight", num_zones=template.num_zones,
                          zone_capacity=template.zone_capacity,
                          max_open_zones=2, seed=5)
        _v, _d, _data, replacement, log, _reads, _report = self.run(
            sim, replacement=tight)
        assert max(log.open_zones) <= 2
        assert max(log.in_pipeline) == 2   # it does overlap, and no further

    def test_zone_written_to_capacity_is_not_finished(self, sim):
        """The last write made the zone FULL on the device; a finish
        behind it would hold a channel for nothing."""
        volume, _d, _data, replacement, log, _reads, _report = self.run(sim)
        assert not [c for c in log.commands if c[1] is Op.ZONE_FINISH]
        for zone in (0, 1):
            assert replacement.zone_info(zone).state is ZoneState.FULL
            assert volume.phys[0][zone].state is ZoneState.FULL

    def test_zone_finished_short_of_capacity_still_is(self, sim):
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(STRIPE, seed=41)))
        volume.execute(Bio.zone_finish(0))
        volume.fail_device(0)
        replacement = fresh_replacement(sim, devices[1], "new")
        log = CommandLog(sim, replacement, volume)
        rebuild(sim, volume, 0, replacement)
        assert [c[2] for c in log.commands if c[1] is Op.ZONE_FINISH] == [0]
        assert replacement.zone_info(0).state is ZoneState.FULL

    def test_plain_stripes_issue_no_logical_read(self, sim):
        """The two full zones regenerate every unit from its survivors'
        reads; only the tail stripe goes through the logical read path."""
        volume, _d, _data, _r, _log, reads, _report = self.run(sim, 3)
        # Device 3 holds the tail stripe's 20 KiB unit.
        assert volume.mapper.stripe_layout(2, 5).data_devices[0] == 3
        tail_stripe = 2 * volume.zone_capacity + 5 * STRIPE
        assert reads["logical"]
        assert all(lba >= tail_stripe for lba in reads["logical"])

    def test_zone_rewrite_reads_a_present_device_through_the_read_path(
            self, sim):
        """Only a lost unit is the XOR of its survivors: a §5.2 rewrite of
        a zone on a present device takes each of its units through a
        logical read, even where the zone has no relocation unit."""
        volume, _devices = make_volume(sim)
        data = pattern(4 * STRIPE, seed=52)
        volume.execute(Bio.write(0, data))
        logical = []
        submit = volume.submit

        def watched_submit(bio):
            logical.append(bio.offset)
            return submit(bio)

        volume.submit = watched_submit
        sim.run_process(rewrite_physical_zone(volume, 1, 0))
        del volume.submit
        assert len(logical) == 4    # device 1's unit in each stripe
        assert volume.execute(Bio.read(0, len(data))).result == data

    @pytest.mark.parametrize("case", [
        0, 1, 2, 3, 4, "relocation_units", "relocated_parity", "failslow",
        "transient_survivor_read"])
    def test_replacement_matches_lost_device_byte_for_byte(self, sim, case):
        """Partial tail stripe, mid-unit tail and the parity rotation:
        whichever device is lost, the replacement ends up with the same
        write pointers and the same bytes, parity included.  So it does
        in a zone with relocation units and over a stripe with relocated
        parity (runs through ``unit_sources``), when a survivor read fails
        transiently (the run read is retried), and in a fail-slow array,
        the one case whose complete stripes go to the logical read path."""
        failed_index = case if isinstance(case, int) else 0
        arrange, config = ARRANGEMENTS.get(case, (None, {}))
        volume, devices, data, replacement, _log, reads, _report = \
            self.run(sim, failed_index, arrange=arrange, **config)
        assert_rebuilt_exactly(volume, devices[failed_index], replacement,
                               data)
        tail_stripe = 2 * volume.zone_capacity + 5 * STRIPE
        through_read_path = [lba for lba in reads["logical"]
                             if lba < tail_stripe]
        assert bool(through_read_path) == (case == "failslow"), case
        volume.fail_device((failed_index + 2) % 5)
        assert volume.execute(Bio.read(0, len(data))).result == data


def _relocation_units(volume, devices):
    """Device 3's zone 2 wears out, then two more stripes go to zone 2:
    device 3's units in them are relocation units."""
    wear_out_zone(devices[3], 2)
    more = pattern(2 * STRIPE, seed=42)
    volume.execute(Bio.write(volume.zone_info(2).write_pointer, more))
    assert volume.zone_descs[2].has_relocations
    return more


def _relocated_parity(volume, devices):
    """The scrub heals zone 0 stripe 0's bad parity into memory."""
    volume.execute(Bio.flush())
    devices[volume.mapper.stripe_layout(0, 0).parity_device].mark_bad(0, SU)
    run_scrub(volume.sim, volume)
    assert (0, 0) in volume.relocated_parity


def _transient_survivor_read(volume, devices):
    """The rebuild's first read of device 2 fails transiently."""
    failed = []

    def hook(device, bio):
        if bio.op is Op.READ and volume.rebuild_state is not None \
                and not failed:
            failed.append(bio.offset)
            raise TransientCommandError(f"{device.name}: injected")
    devices[2].add_hook("pre_apply", hook)


#: ``case -> (arrange, config)`` of the byte-for-byte cases beyond the
#: plain rebuild.
ARRANGEMENTS = {
    "relocation_units": (_relocation_units, {}),
    "relocated_parity": (_relocated_parity, {}),
    "failslow": (None, {"failslow_protection": True}),
    "transient_survivor_read": (_transient_survivor_read, {}),
}


def is_run_read(bio):
    """Is ``bio`` a survivor read of a :class:`ZoneStream` run, a
    standalone reconstruction's (one that counts logical bytes)?"""
    return getattr(bio.end_io, "__func__", None) is \
        ReadPath._survivor_read and bio.wctx[0].logical > 0


class TestRebuildRuns:
    """Where a run of plain stripes' lost units starts and where it ends.
    Every case checks the replacement against the lost device's media and
    the array against the written payload."""

    def rebuild(self, sim, volume, devices, lost, data):
        """Fail ``lost``, rebuild it and check the result; returns per
        survivor the run reads ``(offset, length)``, the logical reads
        ``(lba, length)`` the stream issued, and the rebuild's
        ``(reads, bytes_read)`` in ``volume.stats``."""
        volume.fail_device(lost)
        replacement = fresh_replacement(sim, devices[(lost + 1) % 5], "new")
        runs, logical = {}, []

        def record(device, bio):
            if is_run_read(bio):
                runs.setdefault(devices.index(device), []).append(
                    (bio.offset, bio.length))
        hooks = [device.add_hook("pre_apply", record)
                 for device in devices if device is not devices[lost]]
        submit = volume.submit

        def watched_submit(bio):
            logical.append((bio.offset, bio.length))
            return submit(bio)
        volume.submit = watched_submit
        stats = volume.stats.reads, volume.stats.bytes_read
        try:
            rebuild(sim, volume, lost, replacement)
        finally:
            del volume.submit
            for hook in hooks:
                hook.device.remove_hook(hook)
        stats = (volume.stats.reads - stats[0],
                 volume.stats.bytes_read - stats[1])
        assert_rebuilt_exactly(volume, devices[lost], replacement, data)
        volume.fail_device((lost + 2) % 5)
        assert volume.execute(Bio.read(0, len(data))).result == data
        return runs, logical, stats

    @pytest.mark.parametrize("zone_mib, units", [(1, 1), (2, 2), (4, 4),
                                                 (8, 4)])
    def test_run_length_follows_the_zone(self, sim, zone_mib, units):
        """A run is the zone's units over the replacement's window (16
        commands), one to ``RUN_UNITS`` of them: four stripes are read
        in commands of ``units`` stripe units."""
        volume, devices = make_volume(sim, zone_capacity=zone_mib * MiB)
        data = pattern(4 * STRIPE, seed=64)
        volume.execute(Bio.write(0, data))
        runs, logical, stats = self.rebuild(sim, volume, devices, 1, data)
        assert runs == {d: [(offset, units * SU)
                            for offset in range(0, 4 * SU, units * SU)]
                        for d in range(5) if d != 1}
        assert logical == []
        assert stats[0] == 4

    @pytest.mark.parametrize("parity_stripe", [0, 1])
    def test_run_across_parity_and_data(self, sim, parity_stripe):
        """The lost device holds parity in one stripe of the run and data
        in the other: one ``2 x SU`` command per survivor."""
        volume, devices = make_volume(sim, zone_capacity=RUNS_OF_TWO)
        data = pattern(2 * STRIPE, seed=60)
        volume.execute(Bio.write(0, data))
        lost = volume.mapper.stripe_layout(0, parity_stripe).parity_device
        assert lost in \
            volume.mapper.stripe_layout(0, 1 - parity_stripe).data_devices
        runs, logical, stats = self.rebuild(sim, volume, devices, lost, data)
        assert runs == {d: [(0, 2 * SU)] for d in range(5) if d != lost}
        assert logical == []
        # Each unit is the logical read it stands for: parity a stripe's.
        assert stats == (2, STRIPE + SU)

    def test_relocated_parity_rides_the_run(self, sim):
        """Stripe 1's parity lives in memory: stripes 0 and 1 are still
        one run, its survivor reads those ``unit_sources`` names (stripe
        1's parity device reads only its stripe-0 unit), and stripes 2 and
        3 are a run of one read per survivor; no logical read."""
        volume, devices = make_volume(sim, zone_capacity=RUNS_OF_TWO)
        data = pattern(4 * STRIPE, seed=61)
        volume.execute(Bio.write(0, data))
        volume.execute(Bio.flush())
        layout = volume.mapper.stripe_layout(0, 1)
        devices[layout.parity_device].mark_bad(SU, SU)
        run_scrub(sim, volume)
        assert (0, 1) in volume.relocated_parity
        lost = layout.data_devices[0]
        runs, logical, _stats = self.rebuild(sim, volume, devices, lost,
                                             data)
        parity = layout.parity_device
        assert runs == {d: [(0, SU if d == parity else 2 * SU),
                            (2 * SU, 2 * SU)]
                        for d in range(5) if d != lost}
        assert logical == []

    def test_relocation_units_run_through_unit_sources(self, sim):
        """Zone 2 holds relocation units: its complete stripes are read in
        runs as the two full zones are, each survivor's adjacent device
        pieces in one read.  Device 3, worn out 20 KiB into its stripe-5
        unit, reads up to there; its later units are relocation units in
        memory.  The lost device holds nothing of the tail stripe."""
        volume, devices, data = multi_zone_volume(
            sim, zone_capacity=RUNS_OF_TWO)
        data += _relocation_units(volume, devices)
        runs, logical, _stats = self.rebuild(sim, volume, devices, 0, data)
        zone_size = volume.phys_zone_size
        runs_of_two = [(offset, 2 * SU)
                       for offset in range(0, zone_size, 2 * SU)]
        in_full_zones = [(zone * zone_size + offset, length)
                         for zone in (0, 1) for offset, length in runs_of_two]
        zone2 = [(2 * zone_size + offset, length)
                 for offset, length in runs_of_two[:3] + [(6 * SU, SU)]]
        worn = zone2[:2] + [(2 * zone_size + 4 * SU, SU + 20 * KiB)]
        assert volume.phys[3][2].write_pointer == worn[-1][0] + worn[-1][1]
        assert {d: sorted(reads) for d, reads in runs.items()} == \
            {d: in_full_zones + (worn if d == 3 else zone2)
             for d in range(1, 5)}
        assert logical == []

    def test_odd_plain_stripes_then_a_tail(self, sim):
        """Three plain stripes are a run of two and a run of one; the
        lost device's 20 KiB in the tail stripe goes through the read
        path."""
        volume, devices = make_volume(sim, zone_capacity=RUNS_OF_TWO)
        data = pattern(3 * STRIPE + 20 * KiB, seed=62)
        volume.execute(Bio.write(0, data))
        lost = volume.mapper.stripe_layout(0, 3).data_devices[0]
        runs, logical, stats = self.rebuild(sim, volume, devices, lost, data)
        assert runs == {d: [(0, 2 * SU), (2 * SU, SU)]
                        for d in range(5) if d != lost}
        assert logical == [(3 * STRIPE, 20 * KiB)]
        parity = [volume.mapper.stripe_layout(0, stripe).parity_device
                  for stripe in range(3)].count(lost)
        assert stats == (4, 3 * SU + parity * (STRIPE - SU) + 20 * KiB)

    def test_survivor_error_retries_the_run_read(self, sim):
        """A survivor's run read fails transiently: that read alone is
        retried after the backoff, the run's two units, parity then data,
        never go through the logical read path, and the rebuild completes
        exactly."""
        volume, devices = make_volume(sim, zone_capacity=RUNS_OF_TWO)
        data = pattern(2 * STRIPE, seed=63)
        volume.execute(Bio.write(0, data))
        lost = volume.mapper.stripe_layout(0, 0).parity_device
        victim = (lost + 1) % 5
        failed = []

        def hook(device, bio):
            if is_run_read(bio) and not failed:
                failed.append((bio.offset, bio.length))
                raise TransientCommandError(f"{device.name}: injected")
        devices[victim].add_hook("pre_apply", hook)
        retries = volume.health.transient_retries
        runs, logical, stats = self.rebuild(sim, volume, devices, lost,
                                            data)
        assert failed == [(0, 2 * SU)]
        assert volume.health.transient_retries == retries + 1
        # The rejected first attempt never reaches the recording hook.
        assert runs == {d: [(0, 2 * SU)] for d in range(5) if d != lost}
        assert logical == []
        assert stats == (2, STRIPE + SU)


def assert_rebuilt_exactly(volume, lost, replacement, data):
    """The replacement holds what ``lost`` held in every data zone, and
    the array reads back ``data``."""
    for zone in range(volume.num_data_zones):
        old, new = lost.zone_info(zone), replacement.zone_info(zone)
        assert new.write_pointer == old.write_pointer, zone
        span = slice(old.start, old.write_pointer)
        assert replacement._media[span] == lost._media[span], zone
    assert volume.execute(Bio.read(0, len(data))).result == data


def watch_commands(device):
    """Every bio submitted to ``device`` from now on (``pre_apply`` hook)."""
    seen = []
    device.add_hook("pre_apply", lambda dev, bio: seen.append(bio))
    return seen


def in_flight(seen):
    """The watched commands the device accepted (``counted``; a rejected
    one never is) whose outcome it has not delivered yet."""
    return [bio for bio in seen
            if bio.counted and bio.complete_time is None]


class TestFailedRebuild:
    """A rebuild that raises must leave the array rebuildable."""

    def assert_plain_degraded(self, volume, index):
        assert volume.failed[index]
        assert volume.rebuild_state is None
        assert volume.devices[index] is None
        assert volume.mdzones[index] is None

    def test_unwritable_replacement_then_retry(self, sim):
        volume, devices = make_volume(sim)
        data = pattern(5 * STRIPE + 12 * KiB, seed=50)
        volume.execute(Bio.write(0, data))
        volume.fail_device(0)
        broken = fresh_replacement(sim, devices[1], "broken")
        broken.set_zone_read_only(0)
        seen = watch_commands(broken)
        with pytest.raises(ZoneStateError):
            rebuild(sim, volume, 0, broken)
        self.assert_plain_degraded(volume, 0)
        assert volume.failed.count(True) == 1
        # Nothing of the abandoned window is still in flight.
        assert seen and not in_flight(seen)
        assert volume.execute(Bio.read(0, len(data))).result == data
        report = rebuild(sim, volume, 0,
                         fresh_replacement(sim, devices[1], "good"))
        assert report.bytes_written > 0
        assert not any(volume.failed)
        volume.fail_device(3)
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_slow_evicted_device_stays_in_its_slot(self, sim):
        """``fail_device(remove=False)`` leaves the old device in the
        slot; a failed rebuild puts that back, not ``None``."""
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, pattern(2 * STRIPE, seed=51)))
        volume.fail_device(2, remove=False)
        old_mdz = volume.mdzones[2]
        broken = fresh_replacement(sim, devices[1], "broken")
        broken.set_zone_read_only(0)
        with pytest.raises(ZoneStateError):
            rebuild(sim, volume, 2, broken)
        assert volume.failed[2] and volume.rebuild_state is None
        assert volume.devices[2] is devices[2]
        assert volume.mdzones[2] is old_mdz

    def test_survivor_failing_mid_window_surfaces_one_error(self, sim):
        volume, devices, data = multi_zone_volume(sim)
        volume.fail_device(0)
        replacement = fresh_replacement(sim, devices[1], "r0")
        writes_seen = []

        def pull_the_plug(device, bio):
            if bio.op is Op.WRITE:
                writes_seen.append(bio.offset)
                if len(writes_seen) == 12:   # window full, zone 0 mid-way
                    devices[3].fail_device()

        replacement.add_hook("pre_apply", pull_the_plug)
        seen = [watch_commands(device)
                for device in (replacement, *devices[1:])]
        proc = sim.process(rebuild_process(sim, volume, 0, replacement))
        proc.add_callback(lambda _ev: None)   # the test inspects the outcome
        sim.run()   # a second, unhandled failure would raise out of here
        assert proc.triggered and not proc.ok
        assert isinstance(proc.value, (DeviceError, RaiznError))
        self.assert_plain_degraded(volume, 0)
        for commands in seen:
            assert commands and not in_flight(commands)


class TestRebuildObservability:
    """Spans and counters exist only under ``RaiznConfig.tracing`` and
    change nothing the devices see."""

    def traced_rebuild(self, sim, tracing, full_zones=2):
        volume, devices, data = multi_zone_volume(
            sim, full_zones=full_zones, tracing=tracing)
        volume.fail_device(1)
        replacement = fresh_replacement(sim, devices[0], "new")
        log = CommandLog(sim, replacement, volume)
        report = rebuild(sim, volume, 1, replacement)
        log.detach()
        return volume, report, log

    def test_rebuild_spans_tile_the_report(self, sim):
        volume, report, _log = self.traced_rebuild(sim, tracing=True)
        sink = volume.tracer.sink
        spans = [sink._ring_record(o)
                 for o in range(sink.evicted, sink.total_recorded)]
        spans = [r for r in spans if r["layer"] == "rebuild"]
        zones = [r for r in spans if r["name"] == "zone"]
        assert [r["name"] for r in spans] == ["zone"] * 3 + ["metadata"]
        assert all(r["device"] == "new" for r in spans)
        # Contiguous from start to finish: each span begins where the
        # previous one ended, so their durations sum to the report's.
        assert spans[0]["start"] == report.started_at
        for before, after in zip(spans, spans[1:]):
            assert after["start"] == before["end"]
        assert spans[-1]["end"] == report.finished_at
        assert sum(r["end"] - r["start"] for r in spans) == pytest.approx(
            report.duration, rel=0.01)
        assert sum(r["bytes"] for r in zones) == report.bytes_written

        flat = MetricsRegistry.for_volume(volume).flat()
        assert flat["rebuild.zones"] == 3
        assert flat["rebuild.bytes"] == report.bytes_written
        depth = volume.devices[1].model.saturating_depth
        assert 1 < flat["rebuild.peak_inflight"] <= depth

    def test_device_reads_have_a_parent(self, sim):
        """Each survivor read hangs under a root span: the logical read's,
        or the volume read root a regenerated run opens in its place.
        Four full zones: a run of two units is one read per survivor."""
        volume, _report, _log = self.traced_rebuild(sim, tracing=True,
                                                    full_zones=4)
        sink = volume.tracer.sink
        spans = [sink._ring_record(o)
                 for o in range(sink.evicted, sink.total_recorded)]
        reads = [r for r in spans
                 if r["layer"] == "zns" and r["name"] == "read"]
        roots = {r["id"] for r in spans
                 if r["layer"] == "volume" and r["name"] == "read"}
        assert sink.evicted == 0 and len(reads) > 100
        assert [r for r in reads if r["parent"] not in roots] == []

    def test_untraced_volume_has_no_rebuild_source(self, sim):
        volume, _report, _log = self.traced_rebuild(sim, tracing=False)
        assert volume.rebuild_counters is None
        assert "rebuild" not in MetricsRegistry.for_volume(volume).names()

    def test_tracing_leaves_the_command_stream_alone(self):
        _v, plain_report, plain = self.traced_rebuild(Simulator(), False)
        _v, traced_report, traced = self.traced_rebuild(Simulator(), True)
        assert traced.commands == plain.commands
        assert traced_report == plain_report
