"""The durability oracle and the end-to-end crash-state explorer.

Unit-tests the :class:`WorkloadExpectation` bookkeeping and each
``check_*`` function against live mounted volumes, then runs the full
explorer at small scale: a clean pass, byte-identical determinism across
runs, and — the detection-power test — a deliberately injected durability
bug that the harness must catch.
"""

import json

import pytest

from repro.block import Bio, BioFlags
from repro.block.device import remove_hooks
from repro.faults import (
    WorkloadExpectation,
    array_state_fingerprint,
    check_mount_stability,
    check_persistence_bitmap_soundness,
    check_recovered_volume,
)
from repro.errors import WritePointerViolation
from repro.harness import campaign, errortest, soaktest
from repro.harness.campaign import (LOGICAL_ZONE_CAPACITY, CampaignReport,
                                    write_report)
from repro.harness.crashtest import explore, scripted_workload
from repro.raizn.recovery import mount
from repro.raizn.writepath import WritePath
from repro.units import KiB

from conftest import make_volume, pattern


class TestWorkloadExpectation:
    def test_submit_and_fua_ack(self):
        expect = WorkloadExpectation(2, 1024 * KiB)
        expect.note_submit_write(0, b"ab" * 2048)
        assert expect.next_write_offset(0) == 4096
        assert expect.zones[0].synced == 0
        expect.note_write_acked(0, fua=False)
        assert expect.zones[0].synced == 0   # plain ack promises nothing
        expect.note_write_acked(0, fua=True)
        assert expect.zones[0].synced == 4096

    def test_flush_syncs_every_zone(self):
        expect = WorkloadExpectation(2, 1024 * KiB)
        expect.note_submit_write(0, bytes(4096))
        expect.note_submit_write(1, bytes(8192))
        expect.note_flush_acked()
        assert expect.zones[0].synced == 4096
        assert expect.zones[1].synced == 8192

    def test_reset_lifecycle(self):
        expect = WorkloadExpectation(1, 1024 * KiB)
        expect.note_submit_write(0, bytes(4096))
        expect.note_submit_reset(0)
        assert expect.zones[0].resetting
        expect.note_reset_acked(0)
        assert not expect.zones[0].resetting
        assert expect.next_write_offset(0) == 0

    def test_copy_freezes_state(self):
        expect = WorkloadExpectation(1, 1024 * KiB)
        expect.note_submit_write(0, bytes(4096))
        frozen = expect.copy()
        expect.note_submit_write(0, bytes(4096))
        expect.note_flush_acked()
        assert len(frozen.zones[0].submitted) == 4096
        assert frozen.zones[0].synced == 0


class TestOracleChecks:
    def _write_and_crash(self, sim, volume, devices, expect, flags):
        data = pattern(128 * KiB, seed=1)
        expect.note_submit_write(0, data)
        volume.execute(Bio.write(0, data, flags))
        for dev in devices:
            dev.power_fail_to({})   # keep only durable prefixes
            dev.power_on()
        return mount(sim, list(devices))

    def test_durable_data_passes(self, sim):
        volume, devices = make_volume(sim)
        expect = WorkloadExpectation(volume.num_data_zones,
                                     volume.zone_capacity)
        recovered = self._write_and_crash(
            sim, volume, devices, expect,
            BioFlags.FUA | BioFlags.PREFLUSH)
        expect.note_write_acked(0, fua=True)
        assert check_recovered_volume(recovered, expect) == []
        assert check_persistence_bitmap_soundness(recovered) == []

    def test_lost_acked_bytes_detected(self, sim):
        """A falsely-claimed FUA ack over cache-only data must surface as
        a write-pointer violation after the crash discards the cache."""
        volume, devices = make_volume(sim)
        expect = WorkloadExpectation(volume.num_data_zones,
                                     volume.zone_capacity)
        recovered = self._write_and_crash(sim, volume, devices, expect,
                                          BioFlags.NONE)
        expect.note_write_acked(0, fua=True)   # the lie
        violations = check_recovered_volume(recovered, expect)
        assert len(violations) == 1
        assert "outside legal range" in violations[0]

    def test_content_divergence_detected(self, sim):
        volume, devices = make_volume(sim)
        expect = WorkloadExpectation(volume.num_data_zones,
                                     volume.zone_capacity)
        recovered = self._write_and_crash(
            sim, volume, devices, expect,
            BioFlags.FUA | BioFlags.PREFLUSH)
        expect.note_write_acked(0, fua=True)
        expect.zones[0].submitted[10] ^= 0xFF   # corrupt the expectation
        violations = check_recovered_volume(recovered, expect)
        assert len(violations) == 1
        assert "diverges" in violations[0]
        assert "0xa" in violations[0]   # first divergent offset reported

    def test_read_back_that_fails_is_a_violation(self, sim):
        """A mounted volume with two devices unavailable under one stripe
        (one failed, one with a latent error) cannot serve the read-back:
        that is a finding for the zone, not an exception out of the
        oracle."""
        volume, devices = make_volume(sim)
        expect = WorkloadExpectation(volume.num_data_zones,
                                     volume.zone_capacity)
        data = pattern(256 * KiB, seed=1)
        expect.note_submit_write(0, data)
        volume.execute(Bio.write(0, data, BioFlags.FUA | BioFlags.PREFLUSH))
        expect.note_write_acked(0, fua=True)
        recovered = mount(sim, list(devices))
        su = recovered.config.stripe_unit_bytes
        recovered.fail_device(recovered.mapper.lba_to_pba(0)[0])
        latent, pba = recovered.mapper.lba_to_pba(su)
        devices[latent].mark_bad(pba, 4 * KiB)
        violations = check_recovered_volume(recovered, expect)
        assert violations == [
            "zone 0: read-back of [0, 0x40000) failed: DegradedModeError: "
            "two unavailable devices (1, 0); single parity cannot "
            "reconstruct"]

    def test_remount_is_stable(self, sim):
        volume, devices = make_volume(sim)
        expect = WorkloadExpectation(volume.num_data_zones,
                                     volume.zone_capacity)
        recovered = self._write_and_crash(
            sim, volume, devices, expect,
            BioFlags.FUA | BioFlags.PREFLUSH)
        remounted = mount(sim, list(devices))
        assert check_mount_stability(recovered, remounted) == []


class TestKernelReportsWhatItCannotCheck:
    """An exception that is no ``ReproError`` — a bug, not a finding of
    the oracle — becomes a ``traceback`` violation instead of killing
    the campaign."""

    @staticmethod
    def broken(*_args, **_kwargs):
        raise AssertionError("invariant broken")

    def test_mount_that_raises(self, sim, monkeypatch):
        _volume, devices = make_volume(sim)
        report = CampaignReport()
        monkeypatch.setattr(campaign, "mount", self.broken)
        assert campaign.mount_and_check(
            sim, devices, WorkloadExpectation(1, KiB), report,
            {"state": "s0"}) is None
        [finding] = report.violations
        assert finding["state"] == "s0" and finding["check"] == "traceback"
        assert "AssertionError: invariant broken" in finding["detail"]

    def test_read_that_raises(self, sim, monkeypatch):
        volume, _devices = make_volume(sim)
        expect = WorkloadExpectation(volume.num_data_zones,
                                     volume.zone_capacity)
        report = CampaignReport()
        monkeypatch.setattr(volume, "submit", self.broken)
        sim.run_process(campaign.checked_read(volume, expect, report,
                                              "workload", 0, 0, 4 * KiB))
        [finding] = report.violations
        assert finding["check"] == "traceback" and not report.corruptions
        assert "AssertionError: invariant broken" in finding["detail"]

    @staticmethod
    def break_on_call(n, method, exc):
        """``method``, raising ``exc`` on its ``n``-th call only."""
        calls = [0]

        def wrapped(*args, **kwargs):
            calls[0] += 1
            if calls[0] == n:
                raise exc
            return method(*args, **kwargs)
        return wrapped

    @pytest.mark.parametrize("exc", [
        RuntimeError("datapath broke"),
        WritePointerViolation("write at 0x0 != write pointer 0x1000")])
    @pytest.mark.parametrize("campaign_run", ["crashtest", "errortest",
                                              "soaktest"])
    def test_op_driver_that_raises(self, monkeypatch, campaign_run, exc):
        """Whatever escapes the op driver — a bug, or a ``ReproError``
        the datapath should have absorbed — is one violation, and the
        campaign still finishes and reports."""
        monkeypatch.setattr(WritePath, "start", self.break_on_call(
            6, WritePath.start, exc))
        if campaign_run == "crashtest":
            report = explore(**SMALL)
        elif campaign_run == "errortest":
            report = errortest.run_campaign(seed=0, quick=True).to_dict()
        else:
            report = soaktest.run_soaktest(seed=0, quick=True)
        [finding] = report["violations"]
        assert finding["check"] == "traceback" and not report["passed"]
        assert f"{type(exc).__name__}: {exc}" in finding["detail"]

    def test_soak_crash_cycle_mount_that_raises(self, monkeypatch):
        """The soak's crash cycle mounts through ``mount_and_check``: a
        recovery mount raising a bug is one violation, and the soak
        carries on from the live array it had and reports."""
        crash_cycle = soaktest._Campaign._crash_cycle

        def raise_in_mount(_device, _bio):
            raise RuntimeError("mount broke")

        live = []

        def broken_cycle(run, recorder, phase):
            devices = run.devices
            hooks = [dev.add_hook("pre_apply", raise_in_mount)
                     for dev in devices if dev is not None]
            live.append(array_state_fingerprint(devices))
            try:
                return crash_cycle(run, recorder, phase)
            finally:
                remove_hooks(hooks)
                live.append(array_state_fingerprint(devices))
        monkeypatch.setattr(soaktest._Campaign, "_crash_cycle", broken_cycle)
        report = soaktest.run_soaktest(seed=0, quick=True)
        assert report["crash_cycles"] == 1
        assert live[0] == live[1], "the soak did not go back to its live array"
        [finding] = report["violations"]
        assert finding["check"] == "traceback"
        assert finding["where"] == "crash_cycle"
        assert "RuntimeError: mount broke" in finding["detail"]


class TestScriptedWorkload:
    def test_replay_is_identical(self):
        assert scripted_workload(5, 40) == scripted_workload(5, 40)

    def test_seeds_differ(self):
        assert scripted_workload(5, 40) != scripted_workload(6, 40)

    def test_writes_are_sequential_per_zone(self):
        frontier = {}
        for kind, zone, lba, data, _flags in scripted_workload(7, 60):
            if kind == "reset":
                frontier[zone] = 0
            elif kind == "write":
                expected = zone * LOGICAL_ZONE_CAPACITY + frontier.get(zone, 0)
                assert lba == expected
                frontier[zone] = frontier.get(zone, 0) + len(data)
                assert frontier[zone] <= LOGICAL_ZONE_CAPACITY


SMALL = dict(seed=0, num_ops=20, boundaries=6, budget_per_boundary=4)


class TestExploreEndToEnd:
    def test_small_exploration_passes(self):
        report = explore(**SMALL)
        assert report["passed"]
        assert report["violations"] == []
        assert report["states_explored"] > 0
        assert 0 < report["distinct_states"] <= report["states_explored"]
        assert report["oracle_checks"]["recovered_volume"] > 0
        assert report["oracle_checks"]["mount_stability"] > 0
        assert report["boundaries_sampled"] <= 6

    def test_exploration_is_deterministic(self):
        first = explore(**SMALL)
        second = explore(**SMALL)
        first.pop("elapsed_s")
        second.pop("elapsed_s")
        assert first == second

    def test_injected_flush_bug_is_caught(self, monkeypatch):
        """Detection power: drop the §5.3 selective-flush path so FLUSH
        acks lie about cached stripe units — the explorer must find
        crash states that lose acked bytes.  (Sized up when flush elision
        moved the timeline: at ``num_ops=40, boundaries=12`` seed 0 no
        longer crashes inside a window the bug opens; seed 1 still does.)"""
        monkeypatch.setattr(
            WritePath, "flush_unpersisted",
            lambda self, desc, bio, fua_devices: [])
        report = explore(seed=0, num_ops=80, boundaries=30,
                         budget_per_boundary=6)
        assert not report["passed"]
        assert any("outside legal range" in v["detail"]
                   for v in report["violations"])

    def test_report_roundtrips_to_json(self, tmp_path):
        report = explore(**SMALL)
        out = tmp_path / "report.json"
        write_report(report, str(out))
        assert json.loads(out.read_text()) == report
