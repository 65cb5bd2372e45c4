"""Tests for the workload drivers and fault-injection helpers."""

import random

import pytest

from repro.block import Bio, Op
from repro.errors import ReproError
from repro.faults import (
    CrashPoint,
    crash_during,
    power_cycle,
    tolerate_power_loss,
    wear_out_zone,
)
from repro.sim import Simulator
from repro.units import KiB, MiB
from repro.workloads import FioJobSpec, prime_volume, run_fio, run_overwrite
from repro.workloads.fio import issue
from repro.zns import ZNSDevice, ZoneState

from conftest import make_volume, make_zns_devices


class TestFioDriver:
    def test_sequential_write_moves_all_bytes(self, sim):
        volume, _devices = make_volume(sim)
        spec = FioJobSpec(rw="write", block_size=64 * KiB, iodepth=8,
                          numjobs=2, size_per_job=2 * MiB,
                          region=(0, volume.capacity),
                          align=volume.zone_capacity)
        result = run_fio(sim, volume, spec)
        assert result.total_bytes == 4 * MiB
        assert result.latency.count == 64
        assert result.throughput_mib_s > 0

    def test_sequential_read_after_prime(self, sim):
        volume, _devices = make_volume(sim)
        prime_volume(sim, volume, 8 * MiB)
        spec = FioJobSpec(rw="read", block_size=256 * KiB, iodepth=16,
                          numjobs=1, size_per_job=8 * MiB,
                          region=(0, 8 * MiB))
        result = run_fio(sim, volume, spec)
        assert result.total_bytes == 8 * MiB

    def test_random_read(self, sim):
        volume, _devices = make_volume(sim)
        prime_volume(sim, volume, 4 * MiB)
        spec = FioJobSpec(rw="randread", block_size=16 * KiB, iodepth=32,
                          numjobs=1, size_per_job=2 * MiB,
                          region=(0, 4 * MiB), seed=3)
        result = run_fio(sim, volume, spec)
        assert result.latency.count == 128

    def test_deeper_queue_is_not_slower(self, sim):
        volume, _devices = make_volume(sim)
        prime_volume(sim, volume, 8 * MiB)

        def throughput(iodepth):
            local = Simulator()
            vol, _ = make_volume(local)
            prime_volume(local, vol, 8 * MiB)
            spec = FioJobSpec(rw="randread", block_size=64 * KiB,
                              iodepth=iodepth, numjobs=1,
                              size_per_job=4 * MiB, region=(0, 8 * MiB))
            return run_fio(local, vol, spec).throughput_mib_s
        assert throughput(32) > throughput(1) * 2

    def test_issue_bounds_the_window_and_raises_a_failure(self, sim):
        volume, _devices = make_volume(sim)
        events, in_flight = [], []

        def submit(bio, submit=volume.submit):
            in_flight.append(1 + sum(not event.triggered for event in events))
            events.append(submit(bio))
            return events[-1]

        volume.submit = submit
        bios = [Bio.write(offset, bytes(16 * KiB))
                for offset in range(0, volume.zone_capacity, 16 * KiB)]
        assert sim.run_process(issue(sim, volume, bios, 4)) == \
            volume.zone_capacity
        assert max(in_flight) == 4
        with pytest.raises(ReproError):  # the zone is full
            sim.run_process(issue(sim, volume, [Bio.write(0, bytes(4096))], 4))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ReproError):
            FioJobSpec(rw="bogus", block_size=4096)
        with pytest.raises(ReproError):
            FioJobSpec(rw="write", block_size=4096, iodepth=0)

    def test_oversized_job_rejected(self, sim):
        volume, _devices = make_volume(sim)
        spec = FioJobSpec(rw="write", block_size=64 * KiB, iodepth=1,
                          numjobs=4, size_per_job=volume.capacity,
                          region=(0, volume.capacity))
        with pytest.raises(ReproError):
            run_fio(sim, volume, spec)


class TestOverwriteDriver:
    def test_two_phases_on_raizn(self, sim):
        volume, _devices = make_volume(sim)
        result = run_overwrite(sim, volume, block_size=256 * KiB,
                               iodepth=4, threads=3, zoned=True,
                               bucket_seconds=0.001)
        assert result.phase2_start > 0
        assert result.phase1_latency.count > 0
        assert result.phase2_latency.count > 0
        # Phase 1 + phase 2 together wrote ~2x the usable capacity.
        usable = volume.capacity - volume.capacity % (3 * volume.zone_capacity)
        assert result.series.total_bytes >= usable

    def test_progress_reduction(self):
        from repro.harness import run_gc_timeseries, throughput_vs_progress
        from repro.harness.arrays import ArrayScale
        scale = ArrayScale(num_zones=8, zone_capacity=1 * MiB)
        result = run_gc_timeseries("raizn", scale=scale,
                                   block_size=64 * KiB)
        points = throughput_vs_progress(result, points=4)
        assert len(points) >= 3
        assert all(v > 0 for _f, v in points)


class TestPowerFaults:
    def test_power_cycle_loses_only_unflushed(self, sim):
        volume, devices = make_volume(sim)
        volume.execute(Bio.write(0, b"\x01" * 4096))
        volume.execute(Bio.flush())
        power_cycle(devices, random.Random(1))
        for dev in devices:
            assert dev.powered

    def test_tolerate_power_loss_swallows(self, sim, zns):
        def doomed():
            yield zns.submit(Bio.write(0, b"\x01" * 4096))
            zns.power_off()
            yield zns.submit(Bio.write(4096, b"\x02" * 4096))
            return "unreachable"
        result = sim.run_process(tolerate_power_loss(doomed()))
        assert result is None

    def test_crash_during_runs_workload_partially(self, sim):
        volume, devices = make_volume(sim)

        def workload():
            for i in range(64):
                yield volume.submit(Bio.write(i * 64 * KiB,
                                              b"\xaa" * (64 * KiB)))
            return "done"
        proc = crash_during(sim, devices, workload(), crash_time=0.001,
                            rng=random.Random(2))
        assert proc.triggered
        assert all(dev.powered for dev in devices)

    def test_crash_point_counts_ops(self, sim):
        devices = make_zns_devices(sim, n=2)
        crash = CrashPoint(devices, after=2, ops=(Op.WRITE,))
        devices[0].execute(Bio.write(0, b"\x01" * 4096))
        assert not crash.fired
        from repro.errors import PowerLossError
        with pytest.raises(PowerLossError):
            devices[1].execute(Bio.write(0, b"\x02" * 4096))
        assert crash.fired
        crash.disarm()
        assert devices[0].pre_apply_hook is None


class TestDeviceFaults:
    def test_wear_out_zone(self, sim, zns):
        wear_out_zone(zns, 3)
        assert zns.zone_info(3).state is ZoneState.READ_ONLY
        wear_out_zone(zns, 4, offline=True)
        assert zns.zone_info(4).state is ZoneState.OFFLINE

    def test_fresh_replacement_matches_geometry(self, sim, zns):
        from repro.faults import fresh_replacement
        replacement = fresh_replacement(sim, zns, "new")
        assert replacement.num_zones == zns.num_zones
        assert replacement.zone_capacity == zns.zone_capacity
        assert replacement.budget.max_open == zns.budget.max_open
