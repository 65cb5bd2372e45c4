"""Unit and integration tests for the F2FS-like filesystem."""

import pytest

from repro.apps import F2FS, F2FSError
from repro.sim import Simulator
from repro.units import KiB, MiB, SECTOR_SIZE
from repro.zns import ZoneState

from conftest import make_volume, pattern


@pytest.fixture
def fs(sim):
    volume, _devices = make_volume(sim)
    return F2FS(sim, volume)


def run(sim, gen):
    return sim.run_process(gen)


class TestNamespace:
    def test_create_and_exists(self, sim, fs):
        fs.create("a/b")
        assert fs.exists("a/b")
        assert not fs.exists("a/c")
        assert sorted(fs.files) == ["a/b"]

    def test_duplicate_create_rejected(self, sim, fs):
        fs.create("x")
        with pytest.raises(F2FSError):
            fs.create("x")

    def test_missing_file_rejected(self, sim, fs):
        with pytest.raises(F2FSError):
            run(sim, fs.read("nope", 0, SECTOR_SIZE))


class TestDataPath:
    def test_append_read_roundtrip(self, sim, fs):
        fs.create("f")
        data = pattern(100 * KiB, seed=1)
        run(sim, fs.append("f", data))
        assert run(sim, fs.read("f", 0, 100 * KiB)) == data

    def test_append_pads_to_sector(self, sim, fs):
        fs.create("f")
        run(sim, fs.append("f", b"\x01" * 100))
        assert fs.files["f"].size == SECTOR_SIZE

    def test_multiple_appends_concatenate(self, sim, fs):
        fs.create("f")
        a = pattern(8 * KiB, seed=2)
        b = pattern(12 * KiB, seed=3)
        run(sim, fs.append("f", a))
        run(sim, fs.append("f", b))
        assert run(sim, fs.read("f", 0, 20 * KiB)) == a + b

    def test_unaligned_read(self, sim, fs):
        fs.create("f")
        data = pattern(64 * KiB, seed=4)
        run(sim, fs.append("f", data))
        assert run(sim, fs.read("f", 1000, 5000)) == data[1000:6000]

    def test_read_past_eof_rejected(self, sim, fs):
        fs.create("f")
        run(sim, fs.append("f", b"\x01" * SECTOR_SIZE))
        with pytest.raises(F2FSError):
            run(sim, fs.read("f", 0, 2 * SECTOR_SIZE))

    def test_append_spans_segments(self, sim, fs):
        fs.create("f")
        data = pattern(fs.segment_bytes + 64 * KiB, seed=5)
        run(sim, fs.append("f", data))
        assert run(sim, fs.read("f", 0, len(data))) == data

    def test_fsync_flushes(self, sim, fs):
        fs.create("f")
        run(sim, fs.append("f", b"\x01" * SECTOR_SIZE))
        run(sim, fs.fsync("f"))
        assert fs.fsync_count == 1

    def test_delete_frees_space(self, sim, fs):
        fs.create("f")
        run(sim, fs.append("f", pattern(fs.segment_bytes, seed=6)))
        free_before = len(fs.free_segments)
        run(sim, fs.delete("f"))
        assert not fs.exists("f")
        assert len(fs.free_segments) >= free_before

    def test_concurrent_appenders(self, sim, fs):
        """Two writers appending to different files must not collide on
        the shared log position."""
        fs.create("a")
        fs.create("b")
        da = pattern(256 * KiB, seed=7)
        db = pattern(256 * KiB, seed=8)

        def writer(path, data):
            for off in range(0, len(data), 16 * KiB):
                yield from fs.append(path, data[off:off + 16 * KiB])
        pa = sim.process(writer("a", da))
        pb = sim.process(writer("b", db))
        sim.run()
        assert pa.ok and pb.ok
        assert run(sim, fs.read("a", 0, len(da))) == da
        assert run(sim, fs.read("b", 0, len(db))) == db


class TestCleaning:
    def test_gc_migrates_live_data(self, sim):
        volume, _devices = make_volume(sim)
        fs = F2FS(sim, volume, reserved_segments=2)
        capacity_segments = len(fs.segments)
        keep = pattern(fs.segment_bytes // 2, seed=9)
        fs.create("keep")
        sim.run_process(fs.append("keep", keep))
        # Fill and delete churn files until cleaning must run.
        for round_number in range(3 * capacity_segments):
            name = f"churn{round_number}"
            fs.create(name)
            sim.run_process(fs.append(
                name, pattern(fs.segment_bytes // 2, seed=round_number)))
            sim.run_process(fs.delete(name))
        assert sim.run_process(fs.read("keep", 0, len(keep))) == keep

    def test_cleaning_migrates_live_blocks_out_of_dirty_segments(self, sim):
        """Every segment holds live blocks of files that stay beside dead
        versions of a file rewritten over and over, so no segment dies
        whole: the free segments reach the reserve, cleaning migrates
        the live blocks, and every file reads back its last bytes."""
        volume, _devices = make_volume(sim, zone_capacity=256 * KiB)
        fs = F2FS(sim, volume)
        last = {}
        for round_number in range(40):
            keep = f"keep{round_number}"
            fs.create(keep)
            last[keep] = pattern(64 * KiB, seed=100 + round_number)
            sim.run_process(fs.append(keep, last[keep]))
            if fs.exists("hot"):
                sim.run_process(fs.delete("hot"))
            fs.create("hot")
            last["hot"] = pattern(192 * KiB, seed=200 + round_number)
            sim.run_process(fs.append("hot", last["hot"]))
        assert fs.gc_migrated_bytes > 0
        for path, data in last.items():
            assert sim.run_process(fs.read(path, 0, len(data))) == data

    def test_out_of_space(self, sim):
        volume, _devices = make_volume(sim)
        fs = F2FS(sim, volume, reserved_segments=2)
        fs.create("big")
        with pytest.raises(F2FSError):
            sim.run_process(fs.append(
                "big", pattern(volume.capacity + fs.segment_bytes, seed=10)))


class TestZonedBehaviour:
    def test_segments_are_zones(self, sim, fs):
        assert fs.zoned
        assert fs.segment_bytes == fs.volume.zone_capacity

    def test_reclaim_resets_zone(self, sim):
        volume, _devices = make_volume(sim)
        fs = F2FS(sim, volume)
        fs.create("f")
        sim.run_process(fs.append("f", pattern(fs.segment_bytes, seed=11)))
        segment = fs.segments[fs.files["f"].extents[0].lba
                              // fs.segment_bytes]
        sim.run_process(fs.delete("f"))
        # The dead segment is reclaimed once it is no longer the active
        # log head: force a rotation with another segment-filling file.
        fs.create("g")
        sim.run_process(fs.append("g", pattern(fs.segment_bytes, seed=12)))
        assert volume.zone_info(segment.index).state is ZoneState.EMPTY

    def test_runs_on_mdraid_too(self, sim):
        from repro.conv import ConventionalSSD
        from repro.mdraid import MdraidVolume
        devices = [ConventionalSSD(sim, capacity_bytes=8 * MiB, seed=i)
                   for i in range(5)]
        md = MdraidVolume(sim, devices)
        fs = F2FS(sim, md)
        assert not fs.zoned
        fs.create("f")
        data = pattern(1 * MiB, seed=12)
        sim.run_process(fs.append("f", data))
        assert sim.run_process(fs.read("f", 0, len(data))) == data
        sim.run_process(fs.delete("f"))
