"""Unit tests for byte units and the bio abstraction."""

import pytest

from repro.block import Bio, BioFlags, Op
from repro.block.timing import (
    ServiceTimeModel,
    conventional_ssd_model,
    zns_zn540_model,
)
from repro.errors import InvalidAddressError
from repro.units import (
    KiB,
    MiB,
    SECTOR_SIZE,
    fmt_bytes,
    sectors,
)


def is_sector_aligned(offset: int) -> bool:
    """True when ``offset`` (bytes) falls on a sector boundary."""
    return offset % SECTOR_SIZE == 0


class TestUnits:
    def test_sectors_rounds_up(self):
        assert sectors(0) == 0
        assert sectors(1) == 1
        assert sectors(SECTOR_SIZE) == 1
        assert sectors(SECTOR_SIZE + 1) == 2

    def test_sectors_rejects_negative(self):
        with pytest.raises(ValueError):
            sectors(-1)

    def test_alignment_predicates(self):
        assert is_sector_aligned(0)
        assert is_sector_aligned(8 * KiB)
        assert not is_sector_aligned(100)

    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512.0B"
        assert fmt_bytes(64 * KiB) == "64.0KiB"
        assert fmt_bytes(3 * MiB) == "3.0MiB"


class TestBioConstruction:
    def test_write_captures_length(self):
        bio = Bio.write(0, b"\x00" * 4096)
        assert bio.op is Op.WRITE and bio.length == 4096

    def test_write_requires_data(self):
        with pytest.raises(ValueError):
            Bio(Op.WRITE, offset=0)

    def test_read_requires_length(self):
        with pytest.raises(ValueError):
            Bio(Op.READ, offset=0, length=0)

    def test_negative_offset_rejected(self):
        with pytest.raises(InvalidAddressError):
            Bio.read(-4096, 4096)

    def test_flags(self):
        bio = Bio.write(0, b"\x00" * 4096,
                        BioFlags.FUA | BioFlags.PREFLUSH)
        assert bio.flags & BioFlags.FUA and bio.flags & BioFlags.PREFLUSH
        assert not Bio.flush().flags & BioFlags.FUA

    def test_end_offset(self):
        assert Bio.read(4096, 8192).end_offset == 12288

    def test_zone_ops_carry_offset(self):
        assert Bio.zone_reset(2 * MiB).offset == 2 * MiB
        assert Bio.zone_finish(MiB).op is Op.ZONE_FINISH
        assert Bio.zone_open(0).op is Op.ZONE_OPEN
        assert Bio.zone_close(0).op is Op.ZONE_CLOSE

    def test_alignment_check(self):
        Bio.write(0, b"\x00" * SECTOR_SIZE).check_alignment()
        with pytest.raises(InvalidAddressError):
            Bio.write(100, b"\x00" * SECTOR_SIZE).check_alignment()
        with pytest.raises(InvalidAddressError):
            Bio.write(0, b"\x00" * 100).check_alignment()
        Bio.flush().check_alignment()  # non-data ops are exempt

    def test_latency_requires_completion(self):
        bio = Bio.read(0, 4096)
        with pytest.raises(ValueError):
            _ = bio.latency
        bio.submit_time, bio.complete_time = 1.0, 1.5
        assert bio.latency == pytest.approx(0.5)


class TestServiceTimeModel:
    def test_write_faster_ack_than_read(self):
        model = zns_zn540_model()
        write = model.service_time(Op.WRITE, 4096)
        read = model.service_time(Op.READ, 4096)
        assert write < read  # cache-hit ack vs media read

    def test_transfer_scales_with_size(self):
        model = zns_zn540_model()
        small = model.service_time(Op.WRITE, 4 * KiB)
        large = model.service_time(Op.WRITE, 1 * MiB)
        assert large > small

    def test_aggregate_bandwidth_reachable(self):
        model = zns_zn540_model()
        size = 1 * MiB
        per_channel = model.service_time(Op.WRITE, size) \
            - model.write_base_latency
        aggregate = size / per_channel * model.channels
        assert aggregate == pytest.approx(1052 * MiB, rel=0.01)

    def test_conventional_slightly_faster(self):
        zns, conv = zns_zn540_model(), conventional_ssd_model()
        assert conv.write_bandwidth > zns.write_bandwidth
        assert conv.read_bandwidth > zns.read_bandwidth

    def test_jitter_bounded(self):
        import random
        model = ServiceTimeModel(read_bandwidth=MiB, write_bandwidth=MiB,
                                 jitter=0.1)
        rng = random.Random(0)
        base = model.service_time(Op.FLUSH, 0)
        for _ in range(100):
            jittered = model.service_time(Op.FLUSH, 0, rng)
            assert 0.9 * base <= jittered <= 1.1 * base

    def test_zone_mgmt_ops_have_fixed_cost(self):
        model = zns_zn540_model()
        assert model.service_time(Op.ZONE_RESET, 0) == \
            model.zone_mgmt_latency + model.command_overhead
        assert model.service_time(Op.FLUSH, 0) == \
            model.flush_latency + model.command_overhead

    def test_pipeline_latency_split(self):
        model = zns_zn540_model()
        assert model.pipeline_latency(Op.READ) == model.read_base_latency
        assert model.pipeline_latency(Op.WRITE) == model.write_base_latency
        assert model.pipeline_latency(Op.FLUSH) == 0.0
        assert model.service_time(Op.READ, 4096) == pytest.approx(
            model.occupancy_time(Op.READ, 4096)
            + model.read_base_latency)
