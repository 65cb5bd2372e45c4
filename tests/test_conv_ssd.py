"""Unit tests for the conventional SSD: FTL mapping and on-device GC."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.block import Bio, Op
from repro.conv import ConventionalSSD, FTLConfig, GCResult, PageMappedFTL
from repro.errors import InvalidAddressError, ZoneStateError
from repro.sim import Simulator
from repro.units import KiB, MiB, SECTOR_SIZE

from conftest import pattern


def small_ftl(logical_pages=1024, ppb=32, op_ratio=0.1):
    return PageMappedFTL(FTLConfig(logical_pages=logical_pages,
                                   pages_per_block=ppb, op_ratio=op_ratio))


class TestFTLMapping:
    def test_initially_unmapped(self):
        ftl = small_ftl()
        assert not ftl.mapped(0)

    def test_write_maps_pages(self):
        ftl = small_ftl()
        ftl.write(0, 4)
        assert all(ftl.mapped(lpn) for lpn in range(4))
        assert not ftl.mapped(4)

    def test_overwrite_invalidates_old_page(self):
        ftl = small_ftl()
        ftl.write(0, 1)
        old_ppn = int(ftl.l2p[0])
        ftl.write(0, 1)
        assert int(ftl.l2p[0]) != old_ppn
        assert ftl.p2l[old_ppn] == ftl.UNMAPPED

    def test_out_of_range_rejected(self):
        ftl = small_ftl()
        with pytest.raises(InvalidAddressError):
            ftl.write(1024, 1)

    def test_trim_unmaps(self):
        ftl = small_ftl()
        ftl.write(0, 8)
        ftl.trim(0, 8)
        assert not any(ftl.mapped(lpn) for lpn in range(8))

    def test_valid_counts_consistent(self):
        ftl = small_ftl()
        ftl.write(0, 100)
        ftl.write(50, 100)
        mapped = sum(1 for lpn in range(1024) if ftl.mapped(lpn))
        assert int(ftl.valid_count.sum()) == mapped == 150


class TestFTLDoorChecks:
    """Bad geometry is refused at construction, not as "out of free
    blocks" or ZeroDivisionError later; an empty extent is a no-op
    wherever its first page is valid."""

    @pytest.mark.parametrize("field", ["logical_pages", "page_size",
                                       "pages_per_block"])
    @pytest.mark.parametrize("value", [0, -4])
    def test_geometry_must_be_positive(self, field, value):
        kwargs = {"logical_pages": 1024, field: value}
        with pytest.raises(InvalidAddressError, match=f"{field}={value}"):
            FTLConfig(**kwargs)

    def test_negative_overprovisioning_rejected(self):
        with pytest.raises(ValueError, match="op_ratio=-0.5"):
            FTLConfig(logical_pages=1024, op_ratio=-0.5)
        assert FTLConfig(logical_pages=1024, op_ratio=0.0).physical_blocks

    @pytest.mark.parametrize("low, high", [(9, 8), (8, 8), (-1, 8), (0, 0)])
    def test_watermarks_must_be_ordered(self, low, high):
        with pytest.raises(ValueError, match=f"gc_low_watermark={low}"):
            FTLConfig(logical_pages=1024, gc_low_watermark=low,
                      gc_high_watermark=high)

    def test_device_refuses_bad_geometry(self, sim):
        # A zero capacity is refused by BlockDevice, before the FTL:
        # tests/test_device_media.py.
        with pytest.raises(InvalidAddressError):
            ConventionalSSD(sim, capacity_bytes=16 * MiB, pages_per_block=0)
        with pytest.raises(ValueError):
            ConventionalSSD(sim, capacity_bytes=16 * MiB, op_ratio=-0.5)

    @pytest.mark.parametrize("lpn", [0, 1, 500, 1023])
    def test_empty_extent_is_a_noop_at_any_valid_page(self, lpn):
        ftl = small_ftl()
        ftl.write(0, 1024)
        before = (ftl.l2p.copy(), ftl.p2l.copy(), ftl.host_pages_written)
        assert ftl.write(lpn, 0) == GCResult()
        ftl.trim(lpn, 0)
        assert (ftl.l2p == before[0]).all() and (ftl.p2l == before[1]).all()
        assert ftl.host_pages_written == before[2]

    @pytest.mark.parametrize("lpn", [-1, 1024])
    def test_empty_extent_outside_the_device_rejected(self, lpn):
        ftl = small_ftl()
        with pytest.raises(InvalidAddressError, match="out of range"):
            ftl.write(lpn, 0)
        with pytest.raises(InvalidAddressError, match="out of range"):
            ftl.trim(lpn, 0)

    def test_negative_length_rejected(self):
        ftl = small_ftl()
        with pytest.raises(InvalidAddressError, match="negative"):
            ftl.write(8, -2)
        with pytest.raises(InvalidAddressError, match="negative"):
            ftl.trim(8, -2)

    def test_extent_past_the_end_maps_nothing(self):
        ftl = small_ftl()
        with pytest.raises(InvalidAddressError, match="logical page 1024"):
            ftl.write(1020, 5)
        assert not ftl.mapped(1020) and ftl.host_pages_written == 0

    @pytest.mark.parametrize("offset", [0, 4096])
    def test_empty_device_write_succeeds_everywhere(self, sim, offset):
        dev = ConventionalSSD(sim, capacity_bytes=16 * MiB)
        assert dev.execute(Bio.write(offset, b"")).error is None
        assert dev.ftl.host_pages_written == 0


class TestFTLGarbageCollection:
    def test_sequential_overwrite_low_wa(self):
        ftl = small_ftl(op_ratio=0.3)
        for _ in range(4):
            for lpn in range(0, 1024, 32):
                ftl.write(lpn, 32)
        # Whole blocks die together, so GC reclaims mostly-empty blocks
        # and sequential overwrite stays near WA 1.
        assert ftl.write_amplification < 1.2

    def test_random_overwrite_causes_copyback(self):
        import random
        rng = random.Random(0)
        ftl = small_ftl()
        ftl.write(0, 1024)
        for _ in range(4096):
            ftl.write(rng.randrange(1024), 1)
        assert ftl.write_amplification > 1.3
        assert ftl.gc_pages_moved > 0
        assert ftl.blocks_erased > 0

    def test_gc_preserves_all_mappings(self):
        import random
        rng = random.Random(1)
        ftl = small_ftl()
        ftl.write(0, 1024)
        for _ in range(2048):
            ftl.write(rng.randrange(1024), 1)
        # Every logical page still maps to a unique physical page.
        ppns = [int(ftl.l2p[lpn]) for lpn in range(1024)]
        assert ftl.UNMAPPED not in ppns
        assert len(set(ppns)) == 1024
        for lpn, ppn in enumerate(ppns):
            assert int(ftl.p2l[ppn]) == lpn

    def test_free_blocks_never_exhausted(self):
        import random
        rng = random.Random(2)
        ftl = small_ftl(op_ratio=0.08)
        ftl.write(0, 1024)
        for _ in range(8192):
            ftl.write(rng.randrange(1024), 1)
        open_frontiers = sum(1 for b in (ftl.active_block, ftl.gc_block)
                             if b is not None)
        assert len(ftl.free_blocks) + open_frontiers >= 1

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(1, 16)),
                    min_size=1, max_size=200))
    def test_mapping_invariant_under_random_ops(self, ops):
        ftl = small_ftl(logical_pages=272)
        for lpn, count in ops:
            count = min(count, 272 - lpn)
            ftl.write(lpn, count)
        mapped = [lpn for lpn in range(272) if ftl.mapped(lpn)]
        ppns = [int(ftl.l2p[lpn]) for lpn in mapped]
        assert len(set(ppns)) == len(ppns)  # injective mapping


class TestConventionalDevice:
    def test_roundtrip(self, sim):
        dev = ConventionalSSD(sim, capacity_bytes=16 * MiB)
        data = pattern(256 * KiB, seed=9)
        dev.execute(Bio.write(1 * MiB, data))
        assert dev.execute(Bio.read(1 * MiB, 256 * KiB)).result == data

    def test_overwrite_in_place(self, sim):
        dev = ConventionalSSD(sim, capacity_bytes=16 * MiB)
        dev.execute(Bio.write(0, b"\xaa" * 8192))
        dev.execute(Bio.write(0, b"\xbb" * 8192))
        assert dev.execute(Bio.read(0, 8192)).result == b"\xbb" * 8192

    def test_unwritten_reads_zero(self, sim):
        dev = ConventionalSSD(sim, capacity_bytes=16 * MiB)
        assert dev.execute(Bio.read(0, 4096)).result == bytes(4096)

    def test_out_of_range_rejected(self, sim):
        dev = ConventionalSSD(sim, capacity_bytes=16 * MiB)
        with pytest.raises(InvalidAddressError):
            dev.execute(Bio.read(16 * MiB, 4096))

    def test_discard_zeroes_and_unmaps(self, sim):
        dev = ConventionalSSD(sim, capacity_bytes=16 * MiB)
        dev.execute(Bio.write(0, b"\xaa" * 8192))
        dev.execute(Bio(Op.DISCARD, offset=0, length=8192))
        assert dev.execute(Bio.read(0, 8192)).result == bytes(8192)
        assert not dev.ftl.mapped(0)

    def test_zone_ops_rejected(self, sim):
        dev = ConventionalSSD(sim, capacity_bytes=16 * MiB)
        with pytest.raises(ZoneStateError):
            dev.execute(Bio.zone_reset(0))

    def test_gc_slows_writes(self, sim):
        """GC copy-back time must be charged to the triggering writes."""
        dev = ConventionalSSD(sim, capacity_bytes=8 * MiB, seed=3)
        import random
        rng = random.Random(0)

        def fill():
            for off in range(0, 8 * MiB, 64 * KiB):
                yield dev.submit(Bio.write(off, b"\x01" * (64 * KiB)))
        sim.run_process(fill())
        clean_start = sim.now

        def churn():
            for _ in range(512):
                off = rng.randrange(8 * MiB // SECTOR_SIZE) * SECTOR_SIZE
                yield dev.submit(Bio.write(off, b"\x02" * SECTOR_SIZE))
        sim.run_process(churn())
        churn_time = sim.now - clean_start
        assert dev.write_amplification > 1.1
        # The same churn on a fresh device is faster.
        sim2 = Simulator()
        dev2 = ConventionalSSD(sim2, capacity_bytes=8 * MiB, seed=3)
        rng2 = random.Random(0)

        def churn2():
            for _ in range(512):
                off = rng2.randrange(8 * MiB // SECTOR_SIZE) * SECTOR_SIZE
                yield dev2.submit(Bio.write(off, b"\x02" * SECTOR_SIZE))
        sim2.run_process(churn2())
        assert churn_time > sim2.now
