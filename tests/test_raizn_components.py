"""Unit tests for RAIZN's smaller components: stripe buffers, persistence
bitmaps, zone descriptors, and the relocation store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.block import Bio
from repro.errors import RaiznError
from repro.raizn.relocation import (RelocatedUnit, RelocationStore,
                                    unit_sources)
from repro.raizn.stripebuf import StripeBuffer
from repro.raizn.zonedesc import LogicalZoneDesc, PersistenceBitmap
from repro.units import KiB
from repro.zns import ZoneState

from conftest import TEST_STRIPE_UNIT, make_volume, pattern

STRIPE = 4 * TEST_STRIPE_UNIT


class TestStripeBuffer:
    def test_sequential_absorb(self):
        buffer = StripeBuffer(0, 0, num_data=2, su=16)
        buffer.absorb(0, b"\x01" * 10)
        buffer.absorb(10, b"\x02" * 10)
        assert buffer.fill_end == 20
        assert not buffer.full
        buffer.absorb(20, b"\x03" * 12)
        assert buffer.full

    def test_non_sequential_absorb_rejected(self):
        buffer = StripeBuffer(0, 0, num_data=2, su=16)
        with pytest.raises(RaiznError):
            buffer.absorb(4, b"\x01" * 4)

    def test_overflow_rejected(self):
        buffer = StripeBuffer(0, 0, num_data=2, su=16)
        with pytest.raises(RaiznError):
            buffer.absorb(0, b"\x01" * 40)

    def test_data_unit_zero_padded(self):
        buffer = StripeBuffer(0, 0, num_data=2, su=16)
        buffer.absorb(0, b"\xff" * 4)
        assert buffer.data_unit(0) == b"\xff" * 4 + bytes(12)
        assert buffer.data_unit(1) == bytes(16)

    def test_full_parity_equals_xor_of_units(self):
        buffer = StripeBuffer(0, 0, num_data=3, su=8)
        buffer.absorb(0, bytes(range(24)))
        parity = buffer.full_parity()
        expected = bytes(a ^ b ^ c for a, b, c in
                         zip(bytes(range(8)), bytes(range(8, 16)),
                             bytes(range(16, 24))))
        assert parity == expected

    def test_delta_parity_empty_chunk_rejected(self):
        with pytest.raises(RaiznError):
            StripeBuffer.delta_parity(0, b"", 16)


class TestTailBuffer:
    """A zone holds one stripe buffer, for its incomplete tail stripe."""

    def test_acquired_on_first_partial_write(self, sim):
        volume, _ = make_volume(sim)
        desc = volume.zone_descs[0]
        assert desc.tail is None
        volume.execute(Bio.write(0, pattern(8 * KiB, seed=1)))
        tail = desc.tail
        assert (tail.stripe, tail.fill_end) == (0, 8 * KiB)
        volume.execute(Bio.write(8 * KiB, pattern(4 * KiB, seed=2)))
        assert desc.tail is tail and tail.fill_end == 12 * KiB

    def test_released_when_stripe_completes(self, sim):
        volume, _ = make_volume(sim)
        desc = volume.zone_descs[0]
        volume.execute(Bio.write(0, pattern(8 * KiB, seed=1)))
        volume.execute(Bio.write(8 * KiB, pattern(STRIPE - 8 * KiB, seed=2)))
        assert desc.tail is None
        # Across a boundary: stripe 1 completes, stripe 2 becomes the tail.
        volume.execute(Bio.write(STRIPE, pattern(STRIPE + 4 * KiB, seed=3)))
        assert (desc.tail.stripe, desc.tail.fill_end) == (2, 4 * KiB)

    def test_cleared_on_reset_and_finish(self, sim):
        volume, _ = make_volume(sim)
        starts = (0, volume.zone_capacity)
        for start in starts:
            volume.execute(Bio.write(start, pattern(8 * KiB, seed=1)))
        volume.execute(Bio.zone_reset(starts[0]))
        volume.execute(Bio.zone_finish(starts[1]))
        assert [desc.tail for desc in volume.zone_descs[:2]] == [None, None]

    def test_write_without_its_tail_fails_as_raizn_error(self, sim):
        volume, _ = make_volume(sim)
        desc = volume.zone_descs[0]
        volume.execute(Bio.write(0, pattern(8 * KiB, seed=1)))
        desc.tail = None
        with pytest.raises(RaiznError, match="non-sequential"):
            volume.execute(Bio.write(8 * KiB, pattern(4 * KiB, seed=2)))

    def test_write_past_another_stripes_tail_fails_as_raizn_error(self, sim):
        volume, _ = make_volume(sim)
        desc = volume.zone_descs[0]
        volume.execute(Bio.write(0, pattern(8 * KiB, seed=1)))
        desc.tail = StripeBuffer(0, 3, num_data=4, su=TEST_STRIPE_UNIT)
        desc.tail.absorb(0, bytes(8 * KiB))
        with pytest.raises(RaiznError, match="tail buffer holds stripe 3"):
            volume.execute(Bio.write(8 * KiB, pattern(4 * KiB, seed=2)))


class TestPersistenceBitmap:
    def test_mark_and_frontier(self):
        bitmap = PersistenceBitmap(8)
        bitmap.mark_persisted(0)
        bitmap.mark_persisted(1)
        assert bitmap.frontier == 2
        bitmap.mark_persisted(3)
        assert bitmap.frontier == 2  # gap at 2

    def test_mark_up_to(self):
        bitmap = PersistenceBitmap(8)
        bitmap.mark_up_to(5)
        assert bitmap.frontier == 5
        assert bitmap.is_persisted(4)
        assert not bitmap.is_persisted(5)

    def test_unpersisted_in(self):
        bitmap = PersistenceBitmap(8)
        bitmap.mark_persisted(1)
        assert bitmap.unpersisted_in(0, 4) == [0, 2, 3]
        bitmap.mark_up_to(4)
        assert bitmap.unpersisted_in(0, 4) == []

    def test_reset(self):
        bitmap = PersistenceBitmap(4)
        bitmap.mark_up_to(4)
        bitmap.reset()
        assert bitmap.frontier == 0

    @given(st.lists(st.integers(0, 31), max_size=64))
    def test_frontier_invariant(self, marks):
        bitmap = PersistenceBitmap(32)
        for index in marks:
            bitmap.mark_persisted(index)
        assert all(bitmap.bits[i] for i in range(bitmap.frontier))
        assert bitmap.frontier == 32 or not bitmap.bits[bitmap.frontier]


class TestLogicalZoneDesc:
    def make(self):
        return LogicalZoneDesc(zone=2, start_lba=8 * 1024 * 1024,
                               capacity=4 * 1024 * 1024, num_data=4,
                               su=64 * KiB)

    def test_initial_state(self):
        desc = self.make()
        assert desc.state is ZoneState.EMPTY
        assert desc.write_pointer == desc.start_lba
        assert desc.written_bytes == 0

    def test_su_index_of(self):
        desc = self.make()
        assert desc.su_index_of(desc.start_lba) == 0
        assert desc.su_index_of(desc.start_lba + 64 * KiB) == 1
        assert desc.su_index_of(desc.start_lba + 64 * KiB - 1) == 0

    def test_reset_clears_everything(self):
        desc = self.make()
        desc.write_pointer += 128 * KiB
        desc.state = ZoneState.IMPLICIT_OPEN
        desc.has_relocations = True
        desc.persistence.mark_up_to(2)
        desc.tail = StripeBuffer(2, 0, num_data=4, su=64 * KiB)
        desc.reset()
        assert desc.state is ZoneState.EMPTY
        assert desc.write_pointer == desc.start_lba
        assert not desc.has_relocations
        assert desc.persistence.frontier == 0
        assert desc.tail is None


class TestRelocation:
    def test_unit_write_and_read(self):
        unit = RelocatedUnit(su_lba=1000 * KiB, device=1, su_size=64 * KiB)
        unit.write(1000 * KiB + 4096, b"\xab" * 4096)
        assert unit.extents == [(4096, 8192)]
        assert unit.read(1000 * KiB + 4096, 4096) == b"\xab" * 4096

    def test_extent_merge(self):
        unit = RelocatedUnit(0, 0, 64 * KiB)
        unit.write(0, b"\x01" * 4096)
        unit.write(4096, b"\x02" * 4096)
        assert unit.extents == [(0, 8192)]

    def test_out_of_bounds_write_rejected(self):
        unit = RelocatedUnit(0, 0, 4096)
        with pytest.raises(ValueError):
            unit.write(4096, b"\x00" * 10)

    def test_unit_sources_tile_the_range(self, sim):
        """Device below the first extent, the unit's bytes, then the
        device again with nothing valid past the first extent."""
        volume, _devices = make_volume(sim)
        su_lba = volume.mapper.su_lba(0, 0, 1)
        device = volume.mapper.stripe_layout(0, 0).data_devices[1]
        unit = volume.relocations.unit_for(su_lba, device, 0)
        unit.write(su_lba + 8192, b"\x01" * 4096)
        unit.write(su_lba + 16384, b"\x02" * 4096)
        assert unit_sources(volume, 0, 0, 1, 4096, 24576) == [
            (4096, 8192, 8192), (8192, 12288, b"\x01" * 4096),
            (12288, 16384, 8192), (16384, 20480, b"\x02" * 4096),
            (20480, 24576, 8192)]
        assert unit_sources(volume, 0, 0, 2, 0, 4096) == \
            [(0, 4096, TEST_STRIPE_UNIT)]
        assert unit_sources(volume, 0, 0, None, 0, 4096) == \
            [(0, 4096, TEST_STRIPE_UNIT)]
        volume.relocated_parity[(0, 0)] = bytes(range(256)) * 256
        assert unit_sources(volume, 0, 0, None, 16, 32) == \
            [(16, 32, bytes(range(16, 32)))]

    def test_store_counts_per_zone(self):
        store = RelocationStore(su_size=64 * KiB)
        store.unit_for(0, device=1, phys_zone=0)
        store.unit_for(64 * KiB, device=1, phys_zone=0)
        store.unit_for(0, device=1, phys_zone=0)  # same unit, no recount
        assert store.per_phys_zone[(1, 0)] == 2
        assert len(store) == 2

    def test_store_drop_zone(self):
        store = RelocationStore(su_size=64 * KiB)
        store.unit_for(0, device=0, phys_zone=0)
        store.unit_for(4 * 1024 * 1024, device=0, phys_zone=1)
        store.drop_zone(0, 4 * 1024 * 1024)
        store.rebuild_counters(lambda unit: 1)
        assert len(store) == 1
        assert store.lookup(0) is None

    def test_units_on_device(self):
        store = RelocationStore(su_size=64 * KiB)
        store.unit_for(0, device=0, phys_zone=0)
        store.unit_for(64 * KiB, device=2, phys_zone=0)
        assert [u.device for u in store.units_on_device(2)] == [2]
