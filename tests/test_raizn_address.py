"""Unit and property tests for RAIZN address translation (paper §4.1)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidAddressError, RaiznError
from repro.raizn import AddressMapper, RaiznConfig
from repro.units import KiB, MiB


def mapper(num_data=4, su=64 * KiB, zone_cap=1 * MiB, zones=8):
    config = RaiznConfig(num_data=num_data, stripe_unit_bytes=su)
    return AddressMapper(config, zone_cap, zones)


def parity_pba(m, zone, stripe):
    """``(device_index, pba)`` of the parity SU of a stripe."""
    return (m.stripe_layout(zone, stripe).parity_device,
            zone * m.phys_zone_size + stripe * m.su)


def pba_to_lba(m, device, pba):
    """The inverse of ``m.lba_to_pba``: ``(lba, is_parity)``, the stripe's
    first LBA for a parity unit."""
    zone = pba // m.phys_zone_size
    if zone >= m.num_data_zones:
        raise InvalidAddressError(
            f"PBA {pba:#x} is in a metadata zone, not the data area")
    stripe, in_su = divmod(pba - zone * m.phys_zone_size, m.su)
    layout = m.stripe_layout(zone, stripe)
    stripe_lba = m.zone_start(zone) + stripe * m.stripe_width
    if device == layout.parity_device:
        return stripe_lba, True
    su_index = layout.data_devices.index(device)
    return stripe_lba + su_index * m.su + in_su, False


class TestConfig:
    def test_defaults(self):
        config = RaiznConfig()
        assert config.num_devices == 5
        assert config.stripe_width_bytes == 256 * KiB

    def test_rejects_multi_parity(self):
        with pytest.raises(RaiznError):
            RaiznConfig(num_parity=2)

    def test_rejects_tiny_array(self):
        with pytest.raises(RaiznError):
            RaiznConfig(num_data=1)

    def test_rejects_misaligned_stripe_unit(self):
        with pytest.raises(RaiznError):
            RaiznConfig(stripe_unit_bytes=1000)

    @pytest.mark.parametrize("field, value, message", [
        ("stripe_unit_bytes", 0, "stripe unit"),
        ("stripe_unit_bytes", -4096, "stripe unit"),
        ("relocation_rebuild_threshold", -1, "relocation_rebuild_threshold"),
    ])
    def test_rejects_out_of_range_field(self, field, value, message):
        with pytest.raises(RaiznError, match=message):
            RaiznConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("relocation_rebuild_threshold", 0),
    ])
    def test_accepts_boundary_values(self, field, value):
        assert getattr(RaiznConfig(**{field: value}), field) == value

    def test_option_surface(self):
        """The config holds what a caller varies or the superblock
        persists.  A new field needs two non-test callers that set it to
        different values; a tuning value with one setting is a module
        constant beside the code that reads it."""
        assert [field.name for field in dataclasses.fields(RaiznConfig)] == [
            "num_data", "num_parity", "stripe_unit_bytes",
            "num_metadata_zones", "relocation_rebuild_threshold",
            "max_transient_retries", "device_error_threshold",
            "read_repair", "failslow_protection", "slow_evict_score",
            "tracing"]

    def test_rejects_too_few_metadata_zones(self):
        with pytest.raises(RaiznError):
            RaiznConfig(num_metadata_zones=2)

    def test_logical_zone_capacity(self):
        config = RaiznConfig(num_data=4)
        assert config.logical_zone_capacity(1 * MiB) == 4 * MiB
        with pytest.raises(RaiznError):
            config.logical_zone_capacity(100 * KiB + 1)


class TestGeometry:
    def test_logical_capacity(self):
        m = mapper()
        assert m.logical_capacity == 8 * 4 * MiB
        assert m.zone_capacity == 4 * MiB
        assert m.stripes_per_zone == 16

    def test_zone_of(self):
        m = mapper()
        assert m.zone_of(0) == 0
        assert m.zone_of(4 * MiB) == 1
        assert m.zone_of(4 * MiB - 1) == 0
        with pytest.raises(InvalidAddressError):
            m.zone_of(m.logical_capacity)


class TestStripeLayout:
    def test_parity_rotates_across_stripes(self):
        m = mapper()
        parities = [m.stripe_layout(0, s).parity_device for s in range(5)]
        assert len(set(parities)) == 5  # all devices take a turn

    def test_first_su_device_rotates_across_zones(self):
        """§5.2: successive zones start on different devices, spreading
        zone-reset-log write amplification."""
        m = mapper()
        first_devices = [m.stripe_layout(z, 0).data_devices[0]
                         for z in range(5)]
        assert len(set(first_devices)) == 5

    def test_data_devices_exclude_parity(self):
        m = mapper()
        for stripe in range(10):
            layout = m.stripe_layout(0, stripe)
            assert layout.parity_device not in layout.data_devices
            assert len(set(layout.data_devices)) == 4


class TestTranslation:
    def test_lba_zero(self):
        m = mapper()
        device, pba = m.lba_to_pba(0)
        assert device == m.stripe_layout(0, 0).data_devices[0]
        assert pba == 0

    def test_second_zone_offsets_into_second_physical_zone(self):
        m = mapper()
        _device, pba = m.lba_to_pba(4 * MiB)
        assert pba == 1 * MiB

    def test_parity_pba(self):
        m = mapper()
        device, pba = parity_pba(m, 0, 3)
        assert device == m.stripe_layout(0, 3).parity_device
        assert pba == 3 * 64 * KiB

    def test_split_extent_single_su(self):
        m = mapper()
        pieces = m.split_extent(0, 4 * KiB)
        assert len(pieces) == 1
        assert pieces[0][2] == 4 * KiB

    def test_split_extent_spans_devices(self):
        m = mapper()
        pieces = m.split_extent(60 * KiB, 8 * KiB)
        assert len(pieces) == 2
        assert [p[2] for p in pieces] == [4 * KiB, 4 * KiB]
        assert pieces[0][0] != pieces[1][0]

    def test_split_extent_full_stripe(self):
        m = mapper()
        pieces = m.split_extent(0, 256 * KiB)
        assert len(pieces) == 4
        assert len({p[0] for p in pieces}) == 4

    def test_split_rejects_empty(self):
        with pytest.raises(InvalidAddressError):
            mapper().split_extent(0, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=8 * 4 * MiB - 1))
    def test_pba_roundtrip(self, lba):
        m = mapper()
        device, pba = m.lba_to_pba(lba)
        back, is_parity = pba_to_lba(m, device, pba)
        assert not is_parity
        assert back == lba

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=15))
    def test_parity_roundtrip(self, zone, stripe):
        m = mapper()
        device, pba = parity_pba(m, zone, stripe)
        lba, is_parity = pba_to_lba(m, device, pba)
        assert is_parity
        assert lba == m.zone_start(zone) + stripe * m.stripe_width

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=4 * 4 * MiB - 4096),
           st.integers(min_value=1, max_value=512 * KiB))
    def test_split_extent_covers_range_exactly(self, lba, length):
        m = mapper()
        length = min(length, m.logical_capacity - lba)
        pieces = m.split_extent(lba, length)
        assert sum(p[2] for p in pieces) == length
        # Pieces are device-disjoint per stripe unit and in LBA order.
        position = lba
        for device, pba, piece_len in pieces:
            expected_device, expected_pba = m.lba_to_pba(position)
            assert (device, pba) == (expected_device, expected_pba)
            position += piece_len

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=15))
    def test_every_stripe_covers_all_devices(self, zone, stripe):
        m = mapper()
        layout = m.stripe_layout(zone, stripe)
        assert sorted(list(layout.data_devices)
                      + [layout.parity_device]) == [0, 1, 2, 3, 4]

    def test_pba_to_lba_rejects_metadata_zone(self):
        m = mapper()
        with pytest.raises(InvalidAddressError):
            pba_to_lba(m, 0, 8 * MiB + 4096)
