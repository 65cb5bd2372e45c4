"""Property and unit tests for parity algebra and the metadata log format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MetadataError
from repro.raizn import MetadataEntry, MetadataType, Superblock
from repro.raizn.metadata import (
    CHECKPOINT_FLAG,
    GENERATION_BLOCK_COUNTERS,
    decode_generation_block,
    decode_op_wal,
    decode_partial_parity,
    decode_zone_reset,
    encode_generation_block,
    encode_op_wal,
    encode_partial_parity,
    encode_relocated_su,
    encode_zone_reset,
)
from repro.raizn.parity import (
    fold,
    stripe_parity,
    xor_buffers,
    xor_into,
)
from repro.raizn.stripebuf import StripeBuffer
from repro.units import SECTOR_SIZE

unit_bytes = st.binary(min_size=0, max_size=256)


class TestXor:
    def test_xor_into_basic(self):
        acc = bytearray(b"\x0f\x0f")
        xor_into(acc, b"\xff\x00")
        assert acc == bytearray(b"\xf0\x0f")

    def test_xor_into_offset(self):
        acc = bytearray(4)
        xor_into(acc, b"\xff", offset=2)
        assert acc == bytearray(b"\x00\x00\xff\x00")

    def test_xor_into_overflow_rejected(self):
        with pytest.raises(ValueError):
            xor_into(bytearray(2), b"\xff\xff\xff")

    def test_xor_buffers_identity(self):
        assert xor_buffers([b"\xab\xcd"]) == b"\xab\xcd"

    def test_xor_buffers_mismatched_lengths(self):
        with pytest.raises(ValueError):
            xor_buffers([b"\x00", b"\x00\x00"])

    @given(st.lists(st.binary(min_size=8, max_size=8), min_size=1,
                    max_size=6))
    def test_xor_self_inverse(self, buffers):
        once = xor_buffers(buffers)
        assert xor_buffers(buffers + [once]) == bytes(8)


class TestStripeParity:
    @given(st.lists(unit_bytes, min_size=1, max_size=5))
    def test_reconstruct_any_missing_unit(self, units):
        su = 256
        parity = stripe_parity(units, su)
        padded = [u + bytes(su - len(u)) for u in units]
        for missing in range(len(units)):
            rebuilt = fold(None, parity)
            for i, unit in enumerate(padded):
                if i != missing:
                    rebuilt = fold(rebuilt, unit)
            assert bytes(rebuilt) == padded[missing]

    def test_zero_padding_rule(self):
        # §5.1: data beyond the written extent is treated as zeroes.
        parity = stripe_parity([b"\xff" * 10], 20)
        assert parity == b"\xff" * 10 + b"\x00" * 10

    def test_unit_too_long_rejected(self):
        with pytest.raises(ValueError):
            stripe_parity([b"\x00" * 30], 20)

    @given(st.integers(0, 255), st.binary(min_size=1, max_size=300))
    def test_delta_parity_matches_full_recompute(self, start, chunk):
        """XOR of per-write deltas equals the full parity (§5.1)."""
        su = 64
        width = 4 * su
        start = start % (width - 1)
        chunk = chunk[:width - start]
        offset, delta = StripeBuffer.delta_parity(start, chunk, su)
        acc = bytearray(su)
        xor_into(acc, delta, offset)
        # Direct computation from a stripe image.
        stripe = bytearray(width)
        stripe[start:start + len(chunk)] = chunk
        units = [bytes(stripe[i * su:(i + 1) * su]) for i in range(4)]
        assert bytes(acc) == stripe_parity(units, su)


class TestMetadataEncoding:
    def test_header_sector_sized(self):
        entry = MetadataEntry(MetadataType.ZONE_RESET_LOG, 0, 0, 1)
        assert len(entry.encode()) == SECTOR_SIZE

    def test_payload_padded_to_sector(self):
        entry = MetadataEntry(MetadataType.RELOCATED_SU, 0, 100, 1,
                              payload=b"\xaa" * 100)
        assert len(entry.encode()) == 2 * SECTOR_SIZE
        assert entry.total_bytes == 2 * SECTOR_SIZE

    def test_oversized_inline_rejected(self):
        with pytest.raises(MetadataError):
            MetadataEntry(MetadataType.SUPERBLOCK, 0, 0, 0,
                          inline=b"\x00" * SECTOR_SIZE)

    @settings(max_examples=50)
    @given(st.sampled_from(list(MetadataType)),
           st.integers(0, 2 ** 63), st.integers(0, 2 ** 63),
           st.integers(0, 2 ** 63),
           st.binary(max_size=128), st.binary(max_size=1024),
           st.booleans())
    def test_roundtrip(self, mdtype, start, end, gen, inline, payload,
                       checkpoint):
        entry = MetadataEntry(mdtype, start, end, gen, inline=inline,
                              payload=payload, checkpoint=checkpoint)
        decoded, consumed = MetadataEntry.decode(entry.encode())
        assert consumed == entry.total_bytes
        assert decoded.mdtype is mdtype
        assert decoded.start_lba == start
        assert decoded.end_lba == end
        assert decoded.generation == gen
        assert decoded.inline.startswith(inline)
        assert decoded.payload == payload
        assert decoded.checkpoint == checkpoint

    def test_scan_multiple_entries(self):
        entries = [
            encode_zone_reset(1, 100, 7),
            encode_relocated_su(0, b"\xaa" * 10, 7),
            encode_generation_block(0, [1, 2, 3]),
        ]
        blob = b"".join(e.encode() for e in entries)
        scanned = MetadataEntry.scan(blob)
        assert [e.mdtype for e in scanned] == [
            MetadataType.ZONE_RESET_LOG, MetadataType.RELOCATED_SU,
            MetadataType.GENERATION]

    def test_scan_stops_at_garbage(self):
        blob = encode_zone_reset(1, 100, 7).encode() + bytes(SECTOR_SIZE)
        assert len(MetadataEntry.scan(blob)) == 1

    def test_scan_discards_truncated_tail(self):
        """A torn append (payload cut by power loss) must be discarded."""
        entry = encode_relocated_su(0, b"\xaa" * 8192, 7)
        blob = entry.encode()[:-SECTOR_SIZE]
        assert MetadataEntry.scan(blob) == []

    def test_decode_rejects_bad_magic(self):
        assert MetadataEntry.decode(bytes(SECTOR_SIZE)) is None

    def test_checkpoint_flag_separable(self):
        entry = encode_partial_parity(0, 10, 3, 0, b"\xaa" * 10,
                                      checkpoint=True)
        decoded, _ = MetadataEntry.decode(entry.encode())
        assert decoded.checkpoint
        assert decoded.mdtype is MetadataType.PARTIAL_PARITY


class TestTypedPayloads:
    def test_superblock_roundtrip(self):
        superblock = Superblock(version=1, num_data=4, num_parity=1,
                                stripe_unit_bytes=65536, num_zones=32,
                                zone_capacity=2 ** 20,
                                num_metadata_zones=3, device_index=2,
                                array_uuid=b"\x01" * 16)
        decoded = Superblock.from_entry(superblock.to_entry())
        assert decoded == superblock

    def test_superblock_type_checked(self):
        with pytest.raises(MetadataError):
            Superblock.from_entry(encode_zone_reset(0, 0, 1))

    def test_generation_block_roundtrip(self):
        counters = list(range(1, 101))
        entry = encode_generation_block(10, counters)
        first, decoded = decode_generation_block(entry)
        assert first == 10 and decoded == counters

    def test_generation_block_capacity(self):
        encode_generation_block(0, [0] * GENERATION_BLOCK_COUNTERS)
        with pytest.raises(MetadataError):
            encode_generation_block(
                0, [0] * (GENERATION_BLOCK_COUNTERS + 1))

    def test_zone_reset_roundtrip(self):
        entry = encode_zone_reset(5, 12345, 9)
        assert entry.generation == 9
        assert decode_zone_reset(entry) == (5, 12345)

    def test_partial_parity_roundtrip(self):
        entry = encode_partial_parity(1000, 2000, 4, parity_offset=16,
                                      parity=b"\xcd" * 100)
        offset, parity = decode_partial_parity(entry)
        assert offset == 16 and parity == b"\xcd" * 100
        assert (entry.start_lba, entry.end_lba) == (1000, 2000)

    def test_op_wal_roundtrip(self):
        entry = encode_op_wal(3, b"resume-state")
        assert decode_op_wal(entry) == (3, b"resume-state")

    def test_typed_decoders_check_type(self):
        wrong = encode_zone_reset(0, 0, 1)
        with pytest.raises(MetadataError):
            decode_partial_parity(wrong)
        with pytest.raises(MetadataError):
            decode_generation_block(wrong)
        with pytest.raises(MetadataError):
            decode_op_wal(wrong)


def _xor_reference(buffers):
    """Pure-Python byte-loop XOR: the semantic ground truth the vectorized
    implementations are checked against."""
    out = bytearray(buffers[0])
    for buf in buffers[1:]:
        for i, byte in enumerate(buf):
            out[i] ^= byte
    return bytes(out)


class TestVectorizedParityEquivalence:
    @given(st.lists(st.binary(min_size=8, max_size=8), min_size=1,
                    max_size=6))
    def test_xor_buffers_matches_pure_python(self, buffers):
        assert xor_buffers(buffers) == _xor_reference(buffers)

    @given(st.lists(st.binary(min_size=0, max_size=32), min_size=0,
                    max_size=5), st.integers(32, 48))
    def test_stripe_parity_matches_padded_reference(self, units, su):
        padded = [unit + bytes(su - len(unit)) for unit in units]
        expected = _xor_reference(padded) if padded else bytes(su)
        assert stripe_parity(units, su) == expected

    def test_xor_buffers_single_copy(self):
        source = b"\x01\x02\x03"
        out = xor_buffers([source])
        assert out == source and out is not source

    def test_stripe_parity_empty_iterable_is_zeroes(self):
        assert stripe_parity([], 16) == bytes(16)

    def test_stripe_parity_short_tail_unit(self):
        # The final unit of a partial stripe is shorter than the SU; its
        # missing bytes XOR as zeroes.
        full = b"\xaa" * 8
        tail = b"\x0f" * 3
        expected = bytes(a ^ b for a, b in zip(full, tail + bytes(5)))
        assert stripe_parity([full, tail], 8) == expected

    def test_stripe_parity_accepts_memoryview_units(self):
        backing = bytes(range(16))
        view = memoryview(backing)[4:12]
        assert stripe_parity([view], 8) == backing[4:12]

    @given(st.binary(min_size=1, max_size=48), st.integers(0, 47))
    def test_delta_parity_fast_path_returns_chunk_bytes(self, chunk, start):
        su = 48
        start = start % (su - len(chunk)) if len(chunk) < su else 0
        if start + len(chunk) <= su:
            offset, delta = StripeBuffer.delta_parity(start, chunk, su)
            assert offset == start % su
            assert bytes(delta) == chunk
