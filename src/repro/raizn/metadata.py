"""On-disk metadata log format (paper §4.3, Figure 3).

Every persisted metadata log entry starts with a 4 KiB header sector:

* bytes 0–4   magic (``RAIZ``)
* bytes 4–8   metadata type (high bit = checkpoint flag, set by the
  metadata garbage collector to distinguish checkpointed entries from
  normal updates)
* bytes 8–16  start LBA
* bytes 16–24 end LBA
* bytes 24–32 generation counter of the logical zone containing the LBA
* bytes 32–4096 inline metadata

The first 8 bytes of the inline area hold the external payload length;
small metadata (superblock, zone reset logs, generation counters) lives
entirely in the remaining inline bytes, while stripe-unit-sized payloads
(partial parity, relocated stripe units) follow the header in
sector-padded form — matching Table 1's "4 KiB (header) + ≤64 KiB
(stripe unit)" accounting.

Entries are written with zone appends and parsed back by scanning a
metadata zone from its start to its write pointer.  A torn entry is a
truncated suffix the parser detects by length — until an entry appended
behind it is read back as its payload.  Entries carry no checksum
(ROADMAP item 6), so the torn-tail guard is ``DeviceMetadataZones.torn``.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from typing import List, Optional, Tuple

from ..errors import MetadataError
from ..units import SECTOR_SIZE

#: "RAIZ" — the fixed magic identifying the start of a metadata entry.
MAGIC = 0x5241495A

#: Set in the type field for entries written by the metadata garbage
#: collector's checkpoint pass (§4.3).
CHECKPOINT_FLAG = 0x8000_0000

_HEADER = struct.Struct("<IIQQQQ")  # magic, type, start, end, gen, payload_len
HEADER_BYTES = 32 + 8  # fixed header + payload length word
INLINE_CAPACITY = SECTOR_SIZE - HEADER_BYTES


class MetadataType(enum.IntEnum):
    """Metadata entry types (Table 1 plus the maintenance WAL)."""

    SUPERBLOCK = 1
    GENERATION = 2
    ZONE_RESET_LOG = 3
    PARTIAL_PARITY = 4
    RELOCATED_SU = 5
    #: Write-ahead log for multi-step maintenance operations (metadata
    #: zone rewrite after too many relocations, generation counter
    #: maintenance) so they can resume after power loss (§4.3, §5.2).
    OP_WAL = 6


@dataclasses.dataclass
class MetadataEntry:
    """One decoded (or to-be-encoded) metadata log entry."""

    mdtype: MetadataType
    start_lba: int
    end_lba: int
    generation: int
    inline: bytes = b""
    payload: bytes = b""
    checkpoint: bool = False

    def __post_init__(self) -> None:
        if len(self.inline) > INLINE_CAPACITY:
            raise MetadataError(
                f"inline metadata of {len(self.inline)} bytes exceeds the "
                f"{INLINE_CAPACITY}-byte inline area")

    @property
    def total_bytes(self) -> int:
        """On-disk footprint: header sector + sector-padded payload."""
        payload_len = len(self.payload)
        return SECTOR_SIZE + -(-payload_len // SECTOR_SIZE) * SECTOR_SIZE

    def encode(self) -> bytes:
        """Serialize to the on-disk byte layout.

        ``payload`` may be any readable buffer (the write path hands over
        memoryview slices of the caller's data); join() materializes it.
        """
        type_field = int(self.mdtype)
        if self.checkpoint:
            type_field |= CHECKPOINT_FLAG
        payload_len = len(self.payload)
        header = _HEADER.pack(MAGIC, type_field, self.start_lba, self.end_lba,
                              self.generation, payload_len)
        pad = payload_len % SECTOR_SIZE
        return b"".join((
            header, self.inline,
            bytes(SECTOR_SIZE - HEADER_BYTES - len(self.inline)),
            self.payload,
            bytes(SECTOR_SIZE - pad) if pad else b"",
        ))

    @classmethod
    def decode(cls, buffer: bytes, offset: int = 0) -> Optional[Tuple["MetadataEntry", int]]:
        """Decode one entry at ``offset``; returns ``(entry, consumed)``.

        Returns ``None`` when no valid entry starts at ``offset`` — either
        the magic is absent (end of log) or the entry is truncated (a torn
        tail from power loss, which recovery must discard).
        """
        if offset + SECTOR_SIZE > len(buffer):
            return None
        magic, type_field, start, end, gen, payload_len = _HEADER.unpack_from(
            buffer, offset)
        if magic != MAGIC:
            return None
        checkpoint = bool(type_field & CHECKPOINT_FLAG)
        try:
            mdtype = MetadataType(type_field & ~CHECKPOINT_FLAG)
        except ValueError:
            return None
        padded = -(-payload_len // SECTOR_SIZE) * SECTOR_SIZE
        consumed = SECTOR_SIZE + padded
        if offset + consumed > len(buffer):
            return None  # truncated entry: payload did not fully persist
        inline = bytes(buffer[offset + HEADER_BYTES:offset + SECTOR_SIZE])
        payload = bytes(buffer[offset + SECTOR_SIZE:
                               offset + SECTOR_SIZE + payload_len])
        entry = cls(mdtype=mdtype, start_lba=start, end_lba=end,
                    generation=gen, inline=inline, payload=payload,
                    checkpoint=checkpoint)
        return entry, consumed

    @staticmethod
    def scan(buffer: bytes) -> List["MetadataEntry"]:
        """Parse every valid entry from the start of ``buffer``.

        Stops at the first position that does not hold a valid, complete
        entry (zero-fill, a torn tail, or reset space).
        """
        entries = []
        offset = 0
        while True:
            decoded = MetadataEntry.decode(buffer, offset)
            if decoded is None:
                break
            entry, consumed = decoded
            entries.append(entry)
            offset += consumed
        return entries


# -- typed payload helpers ------------------------------------------------------

_SUPERBLOCK = struct.Struct("<IIQQQQQQ16s")


@dataclasses.dataclass(frozen=True)
class Superblock:
    """Array parameters persisted to every device (§4.3).

    ``device_index`` is the per-device slot assignment, letting mount
    reorder devices presented in any order.
    """

    version: int
    num_data: int
    num_parity: int
    stripe_unit_bytes: int
    num_zones: int
    zone_capacity: int
    num_metadata_zones: int
    device_index: int
    array_uuid: bytes

    def to_entry(self) -> MetadataEntry:
        inline = _SUPERBLOCK.pack(
            self.version, self.num_data, self.num_parity,
            self.stripe_unit_bytes, self.num_zones, self.zone_capacity,
            self.num_metadata_zones, self.device_index, self.array_uuid)
        return MetadataEntry(MetadataType.SUPERBLOCK, 0, 0, 0, inline=inline)

    @classmethod
    def from_entry(cls, entry: MetadataEntry) -> "Superblock":
        if entry.mdtype is not MetadataType.SUPERBLOCK:
            raise MetadataError(f"not a superblock entry: {entry.mdtype}")
        fields = _SUPERBLOCK.unpack_from(entry.inline)
        return cls(version=fields[0], num_data=fields[1], num_parity=fields[2],
                   stripe_unit_bytes=fields[3], num_zones=fields[4],
                   zone_capacity=fields[5], num_metadata_zones=fields[6],
                   device_index=fields[7], array_uuid=fields[8])


#: Generation counters per GENERATION entry.  The paper fits 508 8-byte
#: counters after a 32-byte header; our layout spends 8 further bytes on
#: the uniform payload-length word, leaving 507.
GENERATION_BLOCK_COUNTERS = INLINE_CAPACITY // 8


def encode_generation_block(first_zone: int, counters: List[int]) -> MetadataEntry:
    """A GENERATION entry for counters of zones [first_zone, ...)."""
    if len(counters) > GENERATION_BLOCK_COUNTERS:
        raise MetadataError(
            f"too many counters for one block: {len(counters)}")
    inline = struct.pack(f"<{len(counters)}Q", *counters)
    # start/end LBA carry the zone-index range, not byte addresses.
    return MetadataEntry(MetadataType.GENERATION, first_zone,
                         first_zone + len(counters), 0, inline=inline)


def decode_generation_block(entry: MetadataEntry) -> Tuple[int, List[int]]:
    """Inverse of :func:`encode_generation_block`."""
    if entry.mdtype is not MetadataType.GENERATION:
        raise MetadataError(f"not a generation entry: {entry.mdtype}")
    count = entry.end_lba - entry.start_lba
    counters = list(struct.unpack_from(f"<{count}Q", entry.inline))
    return entry.start_lba, counters


_ZONE_RESET = struct.Struct("<QQ")


def encode_zone_reset(zone: int, reset_pointer: int,
                      generation: int) -> MetadataEntry:
    """Zone-reset write-ahead log entry (§5.2)."""
    inline = _ZONE_RESET.pack(zone, reset_pointer)
    return MetadataEntry(MetadataType.ZONE_RESET_LOG, reset_pointer,
                         reset_pointer, generation, inline=inline)


def decode_zone_reset(entry: MetadataEntry) -> Tuple[int, int]:
    """Returns ``(zone_index, reset_pointer_lba)``."""
    if entry.mdtype is not MetadataType.ZONE_RESET_LOG:
        raise MetadataError(f"not a zone reset entry: {entry.mdtype}")
    zone, reset_pointer = _ZONE_RESET.unpack_from(entry.inline)
    return zone, reset_pointer


_PARTIAL_PARITY = struct.Struct("<QQ")

#: Zero fill for the unused inline area of a partial-parity entry
#: (16 inline bytes: parity offset + length).
_PP_INLINE_PAD = bytes(SECTOR_SIZE - HEADER_BYTES - _PARTIAL_PARITY.size)


def encode_partial_parity_bytes(start_lba: int, end_lba: int,
                                generation: int, parity_offset: int,
                                parity) -> bytes:
    """On-disk bytes of a partial parity entry, skipping the entry object.

    Byte-identical to ``encode_partial_parity(...).encode()`` — the write
    path logs one of these per partial-stripe write, and the dataclass
    round trip (allocation, ``__post_init__`` validation, generic pad
    construction) showed up in datapath profiles.  ``parity`` may be any
    readable buffer; ``join`` materializes it.
    """
    payload_len = len(parity)
    header = _HEADER.pack(MAGIC, MetadataType.PARTIAL_PARITY, start_lba,
                          end_lba, generation, payload_len)
    pad = payload_len % SECTOR_SIZE
    return b"".join((
        header, _PARTIAL_PARITY.pack(parity_offset, payload_len),
        _PP_INLINE_PAD, parity,
        bytes(SECTOR_SIZE - pad) if pad else b""))


def encode_partial_parity(start_lba: int, end_lba: int, generation: int,
                          parity_offset: int, parity: bytes,
                          checkpoint: bool = False) -> MetadataEntry:
    """Partial parity entry (§5.1).

    ``start_lba``/``end_lba`` delimit the logical write this delta covers;
    ``parity_offset`` is where the delta bytes sit inside the stripe's
    parity SU.  XOR-ing every entry of a stripe (any order) with the
    surviving data units reconstructs a missing unit.
    """
    inline = _PARTIAL_PARITY.pack(parity_offset, len(parity))
    return MetadataEntry(MetadataType.PARTIAL_PARITY, start_lba, end_lba,
                         generation, inline=inline, payload=parity,
                         checkpoint=checkpoint)


def decode_partial_parity(entry: MetadataEntry) -> Tuple[int, bytes]:
    """Returns ``(parity_offset_in_su, parity_delta_bytes)``."""
    if entry.mdtype is not MetadataType.PARTIAL_PARITY:
        raise MetadataError(f"not a partial parity entry: {entry.mdtype}")
    parity_offset, parity_len = _PARTIAL_PARITY.unpack_from(entry.inline)
    return parity_offset, entry.payload[:parity_len]


def encode_relocated_su(su_lba: int, su_bytes: bytes, generation: int,
                        checkpoint: bool = False) -> MetadataEntry:
    """Relocated stripe unit entry: mapping plus the unit's data (§5.2)."""
    return MetadataEntry(MetadataType.RELOCATED_SU, su_lba,
                         su_lba + len(su_bytes), generation,
                         payload=su_bytes, checkpoint=checkpoint)


def encode_op_wal(opcode: int, description: bytes,
                  generation: int = 0) -> MetadataEntry:
    """Maintenance-operation WAL entry; ``description`` is opaque state."""
    inline = struct.pack("<Q", opcode) + description
    return MetadataEntry(MetadataType.OP_WAL, 0, 0, generation, inline=inline)


def decode_op_wal(entry: MetadataEntry) -> Tuple[int, bytes]:
    """Returns ``(opcode, description_bytes)``."""
    if entry.mdtype is not MetadataType.OP_WAL:
        raise MetadataError(f"not an OP_WAL entry: {entry.mdtype}")
    (opcode,) = struct.unpack_from("<Q", entry.inline)
    return opcode, entry.inline[8:]
