"""ZNS specification constants: zone states and zone descriptors.

Follows the NVMe ZNS state machine described in paper §2.1: a zone starts
EMPTY, transitions to an open state when written, becomes FULL when its
last writable block is written (or on an explicit finish), and returns to
EMPTY on reset.  READ_ONLY and OFFLINE are failure states entered when
enough erase blocks die.
"""

from __future__ import annotations

import dataclasses

from ..members import Members


class ZoneState(Members):
    """NVMe ZNS zone states (subset sufficient for RAIZN)."""

    EMPTY = "empty"
    IMPLICIT_OPEN = "implicit_open"
    EXPLICIT_OPEN = "explicit_open"
    CLOSED = "closed"
    FULL = "full"
    READ_ONLY = "read_only"
    OFFLINE = "offline"

    @property
    def is_open(self) -> bool:
        return self in (ZoneState.IMPLICIT_OPEN, ZoneState.EXPLICIT_OPEN)

    @property
    def is_active(self) -> bool:
        """Open or closed: holding device resources (§2.1)."""
        return self.is_open or self is ZoneState.CLOSED

    @property
    def is_writable(self) -> bool:
        return self in (
            ZoneState.EMPTY,
            ZoneState.IMPLICIT_OPEN,
            ZoneState.EXPLICIT_OPEN,
            ZoneState.CLOSED,
        )


#: Open-zone limit of the paper's ZN540 devices ("for our devices is 14").
DEFAULT_MAX_OPEN_ZONES = 14
#: Active-zone limit; the ZN540 exposes the same bound for active zones.
DEFAULT_MAX_ACTIVE_ZONES = 14


@dataclasses.dataclass
class ZoneInfo:
    """Snapshot of one zone, as returned by a zone report."""

    index: int
    start: int          # first byte of the zone (zone_size stride)
    capacity: int       # writable bytes (<= zone size)
    write_pointer: int  # absolute byte offset of the next writable byte
    state: ZoneState

    @property
    def writable_end(self) -> int:
        """One past the last writable byte of the zone."""
        return self.start + self.capacity

    @property
    def written_bytes(self) -> int:
        return self.write_pointer - self.start
