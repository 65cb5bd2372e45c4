"""Per-zone bookkeeping for the simulated ZNS device, and the open-zone
budget it shares with the RAIZN volume's logical zones."""

from __future__ import annotations

from typing import Optional

from ..errors import OpenZoneLimitError, ZoneStateError
from .spec import ZoneInfo, ZoneState


class Zone:
    """Mutable state of one physical zone.

    ``write_pointer`` tracks the next writable byte; ``durable_pointer``
    tracks the prefix of the zone that would survive power loss (ZNS
    guarantees per-zone sequential persistence order, paper §1).  Data
    between the two lives only in the device write cache.
    """

    __slots__ = (
        "index",
        "start",
        "zone_size",
        "capacity",
        "state",
        "write_pointer",
        "durable_pointer",
        "last_write_time",
        "finished_by_command",
    )

    def __init__(self, index: int, start: int, zone_size: int, capacity: int):
        if capacity > zone_size:
            raise ValueError(
                f"zone capacity {capacity} exceeds zone size {zone_size}")
        self.index = index
        self.start = start
        self.zone_size = zone_size
        self.capacity = capacity
        self.state = ZoneState.EMPTY
        self.write_pointer = start
        self.durable_pointer = start
        self.last_write_time = 0.0
        #: True when the zone became FULL via an explicit finish command
        #: with unwritten capacity remaining.
        self.finished_by_command = False

    @property
    def writable_end(self) -> int:
        return self.start + self.capacity

    @property
    def remaining(self) -> int:
        """Writable bytes left before the zone is full."""
        return self.writable_end - self.write_pointer

    def info(self) -> ZoneInfo:
        """An immutable snapshot for zone reports."""
        return ZoneInfo(
            index=self.index,
            start=self.start,
            capacity=self.capacity,
            write_pointer=self.write_pointer,
            state=self.state,
        )

    def reset(self) -> None:
        """Rewind the zone's pointers (a zone reset's effect; the device
        moves its state)."""
        if self.state in (ZoneState.READ_ONLY, ZoneState.OFFLINE):
            raise ZoneStateError(
                f"zone {self.index} cannot be reset from {self.state.value}")
        self.write_pointer = self.start
        self.durable_pointer = self.start
        self.finished_by_command = False


class OpenZoneBudget:
    """The §2.1 zone state machine's open and active limits over a list
    of zones: one implementation for the ZNS device over its physical
    zones and for the RAIZN volume over its logical ones.

    A zone needs ``state`` and ``last_write_time``; error messages name it
    by its place in ``zones``.  Every state change goes through
    :meth:`set_state`, which keeps the counts.  ``max_active`` None sets
    no active limit.
    """

    def __init__(self, name: str, zones: list, max_open: int,
                 max_active: Optional[int] = None):
        self.name = name
        self.zones = zones
        self.max_open = max_open
        self.max_active = max_active
        self.recount()

    def recount(self) -> None:
        self.open_count = sum(zone.state.is_open for zone in self.zones)
        self.active_count = sum(zone.state.is_active for zone in self.zones)

    def set_state(self, zone, new_state: ZoneState) -> None:
        old = zone.state
        if old is new_state:
            return
        self.open_count += int(new_state.is_open) - int(old.is_open)
        self.active_count += int(new_state.is_active) - int(old.is_active)
        zone.state = new_state

    def check_writable(self, zone) -> None:
        if not zone.state.is_writable:
            raise ZoneStateError(
                f"{self.name}: zone {self.zones.index(zone)} not writable "
                f"(state={zone.state.value})")

    def check_open(self, zone):
        """Refuse to open ``zone`` (ZONE_OPEN, or a write into it) as a
        device would: it is not writable, or the limits leave no room.
        Returns the zone opening it would auto-close, or None.

        Real devices auto-close the least-recently-written implicitly
        open zone to make room; if every open zone is explicitly open the
        open fails, which is what the limit in the paper refers to.
        """
        if zone.state.is_open:
            return None
        self.check_writable(zone)
        if self.max_active is not None and not zone.state.is_active and \
                self.active_count >= self.max_active:
            raise OpenZoneLimitError(
                f"{self.name}: active zone limit {self.max_active} reached")
        if self.open_count < self.max_open:
            return None
        candidates = [z for z in self.zones
                      if z.state is ZoneState.IMPLICIT_OPEN]
        if not candidates:
            raise OpenZoneLimitError(
                f"{self.name}: open zone limit {self.max_open} reached "
                "and no implicitly-open zone to evict")
        return min(candidates, key=lambda z: z.last_write_time)

    def open_zone(self, zone, explicit: bool):
        """Open ``zone`` within the limits; returns the zone auto-closed
        to make room, or None."""
        target = ZoneState.EXPLICIT_OPEN if explicit else ZoneState.IMPLICIT_OPEN
        if zone.state.is_open:
            if explicit and zone.state is ZoneState.IMPLICIT_OPEN:
                self.set_state(zone, target)
            return None
        victim = self.check_open(zone)
        if victim is not None:
            self.set_state(victim, ZoneState.CLOSED)
        self.set_state(zone, target)
        return victim

    def check_close(self, zone) -> None:
        if zone.state is not ZoneState.CLOSED and not zone.state.is_open:
            raise ZoneStateError(
                f"{self.name}: cannot close zone {self.zones.index(zone)} "
                f"from {zone.state.value}")

    def close_zone(self, zone, empty: bool) -> None:
        """An open zone closes, to EMPTY when it holds nothing; a closed
        one stays closed."""
        self.check_close(zone)
        if zone.state.is_open:
            self.set_state(zone,
                           ZoneState.EMPTY if empty else ZoneState.CLOSED)
