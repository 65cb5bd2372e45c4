"""Reference model: the ZNS interface contract as a flat per-zone table.

Written from the contract RAIZN depends on (paper §2.1), not from
``repro.zns``, and imports nothing from it; only the error classes are
shared, so a refusal can be compared by class.  It is deliberately
naive: one record per zone, a ``bytearray`` of the bytes below each
write pointer, and the open/active limits recounted from the table on
every check.  ``tests/test_zns_contract.py`` drives it and a small
``ZNSDevice`` in lockstep and holds the device to it after every
command.  Do not optimise it; it is only ever compared against.

What it encodes:

* the zone state table — EMPTY, IMPLICIT_OPEN, EXPLICIT_OPEN, CLOSED,
  FULL, READ_ONLY, OFFLINE — and which command is legal from which state;
* sequential writes at the write pointer, and zone append placement;
* the open and active limits: a zone that must open beyond the open
  limit auto-closes the least-recently-written implicitly open zone
  (the lowest-numbered one on a tie), and fails when every open zone was
  opened explicitly;
* the durable prefix: a flush (or a write's preflush) records, per zone
  holding cached bytes, the write pointer it persists to; a FUA write
  records its own end; the record applies when the command completes,
  unless the zone was reset in between (DESIGN decision 13);
* power loss: each zone keeps its durable prefix plus any whole number
  of atomic write units of its cached tail, or the whole tail when it
  ends in a part unit; open zones come back closed, and no command in
  flight completes.

Every command takes the caller's ``tag``; an accepted one stays in
``inflight`` until :meth:`ReferenceZNS.complete` is called with its tag
(the device decides *when*, the model what completing does).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import (
    InvalidAddressError,
    OpenZoneLimitError,
    PowerLossError,
    ReadUnwrittenError,
    WritePointerViolation,
    ZoneStateError,
)
from repro.units import SECTOR_SIZE as SECTOR

EMPTY = "empty"
IMPLICIT_OPEN = "implicit_open"
EXPLICIT_OPEN = "explicit_open"
CLOSED = "closed"
FULL = "full"
READ_ONLY = "read_only"
OFFLINE = "offline"

OPEN = (IMPLICIT_OPEN, EXPLICIT_OPEN)
ACTIVE = (IMPLICIT_OPEN, EXPLICIT_OPEN, CLOSED)
WRITABLE = (EMPTY, IMPLICIT_OPEN, EXPLICIT_OPEN, CLOSED)

#: What a flush or a FUA write persists when it completes: zone index ->
#: (pointer to persist to, the zone's reset count when it was recorded).
Record = Dict[int, Tuple[int, int]]


class RefZone:
    """One zone's row of the table."""

    def __init__(self, start: int):
        self.start = start
        self.state = EMPTY
        self.wp = start
        self.dp = start
        self.last_write = 0.0
        self.finished = False       # FULL by ZONE_FINISH with room left
        self.resets = 0
        self.data = bytearray()     # the bytes in [start, wp)


class ReferenceZNS:
    """The contract for ``num_zones`` zones of ``zone_size`` bytes, of
    which the first ``zone_capacity`` are writable."""

    def __init__(self, num_zones: int, zone_size: int, zone_capacity: int,
                 max_open: int, max_active: int, atomic_write_bytes: int,
                 reset_limit: Optional[int] = None):
        self.zone_size = zone_size
        self.capacity = zone_capacity
        self.max_open = max_open
        self.max_active = max_active
        self.awu = atomic_write_bytes
        self.reset_limit = reset_limit
        self.zones = [RefZone(i * zone_size) for i in range(num_zones)]
        self.powered = True
        #: tag -> record, for every accepted command not yet completed.
        self.inflight: Dict[object, Optional[Record]] = {}

    # -- queries ------------------------------------------------------------

    def report(self) -> List[Tuple[int, int, int, int, str]]:
        """(index, start, capacity, write pointer, state) per zone."""
        return [(i, z.start, self.capacity, z.wp, z.state)
                for i, z in enumerate(self.zones)]

    def dirty(self) -> List[int]:
        """Zones holding bytes only in the write cache."""
        return [i for i, z in enumerate(self.zones) if z.wp > z.dp]

    def survivors(self, index: int) -> List[int]:
        """Every write pointer zone ``index`` may come back with."""
        z = self.zones[index]
        if z.wp <= z.dp:
            return [z.wp]
        states = list(range(z.dp, z.wp + 1, self.awu))
        if states[-1] != z.wp:
            states.append(z.wp)
        return states

    def survivor_space(self) -> Dict[int, List[int]]:
        return {i: self.survivors(i) for i in self.dirty()}

    def open_count(self) -> int:
        return sum(z.state in OPEN for z in self.zones)

    def active_count(self) -> int:
        return sum(z.state in ACTIVE for z in self.zones)

    # -- commands: each raises the error the device must refuse it with,
    # -- or accepts it under ``tag`` and returns what it yields --------------

    def _zone(self, offset: int) -> RefZone:
        if offset >= self.zone_size * len(self.zones):
            raise InvalidAddressError("offset outside the device")
        return self.zones[offset // self.zone_size]

    def _powered(self) -> None:
        if not self.powered:
            raise PowerLossError("powered off")

    def _aligned(self, offset: int, length: int) -> None:
        self._powered()
        if (offset | length) % SECTOR:
            raise InvalidAddressError("not sector aligned")

    def _open(self, z: RefZone, explicit: bool) -> None:
        """Open ``z`` within the limits, auto-closing the least-recently
        written implicitly open zone when the open limit is reached."""
        if z.state in OPEN:
            if explicit:
                z.state = EXPLICIT_OPEN
            return
        if z.state not in WRITABLE:
            raise ZoneStateError("zone not writable")
        if z.state not in ACTIVE and self.active_count() >= self.max_active:
            raise OpenZoneLimitError("active limit")
        if self.open_count() >= self.max_open:
            implicit = [c for c in self.zones if c.state == IMPLICIT_OPEN]
            if not implicit:
                raise OpenZoneLimitError("open limit, nothing to auto-close")
            min(implicit, key=lambda c: c.last_write).state = CLOSED
        z.state = EXPLICIT_OPEN if explicit else IMPLICIT_OPEN

    def _flush_record(self) -> Record:
        return {i: (self.zones[i].wp, self.zones[i].resets)
                for i in self.dirty()}

    def _place(self, tag, z: RefZone, data: bytes, fua: bool,
               preflush: bool, now: float) -> None:
        """Accept a validated write or append of ``data`` at ``z``'s write
        pointer, in an open zone."""
        record = self._flush_record() if preflush else None
        z.data += data
        z.wp += len(data)
        z.last_write = now
        if z.wp == z.start + self.capacity:
            z.state = FULL
        if fua:
            record = dict(record or {})
            record[self.zones.index(z)] = (z.wp, z.resets)
        self.inflight[tag] = record

    def write(self, tag, offset: int, data: bytes, fua: bool,
              preflush: bool, now: float) -> None:
        self._aligned(offset, len(data))
        z = self._zone(offset)
        if z.state not in WRITABLE:
            raise ZoneStateError("zone not writable")
        if offset != z.wp:
            raise WritePointerViolation("not at the write pointer")
        if offset + len(data) > z.start + self.capacity:
            raise InvalidAddressError("past the zone's capacity")
        self._open(z, explicit=False)
        self._place(tag, z, data, fua, preflush, now)

    def append(self, tag, offset: int, data: bytes, fua: bool,
               preflush: bool, now: float) -> int:
        """A ZONE_APPEND to the zone starting at ``offset``; returns
        where the data landed."""
        self._aligned(offset, len(data))
        if offset % self.zone_size:
            raise InvalidAddressError("append not at a zone start")
        z = self._zone(offset)
        if z.state not in WRITABLE:
            raise ZoneStateError("zone not writable")
        if len(data) > z.start + self.capacity - z.wp:
            raise ZoneStateError("append exceeds the room left")
        self._open(z, explicit=False)
        placed = z.wp
        self._place(tag, z, data, fua, preflush, now)
        return placed

    def read(self, tag, offset: int, length: int) -> bytes:
        self._aligned(offset, length)
        z = self._zone(offset)
        end = offset + length
        if end > z.start + self.zone_size:
            raise InvalidAddressError("read crosses a zone boundary")
        if z.state == OFFLINE:
            raise ZoneStateError("zone offline")
        if end > z.wp:
            raise ReadUnwrittenError("read past the write pointer")
        self.inflight[tag] = None
        return bytes(z.data[offset - z.start:end - z.start])

    def flush(self, tag) -> None:
        self._powered()
        self.inflight[tag] = self._flush_record()

    def reset(self, tag, offset: int) -> None:
        self._powered()
        if offset % self.zone_size:
            raise InvalidAddressError("reset not at a zone start")
        z = self._zone(offset)
        if self.reset_limit is not None and z.resets >= self.reset_limit:
            raise ZoneStateError("zone worn out")
        if z.state in (READ_ONLY, OFFLINE):
            raise ZoneStateError("zone cannot be reset")
        z.wp = z.dp = z.start
        z.data = bytearray()
        z.finished = False
        z.resets += 1
        worn = self.reset_limit is not None and z.resets >= self.reset_limit
        z.state = READ_ONLY if worn else EMPTY
        self.inflight[tag] = None

    def finish(self, tag, offset: int) -> None:
        self._powered()
        z = self._zone(offset)
        if z.state != FULL:
            if z.state not in WRITABLE:
                raise ZoneStateError("cannot finish")
            z.finished = z.wp < z.start + self.capacity
            z.state = FULL
        self.inflight[tag] = None

    def open(self, tag, offset: int) -> None:
        self._powered()
        self._open(self._zone(offset), explicit=True)
        self.inflight[tag] = None

    def close(self, tag, offset: int) -> None:
        self._powered()
        z = self._zone(offset)
        if z.state != CLOSED and z.state not in OPEN:
            raise ZoneStateError("cannot close")
        if z.state in OPEN:
            z.state = EMPTY if z.wp == z.start else CLOSED
        self.inflight[tag] = None

    def end_of_life(self, index: int, state: str) -> None:
        """Zone ``index`` goes READ_ONLY or OFFLINE by itself."""
        self.zones[index].state = state

    # -- completion and power loss -----------------------------------------

    def complete(self, tag) -> None:
        """The command accepted under ``tag`` completed: persist each zone
        its record names to the recorded pointer, unless the zone was
        reset since."""
        for index, (end, resets) in (self.inflight.pop(tag) or {}).items():
            z = self.zones[index]
            if z.resets == resets:
                z.dp = max(z.dp, min(end, z.wp))

    def power_fail_to(self, survivors: Dict[int, int]) -> None:
        """Cut power: zone ``index`` keeps its write pointer at
        ``survivors[index]`` (at its durable pointer when not named)."""
        for index, survivor in survivors.items():
            if survivor not in self.survivors(index):
                raise InvalidAddressError("not a legal survivor")
        self.powered = False
        self.inflight.clear()
        for index, z in enumerate(self.zones):
            self._settle(z, survivors.get(index, z.dp))

    def _settle(self, z: RefZone, survivor: int) -> None:
        if survivor < z.wp:
            del z.data[survivor - z.start:]
            z.wp = survivor
        z.dp = survivor
        if z.state in (READ_ONLY, OFFLINE):
            return
        end = z.start + self.capacity
        if z.state == FULL and not z.finished and z.wp == end:
            return
        z.finished = False
        if z.wp == z.start:
            z.state = EMPTY
        elif z.wp == end:
            z.state = FULL
        else:
            z.state = CLOSED

    def power_on(self) -> None:
        self.powered = True
