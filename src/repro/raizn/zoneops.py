"""Logical zone management (paper §2.1, §4.3).

A logical RESET, FINISH, OPEN or CLOSE becomes commands on its members'
physical zones.  :meth:`ZoneOps.members` decides, for all of them (and
for the auto-close past the logical open-zone limit, and for mount
completing an interrupted reset), which members get one and what each
member's ``phys`` mirror says afterwards.  The logical open-zone budget is
the device's own kind (:class:`~repro.zns.zone.OpenZoneBudget`).
"""

from __future__ import annotations

from typing import List

from ..block.bio import Bio, Op
from ..errors import (DeviceError, InvalidAddressError, RaiznError,
                      ZoneStateError)
from ..sim import Event
from ..zns.spec import ZoneState
from ..zns.zone import OpenZoneBudget
from .mdzone import MetadataRole
from .metadata import encode_zone_reset
from .zonedesc import LogicalZoneDesc


class ZoneOps:
    """The volume's logical zone commands and its open-zone budget."""

    def __init__(self, volume, max_open_zones: int):
        self.volume = volume
        self.sim = volume.sim
        self.zones = volume.zone_descs
        # The members hold an active zone's device resources; the volume
        # sets no active limit of its own.
        self.budget = OpenZoneBudget("logical", self.zones, max_open_zones)

    def start(self, bio: Bio, done: Event) -> None:
        """Admit one logical zone command.  OPEN and CLOSE are refused
        here, before any member is sent anything, when the logical zone's
        state does not allow them."""
        volume = self.volume
        op = bio.op
        desc = self.zones[volume.mapper.zone_of(bio.offset)]
        if op is Op.ZONE_RESET:
            if bio.offset % volume.zone_capacity:
                raise InvalidAddressError(
                    f"zone reset offset {bio.offset:#x} is not a logical "
                    "zone start")
            if desc.reset_in_progress:
                volume._reset_pending.setdefault(desc.zone, []).append(
                    (bio, done))
                return
            desc.reset_in_progress = True
            # §4.3: the reset pointer orders the reset against in-flight
            # writes.
            desc.reset_pointer = desc.write_pointer
            self.sim.process(self._run_reset(bio, done, desc))
            return
        prior = desc.state
        if op is Op.ZONE_OPEN:
            # Opened here, in the step that checks the limit, so two OPENs
            # in flight cannot both take the last slot.
            self.open(desc, explicit=True)
        elif op is Op.ZONE_CLOSE:
            self.budget.check_close(desc)
        elif op is not Op.ZONE_FINISH:
            raise ZoneStateError(f"unsupported logical op: {op}")
        self.sim.process(self._run(bio, done, desc, prior))

    def open(self, desc: LogicalZoneDesc, explicit: bool = False) -> None:
        """Open a logical zone within the budget; the members of a zone
        auto-closed to make room are closed behind it."""
        victim = self.budget.open_zone(desc, explicit)
        if victim is not None:
            self.members(victim.zone, Op.ZONE_CLOSE)

    def _complete(self, bio: Bio, done: Event) -> None:
        self.volume.stats.account(bio)
        bio.complete_time = self.sim.now
        done.succeed(bio)

    def members(self, zone: int, op: Op) -> List[Event]:
        """Send ``op`` to the members of logical zone ``zone`` that must
        get it; set each member's mirror to what the command leaves.

        A worn member (READ_ONLY or OFFLINE) gets nothing and its mirror
        stays frozen.  RESET empties and FINISH fills every other member.
        OPEN reaches each member short of FULL; CLOSE each that is open —
        holding data, or any when the zone was opened explicitly.  An
        unreachable member (failed, removed) gets no command but its
        mirror moves all the same: a replacement rebuilt there starts
        from it.
        """
        volume = self.volume
        start = zone * volume.phys_zone_size
        end = start + volume.phys_zone_capacity
        explicit = self.zones[zone].state is ZoneState.EXPLICIT_OPEN
        events = []
        for device, row in enumerate(volume.phys):
            pdesc = row[zone]
            state = pdesc.state
            if state is ZoneState.READ_ONLY or state is ZoneState.OFFLINE:
                continue
            if op is Op.ZONE_RESET:
                pdesc.write_pointer = start
                pdesc.state = ZoneState.EMPTY
            elif op is Op.ZONE_FINISH:
                pdesc.state = ZoneState.FULL
            elif state is ZoneState.FULL or pdesc.write_pointer == end or (
                    op is Op.ZONE_CLOSE and not explicit
                    and pdesc.write_pointer == start):
                continue
            if volume.devices[device] is not None and \
                    not volume.failed[device]:
                events.append(self._tolerant_zone_op(device,
                                                     Bio(op, offset=start)))
        return events

    def _tolerant_zone_op(self, device: int, bio: Bio) -> Event:
        """Submit a member command that tolerates a wear-out race: a
        ``ZoneStateError`` means the zone went READ_ONLY/OFFLINE since
        the mirror was read — it is immutable, so the command's intent is
        moot; resync the mirror and count it a success."""
        volume = self.volume
        bio.errors_as_status = True
        outcome = Event(self.sim)
        event = volume.devices[device].submit(bio)

        def on_done(ev: Event) -> None:
            completed = ev.value
            exc = completed.error
            if exc is None:
                outcome.succeed(completed)
            elif isinstance(exc, ZoneStateError):
                volume.health.wear_errors += 1
                volume._sync_phys_desc(
                    device, completed.offset // volume.phys_zone_size)
                outcome.succeed(completed)
            else:
                outcome.fail(exc)
        event.add_callback(on_done)
        return outcome

    # ------------------------------------------------------------------ reset

    def _run_reset(self, bio: Bio, done: Event, desc: LogicalZoneDesc):
        volume = self.volume
        zone = desc.zone
        try:
            # Write-ahead log the reset intent to the device holding the
            # zone's first stripe unit and the device with the parity of
            # the first stripe (§5.2), persisted before any reset.
            layout = volume.mapper.stripe_layout(zone, 0)
            wal_devices = {layout.data_devices[0], layout.parity_device}
            wal_events = []
            for device in wal_devices:
                if volume._device_available(device, zone):
                    entry = encode_zone_reset(zone, desc.reset_pointer or 0,
                                              volume.generation[zone])
                    wal_events.append(volume.mdzones[device].append_async(
                        MetadataRole.GENERAL, entry, fua=True))
            yield self.sim.all_of(wal_events)
            # Worn-out members cannot be reset by spec and keep their
            # frozen state: post-reset writes landing on them redirect
            # through the relocation path.
            yield self.sim.all_of(self.members(zone, Op.ZONE_RESET))
            # Bump and persist the generation counter, invalidating every
            # metadata log entry that referenced the old zone contents.
            # The persist must be FUA: if the new counter were lost in a
            # crash, the (FUA'd) reset WAL entry would still match the old
            # generation and recovery would replay the reset — discarding
            # any acknowledged post-reset writes.
            volume.generation[zone] += 1
            if volume.generation[zone] >= 2 ** 64 - 1:
                # §4.3: the volume goes read-only and requires maintenance.
                volume.read_only = True
            gen_events = volume._persist_generation(fua=True)
            self.budget.set_state(desc, ZoneState.EMPTY)
            volume.relocations.drop_zone(desc.start_lba, desc.capacity)
            volume.relocations.rebuild_counters(
                lambda unit: volume.mapper.zone_of(unit.su_lba))
            for key in [k for k in volume.relocated_parity if k[0] == zone]:
                del volume.relocated_parity[key]
            desc.reset()
            # The zone stays blocked until the new generation is durable:
            # a write admitted before then would overtake the queued ones.
            yield self.sim.all_of(gen_events)
        except DeviceError as exc:
            desc.reset_in_progress = False
            done.fail(exc)
            # What queued behind the reset runs against the un-reset zone
            # and succeeds or fails on its own.
            self._drain_reset_pending(zone)
            return
        desc.reset_in_progress = False
        self._complete(bio, done)
        self._drain_reset_pending(zone)

    def _drain_reset_pending(self, zone: int) -> None:
        volume = self.volume
        for queued_bio, queued_done in volume._reset_pending.pop(zone, []):
            try:
                volume._dispatch(queued_bio, queued_done)
            except (RaiznError, DeviceError) as exc:
                self.sim.schedule(0.0, queued_done.fail, exc)

    # ------------------------------------------------------------------ finish/open/close

    def _run(self, bio: Bio, done: Event, desc: LogicalZoneDesc,
             prior: ZoneState):
        op = bio.op
        try:
            events = self._seal_tail(desc) if op is Op.ZONE_FINISH else []
            events.extend(self.members(desc.zone, op))
            yield self.sim.all_of(events)
        except DeviceError as exc:
            if op is Op.ZONE_OPEN and prior is not ZoneState.EXPLICIT_OPEN \
                    and desc.state is ZoneState.EXPLICIT_OPEN:
                # A member refused: the logical zone is not opened after all.
                if prior is ZoneState.IMPLICIT_OPEN:
                    self.budget.set_state(desc, prior)
                else:
                    self.budget.close_zone(
                        desc, desc.write_pointer == desc.start_lba)
            done.fail(exc)
            return
        if op is Op.ZONE_FINISH:
            self.budget.set_state(desc, ZoneState.FULL)
        elif op is Op.ZONE_CLOSE:
            self.budget.close_zone(desc, desc.write_pointer == desc.start_lba)
        self._complete(bio, done)

    def _seal_tail(self, desc: LogicalZoneDesc) -> List[Event]:
        """Write the incomplete tail stripe's parity, so degraded reads
        work without consulting partial parity logs, and drop the tail."""
        volume = self.volume
        zone = desc.zone
        events = []
        buffer = desc.tail
        if buffer is not None and buffer.fill_end and not buffer.full:
            device = volume.mapper.stripe_layout(zone, buffer.stripe) \
                .parity_device
            if volume._device_available(device, zone):
                parity = buffer.full_parity()
                pba = zone * volume.phys_zone_size + \
                    buffer.stripe * volume.config.stripe_unit_bytes
                pdesc = volume.phys[device][zone]
                if pdesc.write_pointer == pba and \
                        pdesc.state is not ZoneState.READ_ONLY and \
                        pdesc.state is not ZoneState.OFFLINE:
                    pdesc.write_pointer = pba + len(parity)
                    events.append(volume.devices[device].submit(
                        Bio.write(pba, parity)))
                else:
                    # Conflicting parity PBA (or a worn-out parity zone):
                    # the delta logs already cover the tail stripe; keep
                    # the sealed parity in memory (§5.2).
                    volume.relocated_parity[(zone, buffer.stripe)] = parity
        desc.drop_tail()
        return events
