"""The logical write path of a RAIZN volume (paper §5.1–§5.3).

A write is validated against its logical zone, split by a cached,
stripe-relative plan, absorbed into the zone's tail stripe buffer and emitted
in ONE loop: every data piece goes to its device in place, into the
metadata log (a §5.2 conflict or a worn physical zone) or nowhere (its
device is unavailable and parity covers it); a stripe that completes
gets its full parity (off the commit path of a FUA write shorter than a
unit, acknowledged on its logged delta), one that does not gets a
partial-parity log entry (§5.1).  A FUA/PREFLUSH write then flushes the
devices that still hold non-persisted stripe units below it (§5.3), and
``Op.FLUSH`` flushes the devices that accepted a volatile write since
their last flush.  A FUA piece that ends a stripe unit marks that unit
persisted when its own device command completes.

One callback chain serves every piece kind.  A pooled :class:`_WriteJoin`
counts a logical bio's children — device writes, log appends, then device
flushes; a :class:`_WritePiece` rides each device write's ``bio.wctx``
and is completed by the one :meth:`WritePath._attempted`, every attempt
and every outcome.  Which steps are calls and which keep a zero-delay
hop: DESIGN.md, "Write-path fan-out".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from ..block.bio import Bio, BioFlags, Op
from ..errors import (DataLossError, DeviceError, DeviceFailedError,
                      InvalidAddressError, PowerLossError, RaiznError,
                      TransientCommandError, WritePointerViolation,
                      ZoneStateError)
from ..sim import Event
from ..zns.spec import ZoneState
from . import config
from .mdzone import MetadataRole
from .metadata import (encode_partial_parity, encode_partial_parity_bytes,
                       encode_relocated_su)
from .stripebuf import StripeBuffer
from .zonedesc import LogicalZoneDesc

if TYPE_CHECKING:
    from .volume import RaiznVolume

#: Plain-int FUA mask: the write fan-out tests sub-IO flags per piece,
#: and ``IntFlag.__and__`` costs a dynamic class lookup per call.
_FUA = int(BioFlags.FUA)
_FUA_OR_PREFLUSH = _FUA | int(BioFlags.PREFLUSH)

#: Upper bound on the per-volume write-plan cache.  Keys are ``(rotation
#: phase, offset in first stripe, length)``; steady-state workloads cycle
#: through a tiny working set, so the cap exists only to bound a
#: pathological scan over every possible offset.
_PLAN_CACHE_MAX = 65536


class _WriteJoin:
    """Join point of one logical bio's fan-out (pooled, hop-exact).

    ``pending`` counts the children still out: device writes and log
    appends while the fan-out is in flight, then — for a FUA/PREFLUSH
    write or an ``Op.FLUSH`` — the device flushes; the two phases never
    overlap, so one counter and one ``failed`` flag serve both.  A
    successful completion arrives from the command's own heap entry,
    alone in the now-queue, so the chain from it to the logical bio's
    event — last child, ``_fired``, the flushes, ``flushed`` — is plain
    calls (DESIGN.md, the lone-chain rule).  A step that starts inside a
    populated tick keeps its hop, so fixed-seed event ordering — and with
    it every RNG draw and digest — is what it always was: every failure
    (a rejected command completes inside the tick that submitted it), a
    fan-out that emitted nothing (``arm``), and omitted or redirected
    pieces (``child_settled``, ``on_redirected``).
    """

    __slots__ = ("path", "sim", "bio", "done", "desc", "generation",
                 "marks", "durable_devices", "pending", "armed", "failed")

    def __init__(self, path: "WritePath"):
        self.path = path
        self.sim = path.sim
        #: Devices this bio's own commands leave durable below it: each
        #: device of a FUA piece (ZNS persistence is prefix-ordered per
        #: zone), or each device an ``Op.FLUSH`` flushes.
        self.durable_devices: Set[int] = set()

    def reset(self, bio: Bio, done: Event,
              desc: Optional[LogicalZoneDesc]) -> None:
        self.bio = bio
        self.done = done
        #: The written zone, whose generation ``start`` sets as it accepts
        #: the write; None for an ``Op.FLUSH``, for which ``flush_all``
        #: sets ``marks`` — ``(desc, generation, SU count, retries
        #: scheduled or -1 while one is outstanding)`` per zone, as it
        #: found them when the device flushes went out.
        self.desc = desc
        self.pending = 0
        self.armed = False
        self.failed = False

    # -- fan-out bookkeeping ------------------------------------------------

    def arm(self) -> None:
        """Last call of the fan-out batch: every child is registered."""
        self.armed = True
        if self.pending == 0 and not self.failed:
            # Nothing was emitted (every target unavailable, or an empty
            # write): complete two hops from here, as the empty gather did.
            self.sim.schedule(0.0, self.sim.schedule, 0.0, self._fired)

    def child_done(self, _landed: object = None) -> None:
        """A child completed on a lone chain: the last one runs the
        completion in this frame."""
        if self.failed:
            return
        self.pending -= 1
        if self.pending == 0 and self.armed:
            self._fired()

    #: A log append the fan-out emitted reports straight to its join, as
    #: to an ``Event`` (``DeviceMetadataZones.append_into``): success in
    #: the frame of the append's completion, with where it landed ...
    succeed_inline = child_done

    def fail(self, exc: BaseException) -> None:
        """... and failure one hop later, where an ``Event``'s waiter
        would hear of it."""
        self.sim.schedule(0.0, self.child_failed, exc)

    def child_settled(self) -> None:
        """A piece was omitted or redirected inside a populated tick:
        the completion keeps its hop."""
        if self.failed:
            return
        self.pending -= 1
        if self.pending == 0 and self.armed:
            self.sim.schedule(0.0, self._fired)

    def child_failed(self, exc: BaseException) -> None:
        if self.failed:
            return
        self.failed = True
        self.sim.schedule(0.0, self._fail, exc)

    def on_redirected(self, event: Event) -> None:
        """Completion callback of a redirected piece's log append."""
        if event.ok:
            self.sim.recycle(event)
            self.sim.schedule(0.0, self.child_settled)
        else:
            self.sim.schedule(0.0, self.child_failed, event.value)

    # -- completion ---------------------------------------------------------

    def _fired(self) -> None:
        """Every piece is on its device, in the log, or omitted."""
        bio = self.bio
        if bio.flags & _FUA_OR_PREFLUSH:
            path = self.path
            devices = path.flush_unpersisted(self.desc, bio,
                                             self.durable_devices)
            if devices:
                path.flush(self, devices)
            else:
                self.flushed()
            return
        self._succeed()

    def flushed(self) -> None:
        """Every device flush this bio needed has completed."""
        bio = self.bio
        desc = self.desc
        # Only stripe units *fully* below the durable point may be marked.
        # A partial tail SU is durable right now, but a later plain write
        # can extend it in the device cache — a set bit would then be
        # stale, the next FUA would skip flushing that device, and a crash
        # could lose acknowledged data.  Nor may a write that outlived a
        # reset of its zone mark the zone written since.  A PREFLUSH
        # alone covers what lies below the write: its own pieces went out
        # without FUA.
        if desc is not None:
            if self.path.volume.generation[desc.zone] == self.generation:
                end = bio.offset + bio.length if bio.flags & _FUA \
                    else bio.offset
                desc.persistence.mark_up_to((end - desc.start_lba) // desc.su)
        else:
            # Exactly what the device flushes covered: units below the
            # write pointer as they went out, on a device flushed or gone.
            # A write accepted since is behind none of them; a unit on a
            # device left alone may still have its FUA write in flight and
            # waits for that write's seal; a reset since starts over; and
            # a relocated piece's log append can reach its device after
            # the flush did, so a zone with relocations waits for a FUA
            # write's flushes (the seal keeps the same guard).  So does a
            # zone with a transient retry outstanding as the flushes went
            # out, or scheduled since: the retry follows them.
            volume = self.path.volume
            generation = volume.generation
            retries = self.path._retries
            layout = volume.mapper.stripe_layout
            available = volume._device_available
            flushed = self.durable_devices
            for desc, written_as, su_end, retried_as in self.marks:
                if generation[desc.zone] != written_as or \
                        desc.has_relocations or \
                        retries[desc.zone] != retried_as:
                    continue
                zone, num_data = desc.zone, desc.num_data
                persistence = desc.persistence
                for su_index in persistence.unpersisted_in(0, su_end):
                    device = layout(zone, su_index // num_data) \
                        .data_devices[su_index % num_data]
                    if device in flushed or not available(device, zone):
                        persistence.mark_persisted(su_index)
            volume.stats.account(bio)
        self._succeed()

    def _succeed(self) -> None:
        """Complete the logical bio and return this join to the pool.

        Failure paths leave the join to the garbage collector: stragglers
        of a failed fan-out may still hold a reference and report in.
        """
        bio = self.bio
        bio.complete_time = self.sim.now
        done = self.done
        free = self.path._join_free
        if len(free) < 64:
            self.bio = self.done = self.desc = None
            self.durable_devices.clear()
            free.append(self)
        done.succeed(bio)

    def _fail(self, exc: BaseException) -> None:
        if self.done.triggered:
            # The fan-out itself raised at submission; ``submit`` already
            # failed the logical bio and this straggler has nothing to add.
            return
        if isinstance(exc, (DeviceError, RaiznError)):
            self.done.fail(exc)
            return
        raise exc


class _WritePiece:
    """One device write of a logical write — a data piece (at most a
    stripe unit) or a stripe's full parity — from emission to completion:
    the context every attempt's ``bio.wctx`` carries.  A piece is born
    registered: it takes one count of its join's ``pending`` and, when
    the write is FUA, puts its device among the join's
    ``durable_devices`` — unless detached: a parity nothing waits for."""

    __slots__ = ("join", "device", "desc", "lba", "stripe", "pba", "data",
                 "flags", "attempt", "seal")

    def __init__(self, join: Optional[_WriteJoin], device: int,
                 desc: LogicalZoneDesc, lba: int, stripe: Optional[int],
                 pba: int, data, flags: int):
        self.join = join
        self.device = device
        self.desc = desc
        #: First LBA of a data piece; of the whole stripe for parity.
        self.lba = lba
        #: Stripe number of a full-parity piece, None for a data piece.
        self.stripe = stripe
        self.pba = pba
        self.data = data
        self.flags = flags
        self.attempt = 0
        #: ``(SU index, zone generation)`` of the unit this FUA data piece
        #: fills, written in place — for a detached parity, ``(its
        #: relocated_parity key, zone generation)``; None otherwise.
        self.seal = None
        if join is not None:
            join.pending += 1
            if flags:
                join.durable_devices.add(device)


class WritePath:
    """Serves ``Op.WRITE``, ``Op.ZONE_APPEND`` and ``Op.FLUSH`` bios for
    one :class:`RaiznVolume`."""

    def __init__(self, volume: "RaiznVolume"):
        self.volume = volume
        self.sim = volume.sim
        #: Cached submission schedules keyed (rotation phase, offset in
        #: first stripe, length): the pure-geometry half of the write
        #: fan-out (stripe/piece bounds, target devices, stripe-relative
        #: addresses), so steady-state appends skip the address
        #: arithmetic.  Runtime state — device availability, write-pointer
        #: conflicts, relocations — is still checked at execution.  The
        #: cache is valid only within one array-membership epoch
        #: (:meth:`RaiznVolume.invalidate_write_plans`).
        self._plan_cache: Dict[Tuple[int, int, int], tuple] = {}
        self._num_rotations = volume.mapper.num_rotations
        #: Recycled :class:`_WriteJoin` objects.
        self._join_free: List[_WriteJoin] = []
        #: Per array slot, its device's ``volatile_writes`` as the last
        #: flush that completed on it without error went out; -1 owes one.
        self._flush_covered = [-1] * len(volume.devices)
        #: Per logical zone: transient retries ever scheduled, and those
        #: whose attempt has not completed yet.
        self._retries = [0] * volume.num_data_zones
        self._retrying = [0] * volume.num_data_zones
        #: Device flushes sent, those an ``Op.FLUSH`` did not send, and
        #: stripe units marked persisted by their own FUA write's completion.
        self.flushes_issued = 0
        self.flushes_elided = 0
        self.units_sealed = 0

    def invalidate_plans(self) -> None:
        """Forget every cached plan and every slot's flush record (array
        membership changed: a slot may hold another device)."""
        self._plan_cache.clear()
        self._flush_covered = [-1] * len(self._flush_covered)

    def _join(self, bio: Bio, done: Event,
              desc: Optional[LogicalZoneDesc]) -> _WriteJoin:
        free = self._join_free
        join = free.pop() if free else _WriteJoin(self)
        join.reset(bio, done, desc)
        return join

    def start(self, bio: Bio, done: Event, zone: int,
              desc: LogicalZoneDesc) -> None:
        """Synchronous half of the write path: validate, plan, emit.

        ``zone``/``desc`` come from ``_dispatch``, which already resolved
        (and range-checked) the logical zone for this bio.  Every array
        state (healthy, degraded, rebuilding, relocating, traced) takes
        the one emission loop below; what happens to an individual piece
        is decided inside the ``_emit_*`` helpers and nowhere else.
        """
        volume = self.volume
        offset = bio.offset
        if bio.op is Op.ZONE_APPEND:
            # §5.4: RAIZN serializes zone appends; emulate as a write at
            # the logical write pointer (as dm-level append emulation does).
            if offset != desc.start_lba:
                raise InvalidAddressError(
                    "zone append offset must be the zone start LBA")
            offset = desc.write_pointer
        # Identity-check the two open states before falling back to the
        # is_writable property: writability is tested once per logical
        # write and the steady state is an open zone.
        state = desc.state
        if state is not ZoneState.IMPLICIT_OPEN \
                and state is not ZoneState.EXPLICIT_OPEN \
                and not state.is_writable:
            raise ZoneStateError(
                f"logical zone {zone} not writable (state={state.value})")
        if offset != desc.write_pointer:
            raise WritePointerViolation(
                f"logical write at {offset:#x} != zone {zone} write "
                f"pointer {desc.write_pointer:#x}")
        end_offset = offset + bio.length
        writable_end = desc.writable_end
        if end_offset > writable_end:
            raise InvalidAddressError("write past logical zone capacity")
        if state is not ZoneState.IMPLICIT_OPEN \
                and state is not ZoneState.EXPLICIT_OPEN:
            volume.zoneops.open(desc)
        # Accepted: only now does an append learn (and report) where it
        # lands — a refused bio goes back to its caller as it came.
        if bio.op is Op.ZONE_APPEND:
            bio.offset = bio.result = offset
        desc.write_pointer = end_offset
        desc.last_write_time = self.sim.now
        if end_offset == writable_end:
            volume.zoneops.budget.set_state(desc, ZoneState.FULL)

        # Pure geometry of this write — stripe segmentation, per-device
        # piece bounds, target addresses — is cached in stripe-relative
        # form.  Device assignment repeats every ``num_rotations`` stripes
        # and everything else is an offset from the write's first stripe,
        # so the key is (rotation phase, offset within stripe, length):
        # a steady sequential workload cycles through a handful of keys
        # and skips the per-piece address arithmetic entirely.
        width = desc.stripe_width
        su = desc.su
        in_zone = offset - desc.start_lba
        stripe0 = in_zone // width
        key = ((stripe0 + zone) % self._num_rotations,
               in_zone - stripe0 * width, bio.length)
        plan = self._plan_cache.get(key)
        if plan is None:
            if len(self._plan_cache) >= _PLAN_CACHE_MAX:
                self._plan_cache.clear()
            plan = self._plan_cache[key] = self._build_plan(
                desc, offset, bio.length)
        pba_base = zone * volume.phys_zone_size + stripe0 * su
        lba_base = desc.start_lba + stripe0 * width

        join = self._join(bio, done, desc)
        join.generation = volume.generation[zone]
        # Plain int (0 or FUA): tested per fan-out piece, and Bio stores
        # flags as an int anyway.
        sub_flags = bio.flags & _FUA
        # Fan out through a memoryview so every per-stripe chunk and
        # per-device piece below is a zero-copy slice of the caller's
        # payload; devices copy exactly once, into their media.
        data = memoryview(bio.data) if bio.data else memoryview(b"")
        # Each device command is submitted as it is emitted; the log
        # appends' start hops are collected and enter the now-queue side
        # by side after the loop.  The loop queues nothing else, so a
        # command rejected at submission reaches the now-queue ahead of
        # every start hop.
        batch: List[tuple] = []
        row = volume._tr_stripe_row
        try:
            for (dstripe, in_stripe, seg_lo, seg_hi, pieces, completes,
                 parity_device, rel_ppba, rel_slba) in plan:
                stripe = stripe0 + dstripe
                chunk = data[seg_lo:seg_hi]
                # Writes land at the write pointer, so only the tail stripe
                # is ever incomplete: a stripe's first write takes the
                # zone's one buffer (absorb refuses it past offset 0).
                buffer = desc.tail
                if buffer is None:
                    buffer = desc.tail = StripeBuffer(
                        zone, stripe, desc.num_data, su)
                elif buffer.stripe != stripe:
                    raise RaiznError(
                        f"zone {zone}: write to stripe {stripe} but the tail "
                        f"buffer holds stripe {buffer.stripe}")
                buffer.absorb(in_stripe, chunk)
                if row is not None:
                    row[0] += 1
                    row[2] += seg_hi - seg_lo
                for device, rel_pba, rel_lba, piece_lo, piece_hi in pieces:
                    self._emit_data(join, desc, device, pba_base + rel_pba,
                                    lba_base + rel_lba,
                                    data[piece_lo:piece_hi], sub_flags,
                                    batch)
                if completes:
                    self._emit_full_parity(join, desc, stripe, parity_device,
                                           pba_base + rel_ppba,
                                           lba_base + rel_slba, buffer,
                                           in_stripe, chunk, sub_flags,
                                           batch)
                    desc.drop_tail()
                else:
                    self._emit_partial_parity(join, desc, parity_device,
                                              lba_base + rel_slba, in_stripe,
                                              chunk, bool(sub_flags), batch)
        except BaseException:
            # Everything emitted before the raise still goes out, and the
            # join is never armed (``submit`` fails the logical bio).
            for fn, args in batch:
                self.sim.schedule(0.0, fn, *args)
            raise

        volume.stats.account(bio)
        # The arm call runs after every sibling append's start hop, in the
        # now-queue slot the old completion-chain hop occupied.
        batch.append((join.arm, ()))
        for fn, args in batch:
            self.sim.schedule(0.0, fn, *args)

    def _build_plan(self, desc: LogicalZoneDesc, offset: int,
                    length: int) -> tuple:
        """Precompute the submission schedule for a write at ``offset``.

        Returns a tuple of per-stripe segments
        ``(dstripe, in_stripe, seg_lo, seg_hi, pieces, completes,
        parity_device, rel_ppba, rel_slba)`` where ``pieces`` is a tuple
        of ``(device, rel_pba, rel_lba, piece_lo, piece_hi)``.  The
        ``*_lo``/``*_hi`` bounds index the bio payload; all other
        addresses are relative to the write's first stripe (``dstripe``
        counts stripes from it, ``rel_pba``/``rel_ppba`` are offsets
        from its first PBA in the zone, ``rel_lba``/``rel_slba`` from
        its first LBA).  Device assignment depends only on the parity
        rotation phase of the first stripe, so the relative plan is
        shared by every (zone, offset) with the same phase — the caller
        keys the cache accordingly and adds the bases back.
        """
        su = desc.su
        zone = desc.zone
        width = desc.stripe_width
        stripe0 = (offset - desc.start_lba) // width
        segments = []
        position = 0
        while position < length:
            in_zone = offset + position - desc.start_lba
            stripe = in_zone // width
            in_stripe = in_zone % width
            take = min(length - position, width - in_stripe)
            layout = self.volume.mapper.stripe_layout(zone, stripe)
            dstripe = stripe - stripe0
            pieces = []
            piece_pos = 0
            while piece_pos < take:
                stripe_offset = in_stripe + piece_pos
                in_su = stripe_offset % su
                piece_take = min(take - piece_pos, su - in_su)
                pieces.append((layout.data_devices[stripe_offset // su],
                               dstripe * su + in_su,
                               dstripe * width + stripe_offset,
                               position + piece_pos,
                               position + piece_pos + piece_take))
                piece_pos += piece_take
            segments.append((dstripe, in_stripe, position, position + take,
                             tuple(pieces), in_stripe + take == width,
                             layout.parity_device, dstripe * su,
                             dstripe * width))
            position += take
        return tuple(segments)

    # -- emission: what happens to one piece --------------------------------

    def _emit_data(self, join: _WriteJoin, desc: LogicalZoneDesc,
                   device: int, pba: int, lba: int, data, sub_flags: int,
                   batch: List[tuple]) -> None:
        volume = self.volume
        zone = desc.zone
        if not volume._device_available(device, zone):
            return  # degraded write: the missing SU is omitted (§4.2)
        pdesc = volume.phys[device][zone]
        # In place unless (a) the physical zone wore out (end-of-life
        # transition; its write pointer is frozen) or (b) the stripe unit
        # conflicts (§5.2): stale persisted data occupies this PBA
        # (pointer ahead), a stale gap sits below it (pointer behind,
        # mid-stale-SU after a rollback), or the SU's relocation unit is
        # already armed — an armed SU always stays in the log even when
        # the stale write pointer happens to line up with this piece's
        # PBA: writing in place would split the SU between a garbage-
        # prefixed device zone and the log, and recovery could not tell
        # the stale prefix from real bytes.
        if pdesc.state is ZoneState.READ_ONLY or \
                pdesc.state is ZoneState.OFFLINE or \
                pdesc.write_pointer != pba or (
                    desc.has_relocations and
                    volume.relocations.lookup(lba - lba % desc.su)
                    is not None):
            self.relocate(desc, device, lba, data, bool(sub_flags), join,
                          batch)
            join.pending += 1
            return
        pdesc.write_pointer = pba + len(data)
        piece = _WritePiece(join, device, desc, lba, None, pba, data,
                            sub_flags)
        if sub_flags and not (lba + len(data) - desc.start_lba) % desc.su:
            piece.seal = (desc.su_index_of(lba), volume.generation[zone])
        volume.devices[device].submit(self._device_write(piece))

    def _emit_full_parity(self, join: _WriteJoin, desc: LogicalZoneDesc,
                          stripe: int, device: int, pba: int,
                          stripe_lba: int, buffer: StripeBuffer,
                          in_stripe: int, chunk, sub_flags: int,
                          batch: List[tuple]) -> None:
        volume = self.volume
        if not volume._device_available(device, desc.zone):
            return
        parity = buffer.full_parity()
        row = volume._tr_parity_full_row
        if row is not None:
            row[0] += 1
            row[2] += len(parity)
        pdesc = volume.phys[device][desc.zone]
        in_place = pdesc.write_pointer == pba and \
            pdesc.state is not ZoneState.READ_ONLY and \
            pdesc.state is not ZoneState.OFFLINE
        # A FUA write shorter than a unit is acknowledged on its (smaller)
        # logged delta; its parity goes in place behind it, detached.
        detach = in_place and sub_flags and len(chunk) < desc.su
        if detach or not in_place:
            # Keep the full parity in memory and log the completing
            # segment's delta to the partial-parity zone — XOR of all the
            # stripe's deltas equals the full parity.  Unless detached,
            # the parity SU's PBA conflicts with stale data (§5.2 after a
            # rollback recovery) or the zone wore out.
            volume.relocated_parity[(desc.zone, stripe)] = parity
            self._emit_partial_parity(join, desc, device, stripe_lba,
                                      in_stripe, chunk, bool(sub_flags),
                                      batch)
            if not in_place:
                return
        pdesc.write_pointer = pba + len(parity)
        piece = _WritePiece(None if detach else join, device, desc,
                            stripe_lba, stripe, pba, parity, sub_flags)
        if detach:
            piece.seal = ((desc.zone, stripe), volume.generation[desc.zone])
        volume.devices[device].submit(self._device_write(piece))

    def _emit_partial_parity(self, join: _WriteJoin, desc: LogicalZoneDesc,
                             device: int, stripe_lba: int, in_stripe: int,
                             chunk, fua: bool, batch: List[tuple]) -> None:
        volume = self.volume
        # Healthy-array short circuit; _device_available decides the
        # degraded/rebuilding cases.
        if volume.failed[device] or volume.devices[device] is None \
                or volume.rebuild_state is not None:
            if not volume._device_available(device, desc.zone):
                return
        offset, delta = StripeBuffer.delta_parity(in_stripe, chunk, desc.su)
        row = volume._tr_parity_partial_row
        if row is not None:
            row[0] += 1
            row[2] += len(delta)
        encoded = encode_partial_parity_bytes(
            stripe_lba + in_stripe, stripe_lba + in_stripe + len(chunk),
            volume.generation[desc.zone], offset, delta)
        volume.mdzones[device].append_into(
            MetadataRole.PARTIAL_PARITY, encoded, fua, join, batch)
        join.pending += 1

    def relocate(self, desc: LogicalZoneDesc, device: int, lba: int, data,
                 fua: bool, done, batch: Optional[List[tuple]] = None) -> None:
        """Redirect ``data`` at ``lba`` into ``device``'s general log
        (§5.2); ``done`` (an ``Event`` or a join) hears once the entry
        is appended."""
        volume = self.volume
        unit = volume.relocations.unit_for(lba - lba % desc.su, device,
                                           desc.zone)
        unit.write(lba, data)
        desc.has_relocations = True
        entry = encode_relocated_su(lba, data, volume.generation[desc.zone])
        # A FUA write must be durable before it is acknowledged; when the
        # piece is redirected into the metadata log, the log append has to
        # carry the FUA flag — ``flush_unpersisted`` only covers SUs from
        # *earlier* writes, so nothing else persists this entry before the
        # ack and a crash could cut it from the log tail.
        volume.mdzones[device].append_into(
            MetadataRole.GENERAL, entry.encode(), fua, done, batch)

    # -- protected device writes --------------------------------------------

    def _device_write(self, piece: _WritePiece) -> Bio:
        """The device command of ``piece``'s current attempt."""
        return Bio.command(Op.WRITE, piece.pba, piece.data, len(piece.data),
                           piece.flags, piece, self._attempted)

    def _retry(self, piece: _WritePiece) -> None:
        self.volume.devices[piece.device].submit(self._device_write(piece))

    def _attempted(self, bio: Bio) -> None:
        """Completion of a protected device write — self-healing policy.

        One shared bound method for every data/parity piece.  Transient
        command failures are retried up to ``config.max_transient_retries``
        times with a simulated backoff; a zone-state failure (wear-out
        discovered mid-write) resyncs the physical descriptor and
        redirects the piece to the metadata log; a failed device degrades
        the write (§4.2: the piece is omitted and parity covers it).
        Anything else fails the logical write.
        """
        piece = bio.wctx
        join = piece.join
        volume = self.volume
        device = piece.device
        if piece.attempt:
            self._retrying[piece.desc.zone] -= 1
        exc = bio.error
        if exc is None:
            if volume._failslow_on:
                volume._note_latency(device, False,
                                     self.sim.now - bio.submit_time)
            seal = piece.seal
            desc = piece.desc
            # Nothing settles in a zone reset since the piece was emitted.
            if seal is not None and volume.generation[desc.zone] == seal[1]:
                if join is None:
                    # A detached parity is in place: its in-memory copy
                    # goes, unless a later write has replaced it.
                    if volume.relocated_parity.get(seal[0]) is piece.data:
                        del volume.relocated_parity[seal[0]]
                elif not desc.has_relocations:
                    # Durable through the unit's end on its device (prefix
                    # persistence), unless the zone may hold relocated
                    # pieces (``_WriteJoin.flushed``, the same guard).
                    desc.persistence.mark_persisted(seal[0])
                    self.units_sealed += 1
            if join is not None:
                join.child_done()
            return
        if isinstance(exc, (TransientCommandError, WritePointerViolation)):
            # A WritePointerViolation here is collateral of a transient
            # fault on an *earlier* piece of the same zone: that piece was
            # rejected at submission (device pointer not advanced), so this
            # piece arrived ahead of the pointer.  The earlier piece's
            # retry fires first (same backoff, scheduled earlier), after
            # which this retry lands at the right pointer — mirroring the
            # kernel's zone-write requeue ordering.
            if piece.attempt < volume.config.max_transient_retries:
                volume.health.transient_retries += 1
                piece.attempt += 1
                self._retries[piece.desc.zone] += 1
                self._retrying[piece.desc.zone] += 1
                self.sim.schedule(config.TRANSIENT_BACKOFF_S,
                                  self._retry, piece)
                return
            volume.health.transient_escalations += 1
            volume._note_device_error(device)
        elif isinstance(exc, ZoneStateError):
            volume.health.wear_errors += 1
            volume._note_device_error(device)
            volume._sync_phys_desc(device, bio.offset // volume.phys_zone_size)
            self._redirect(piece)
            return
        elif isinstance(exc, (DeviceFailedError, PowerLossError)):
            if isinstance(exc, DeviceFailedError) and \
                    not volume.failed[device]:
                try:
                    volume.fail_device(device, remove=False)
                except DataLossError as loss:
                    exc = loss
            if volume.failed[device]:
                # Degraded write: piece omitted (§4.2).
                if join is not None:
                    self.sim.schedule(0.0, join.child_settled)
                return
        if join is not None:
            self.sim.schedule(0.0, join.child_failed, exc)

    def _redirect(self, piece: _WritePiece) -> None:
        """Wear-out discovered by the failing write itself: a data piece
        is relocated into the general log; a full-parity piece stays in
        memory plus one cumulative partial-parity log entry covering the
        whole stripe — the shape the metadata-GC checkpoint uses."""
        join = piece.join
        volume = self.volume
        desc = piece.desc
        device = piece.device
        if not volume._device_available(device, desc.zone):
            # Degraded: omitted, parity (or memory) covers it.
            if join is not None:
                self.sim.schedule(0.0, join.child_settled)
            return
        fua = bool(piece.flags)
        if piece.stripe is None:
            done = self.sim.event()
            try:
                self.relocate(desc, device, piece.lba, piece.data, fua, done)
            except (RaiznError, DeviceError) as exc:
                self.sim.schedule(0.0, join.child_failed, exc)
                return
        else:
            volume.relocated_parity[(desc.zone, piece.stripe)] = piece.data
            entry = encode_partial_parity(
                piece.lba, piece.lba + desc.stripe_width,
                volume.generation[desc.zone], 0, piece.data)
            done = volume.mdzones[device].append_async(
                MetadataRole.PARTIAL_PARITY, entry, fua=fua)
        if join is not None:
            done.add_callback(join.on_redirected)

    # -- flushes (§5.3) -----------------------------------------------------

    def flush_unpersisted(self, desc: LogicalZoneDesc, bio: Bio,
                          durable_devices: Set[int]) -> Iterable[int]:
        """Devices holding a non-persisted SU below this write.

        Implements §5.3 with the paper's optimization: only the bitmap
        from the stripe immediately preceding the write onwards needs
        checking, because a set bit implies all earlier SUs on all
        devices are persisted.
        """
        write_su = desc.su_index_of(bio.offset)
        frontier = desc.persistence.frontier
        if frontier >= write_su:
            return ()  # the steady state: everything below went out FUA
        volume = self.volume
        num_data = desc.num_data
        check_from = max(frontier, (write_su // num_data - 1) * num_data)
        # Defer the set until a device qualifies.
        devices: Optional[Set[int]] = None
        for su_index in desc.persistence.unpersisted_in(check_from, write_su):
            device = volume.mapper.stripe_layout(
                desc.zone, su_index // num_data
            ).data_devices[su_index % num_data]
            if device not in durable_devices and \
                    volume._device_available(device, desc.zone):
                if devices is None:
                    devices = {device}
                else:
                    devices.add(device)
        return devices or ()

    def flush(self, join: _WriteJoin, devices: Iterable[int]) -> None:
        """Flush ``devices``; ``join.flushed`` runs when all have."""
        for slot in devices:
            device = self.volume.devices[slot]
            bio = Bio.flush()
            bio.errors_as_status = True
            bio.wctx = (join, slot, device, device.volatile_writes)
            bio.end_io = self._flush_attempted
            join.pending += 1
            self.flushes_issued += 1
            device.submit(bio)

    def _flush_attempted(self, bio: Bio) -> None:
        join, slot, device, covered = bio.wctx
        if bio.error is None and covered > self._flush_covered[slot] \
                and self.volume.devices[slot] is device:
            self._flush_covered[slot] = covered
        if join.failed:
            return
        if bio.error is not None:
            join.child_failed(bio.error)
            return
        join.pending -= 1
        if join.pending == 0:
            join.flushed()

    def flush_all(self, bio: Bio, done: Event) -> None:
        """REQ_OP_FLUSH: to each array device that accepted a volatile
        write since its last completed flush (§5.3; DESIGN.md, "What a
        FLUSH costs")."""
        volume = self.volume
        alive = volume._alive_devices()
        owed = [slot for slot in alive if volume.devices[slot].volatile_writes
                > self._flush_covered[slot]]
        join = self._join(bio, done, None)
        join.durable_devices.update(owed)
        generation = volume.generation
        join.marks = [(desc, generation[desc.zone],
                       desc.su_index_of(desc.write_pointer),
                       -1 if self._retrying[desc.zone]
                       else self._retries[desc.zone])
                      for desc in volume.zone_descs
                      if (desc.state.is_active
                          or desc.state is ZoneState.FULL)
                      and desc.written_bytes]
        self.flushes_elided += len(alive) - len(owed)
        if owed:
            self.flush(join, owed)
        else:
            self.sim.schedule(0.0, join.flushed)
