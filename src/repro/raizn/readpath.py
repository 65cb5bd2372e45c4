"""The logical read path of a RAIZN volume (paper §4.1, §4.2, §5.2).

Healthy reads are pure address arithmetic: validate once, split into
per-device pieces of at most one stripe unit, one device command each (a
one-unit read is that command alone).  The rest is a piece that cannot
simply be read: it lives in a relocated unit, its device is gone, slow,
worn out or mid-rebuild, or its command comes back with an error.

One callback chain serves every piece kind.  A :class:`_ReadJoin` counts
the pieces of a read; a :class:`_Piece` rides each device command's
``bio.wctx``, is completed by the one :meth:`ReadPath._read_attempted`
and delivers into its join directly; survivor reads of a degraded, hedged
or healing piece fold into a :class:`Reconstruction` the same way.  Why
calling instead of queueing these steps reorders nothing: DESIGN.md,
"Read-path fan-out".

:meth:`ReadPath.reconstruct` is the one reconstruction of a lost stripe
unit (§4.2): a piece's, one unit inside the single-flight table, and the
rebuild's (``rebuild.ZoneStream``), a run of units outside it.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Tuple)

import numpy as np

from ..block.bio import Bio, Op
from ..errors import (DataLossError, DegradedModeError, DeviceError,
                      DeviceFailedError, MediaError, RaiznError,
                      ReadUnwrittenError, TransientCommandError,
                      ZoneStateError)
from ..sim import Event
from ..trace.tracer import SITE_BITS
from . import config
from .parity import fold
from .relocation import unit_sources
from .zonedesc import LogicalZoneDesc

if TYPE_CHECKING:
    from .volume import RaiznVolume


class _ReadJoin:
    """Join point of one logical read: counts pieces, assembles the result."""

    __slots__ = ("volume", "bio", "done", "chunks", "pending")

    def __init__(self, volume: "RaiznVolume", bio: Bio, done: Event):
        self.volume = volume
        self.bio = bio
        self.done = done
        self.chunks: List[Optional[bytes]] = []
        #: Pieces not delivered yet, plus one held by the fan-out itself
        #: so pieces served from memory cannot complete the read while
        #: later pieces are still being routed.
        self.pending = 1

    def deliver(self, index: int, data) -> None:
        self.chunks[index] = data
        self.settle()

    def settle(self) -> None:
        self.pending -= 1
        if self.pending:
            return
        bio = self.bio
        bio.result = b"".join(self.chunks)  # type: ignore[arg-type]
        volume = self.volume
        volume.stats.account(bio)
        bio.complete_time = volume.sim.now
        self.done.succeed(bio)

    def fail(self, exc: BaseException) -> None:
        """The first failing piece fails the read; a failed read never
        settles (its piece is never delivered), so stragglers that report
        in afterwards change nothing."""
        if not isinstance(exc, (DeviceError, RaiznError)):
            raise exc
        if not self.done.triggered:
            self.done.fail(exc)

    def persisted(self, event: Event) -> None:
        """A piece already in ``chunks`` waited for its metadata append."""
        if event.ok:
            self.settle()
        else:
            self.fail(event.value)


class _Piece:
    """One device-read piece (at most a stripe unit) of a logical read,
    from routing to delivery: the context every attempt's ``bio.wctx``
    carries.  A piece is born registered: it takes the next slot of its
    join's ``chunks`` and one count of its ``pending``."""

    __slots__ = ("join", "index", "device", "pba", "lba", "length", "desc",
                 "parent", "attempt", "hedged", "served_at")

    def __init__(self, join: _ReadJoin, device: int, pba: int, lba: int,
                 length: int, desc: LogicalZoneDesc, parent: int):
        self.join = join
        self.index = len(join.chunks)
        join.chunks.append(None)
        join.pending += 1
        self.device = device
        self.pba = pba
        self.lba = lba
        self.length = length
        self.desc = desc
        #: Root span id of the logical read (``-1`` when not traced).
        self.parent = parent
        self.attempt = 0
        #: True while the first attempt is in flight with a hedge timer
        #: (or the hedged reconstruction) running against it.
        self.hedged = False
        #: Simulated time at which the hedge served the piece, if it did;
        #: the straggler's eventual completion is then accounting-only.
        self.served_at: Optional[float] = None


class Reconstruction:
    """The XOR of a lost range's surviving sources (§4.2): ``length``
    bytes of the lost device from ``start`` on, folded into
    ``accumulator``; ``then(reconstruction, exc)`` runs once, when every
    source is in (``exc`` None) or one hop after the first survivor read
    that fails for good (a fault on a survivor is a double fault)."""

    __slots__ = ("then", "context", "parent", "start", "length",
                 "accumulator", "pending", "units", "logical")

    def __init__(self, then: Callable, context, parent: int, start: int,
                 length: int):
        self.then, self.context, self.parent = then, context, parent
        self.start, self.length = start, length
        self.accumulator: Optional[np.ndarray] = None
        self.pending = 1  # held by the fan-out, as in _ReadJoin
        #: What a standalone reconstruction counts in ``volume.stats``.
        self.units = self.logical = 0

    def fold(self, data, offset: int) -> None:
        accumulator = self.accumulator
        if accumulator is None:
            if not offset and len(data) == self.length:
                self.accumulator = fold(None, data)   # copied, not XOR-ed
                return
            accumulator = self.accumulator = np.zeros(self.length, np.uint8)
        fold(accumulator[offset:offset + len(data)], data)


class ReadPath:
    """Serves ``Op.READ`` bios for one :class:`RaiznVolume`."""

    def __init__(self, volume: "RaiznVolume"):
        self.volume = volume
        self.sim = volume.sim
        #: Device reads in flight while a device is unavailable, keyed
        #: ``(device, pba, length)``: ``[key, direct, consumer, ...]``
        #: with ``direct`` the first consumer's kind and each consumer the
        #: ``(handler, context)`` of a :meth:`_submit`.  A
        #: device read's bytes are valid only until its zone's next reset
        #: (DESIGN, "a device read's bytes"), and the key holds no zone
        #: generation: a join across a reset is not yet ruled out.
        self._inflight: Dict[Tuple[int, int, int], list] = {}
        #: Device reads saved by joining a command already in flight.
        self.joined_reads = 0

    def start(self, bio: Bio, done: Event) -> None:
        """Validate ``bio`` and queue its fan-out.

        Reads may cross logical zone boundaries (the device-mapper layer
        splits them); every crossed zone must be written through the
        requested range.
        """
        volume = self.volume
        end = bio.offset + bio.length
        zone = first = volume.mapper.zone_of(bio.offset)
        while True:
            desc = volume.zone_descs[zone]
            if end <= desc.write_pointer:
                break
            zone_end = desc.writable_end
            if end <= zone_end or desc.write_pointer < zone_end:
                raise ReadUnwrittenError(
                    f"read [{bio.offset:#x},{end:#x}) beyond logical zone "
                    f"{zone} write pointer {desc.write_pointer:#x}")
            zone = volume.mapper.zone_of(zone_end)
        self.sim.schedule(0.0, self._run_read, bio, done, first)

    def _run_read(self, bio: Bio, done: Event, zone: int) -> None:
        volume = self.volume
        desc = volume.zone_descs[zone]
        if bio.offset % desc.su + bio.length <= desc.su and not (
                desc.has_relocations or volume._failslow_on
                or volume.tracer is not None):
            device, pba = volume.mapper.lba_to_pba(bio.offset)
            if not volume._degraded or volume._device_available(device,
                                                                zone):
                self._submit(device, pba, bio.length, self._read_done,
                             (bio, done, device, desc), -1, True)
                return
        join = _ReadJoin(volume, bio, done)
        parent = -1
        if volume.tracer is not None and bio.span is not None:
            parent = bio.span >> SITE_BITS
        split = volume.mapper.split_in_zone
        lba = bio.offset
        end = lba + bio.length
        try:
            while lba < end:
                desc = volume.zone_descs[zone]
                route = self._route_relocated if desc.has_relocations \
                    else self._route
                for device, pba, length in split(zone, lba, end):
                    route(join, device, pba, lba, length, desc, parent)
                    lba += length
                zone += 1
        except (DeviceError, RaiznError) as exc:
            join.fail(exc)
            return
        join.settle()

    def _route(self, join: _ReadJoin, device: int, pba: int, lba: int,
               length: int, desc: LogicalZoneDesc, parent: int) -> None:
        """Serve ``length`` bytes at ``lba`` from ``device`` at ``pba``, or
        from redundancy."""
        volume = self.volume
        piece = _Piece(join, device, pba, lba, length, desc, parent)
        if volume._degraded and not volume._device_available(device,
                                                             desc.zone):
            self._degraded(piece)
        elif volume._failslow_on and self._avoid_for_reads(device,
                                                            desc.zone):
            self._degraded(piece, bypass=True)
        else:
            self._attempt_read(piece)

    def _route_relocated(self, join: _ReadJoin, device: int, pba: int,
                         lba: int, length: int, desc: LogicalZoneDesc,
                         parent: int) -> None:
        """:meth:`_route` in a zone with relocations: the bytes come from
        where :func:`unit_sources` places them (DESIGN decision 16)."""
        in_su = lba % desc.su
        stripe, index = divmod(desc.su_index_of(lba), desc.num_data)
        for lo, hi, source in unit_sources(self.volume, desc.zone, stripe,
                                           index, in_su, in_su + length):
            if isinstance(source, int):
                self._route(join, device, pba + lo - in_su, lba + lo - in_su,
                            hi - lo, desc, parent)
            else:
                join.chunks.append(source)

    def _read_done(self, command: Bio, fed: bool = False) -> None:
        """Complete a one-unit read; a failed command becomes its one piece
        (``fed`` as in :meth:`_read_attempted`)."""
        bio, done, device, desc = command.wctx
        if command.error is None:
            bio.result = bytes(command.result)
            self.volume.stats.account(bio)
            bio.complete_time = self.sim.now
            done.succeed(bio)
            return
        join = _ReadJoin(self.volume, bio, done)
        join.pending = 0  # no fan-out holds a count: the piece's alone
        command.wctx = _Piece(join, device, command.offset, bio.offset,
                              bio.length, desc, -1)
        self._read_attempted(command, fed)

    def _avoid_for_reads(self, device: int, zone: int) -> bool:
        """Should reads skip this (demoted) device in favour of
        reconstruction?  Only while every *other* device is available —
        reconstruction needs all of them, so with a second device down
        the demoted straggler is still the best source."""
        volume = self.volume
        return volume.device_health[device].demoted and all(
            volume._device_available(other, zone)
            for other in range(volume.config.num_devices) if other != device)

    def _traced(self, parent: int, submit: Callable, *args):
        """``submit(*args)`` for a logical read: whatever span it opens
        is parented under the read's root span."""
        tracer = self.volume.tracer
        if tracer is None:
            return submit(*args)
        tracer.current_parent = parent
        try:
            return submit(*args)
        finally:
            tracer.current_parent = -1

    # -- device reads, single-flight while degraded --------------------------

    def _submit(self, device: int, pba: int, length: int, handler: Callable,
                context, parent: int, direct: Optional[bool]) -> None:
        """Read ``length`` bytes at ``pba`` of ``device`` for
        ``handler(bio)``, ``context`` riding ``bio.wctx``; ``direct`` True
        for a piece's own read, False for a reconstruction's survivor
        read, None for a read no one else asks for.

        While a device is unavailable a stripe's direct reads and its
        reconstruction's survivor reads want the same bytes at the same
        time: the second of the two joins the first one's command instead
        of issuing its own.  Only that pair is joined — a second consumer
        of the same kind (two direct reads, or two reconstructions) is a
        second request for the same logical bytes and gets its own,
        unshared, command (DESIGN.md, "Read-path fan-out").  The
        rebuild's run reads skip the table: no consumer asks for their
        bytes but the run (``ZoneStream``)."""
        volume = self.volume
        if volume._degraded and direct is not None:
            key = (device, pba, length)
            entry = self._inflight.get(key)
            if entry is None:
                # Tabled: the command completes to whoever its entry holds.
                context = self._inflight[key] = [key, direct,
                                                 (handler, context)]
                handler = self._shared_attempted
            elif len(entry) == 3 and entry[1] != direct:
                entry.append((handler, context))
                self.joined_reads += 1
                return
        bio = Bio.command(Op.READ, pba, None, length, 0, context, handler)
        submit = volume.devices[device].submit
        if volume.tracer is None:
            submit(bio)
        else:
            self._traced(parent, submit, bio)

    def _shared_attempted(self, bio: Bio) -> None:
        """Completion of a command in the in-flight table: every consumer
        hears of it through its own handler, in arrival order, each
        applying its own policy to the one ``bio.error``.  The command is
        one latency sample, so only the first handler may feed it to the
        fail-slow health score."""
        key, _direct, *consumers = bio.wctx
        del self._inflight[key]
        fed = False
        for handler, context in consumers:
            bio.wctx = context
            handler(bio, fed)
            fed = True

    # -- self-healing device reads ------------------------------------------

    def _attempt_read(self, piece: _Piece) -> None:
        """(Re)submit a piece's device read under the self-healing policy
        of :meth:`_read_attempted`."""
        volume = self.volume
        self._submit(piece.device, piece.pba, piece.length,
                     self._read_attempted, piece, piece.parent, True)
        if volume._failslow_on and piece.attempt == 0:
            # Hedge timer: if the read outlives the deadline derived from
            # this device's own latency distribution, race a parity
            # reconstruction against the straggler.
            deadline = volume.device_health[piece.device].read.threshold()
            if deadline is not None:
                piece.hedged = True
                self.sim.schedule(deadline, self._fire_hedge, piece)

    def _read_attempted(self, bio: Bio, fed: bool = False) -> None:
        """Completion of a piece's device read — every attempt, every
        outcome: deliver, retry, read-repair, or degrade (§5.2, §4.2).
        ``fed``: a consumer before this one has had this command's
        latency sample (:meth:`_shared_attempted`)."""
        piece = bio.wctx
        volume = self.volume
        exc = bio.error
        if volume._failslow_on:
            piece.hedged = False  # the straggler is in: its hedge is void
            served_at = piece.served_at
            if exc is None and served_at != self.sim.now and not fed:
                # A straggler completing in the very tick its hedge served
                # met the deadline to the tick: the hedge owns the serve and
                # its win counters, and charging the sample on top would
                # double-count the event and skew the slow-score.  A genuine
                # straggler (a *later* tick) still feeds the health score.
                volume._note_latency(piece.device, True,
                                     self.sim.now - bio.submit_time)
            if served_at is not None:
                # The hedge served this piece; nothing else is owed.  A
                # latent error surfacing on the abandoned straggler is
                # left for the scrubber.
                return
        if exc is None:
            piece.join.deliver(piece.index, bio.result)
            return
        device = piece.device
        health = volume.health
        heal = False
        if isinstance(exc, TransientCommandError):
            if piece.attempt < volume.config.max_transient_retries:
                health.transient_retries += 1
                piece.attempt += 1
                self.sim.schedule(config.TRANSIENT_BACKOFF_S,
                                  self._attempt_read, piece)
                return
            # Retries exhausted: charge the device and serve the read
            # from redundancy instead of failing it.
            health.transient_escalations += 1
            volume._note_device_error(device)
        elif isinstance(exc, MediaError):
            health.media_errors += 1
            if not volume.config.read_repair:
                # Detection-power path: serve the corrupt media view the
                # way an unprotected consumer would have seen it.
                health.unrepaired_serves += 1
                piece.join.deliver(piece.index, bio.result)
                return
            volume._note_device_error(device)
            # If the charge just evicted the device there is no relocation
            # log left to heal into: plain reconstruction.
            heal = not volume.failed[device]
        elif isinstance(exc, ZoneStateError):
            # The physical zone went OFFLINE (end-of-life): its media is
            # gone for good, so reconstruct *and* relocate like a media
            # error.
            health.wear_errors += 1
            volume._note_device_error(device)
            volume._sync_phys_desc(device, piece.desc.zone)
            heal = not volume.failed[device]
        elif isinstance(exc, DeviceFailedError) and not volume.failed[device]:
            try:
                volume.fail_device(device, remove=False)
            except DataLossError as loss:
                piece.join.fail(loss)
                return
        # Bad media, or an unavailable device (failed, evicted, powered
        # off): serve the piece from the surviving devices plus parity.
        try:
            self._degraded(piece, heal)
        except (RaiznError, DeviceError) as degraded_exc:
            piece.join.fail(degraded_exc)

    # -- hedged reads -------------------------------------------------------

    def _fire_hedge(self, piece: _Piece) -> None:
        """The first attempt outlived its adaptive deadline: race a parity
        reconstruction of the same range against the straggler; whichever
        is in first delivers the piece.  The loser is accounted as a
        hedge — never as a device error, so hedging cannot push a
        merely-slow device over the error-threshold eviction."""
        if not piece.hedged:
            return
        volume = self.volume
        volume.health.slow_hedges += 1
        volume.device_health[piece.device].slow_hedges += 1
        data = self._from_stripe_buffer(piece)
        if data is not None:
            self._hedge_won(piece, data)
            return
        try:
            self._reconstruct(piece, self._hedge_settled)
        except (RaiznError, DeviceError):
            # Another device is unavailable (failed or mid-rebuild):
            # reconstruction cannot race, keep waiting on the straggler.
            pass

    def _hedge_settled(self, recon: Reconstruction,
                       exc: Optional[BaseException]) -> None:
        # Not hedged any more: the straggler won the race (it served or
        # escalated; the reconstruction drained into a dead buffer).  A
        # failed reconstruction (a fault on a survivor is a double fault)
        # likewise keeps waiting on the straggler.
        if recon.context.hedged and exc is None:
            self._hedge_won(recon.context, recon.accumulator)

    def _hedge_won(self, piece: _Piece, data) -> None:
        piece.served_at = self.sim.now
        self.volume.health.hedge_wins += 1
        self.volume.device_health[piece.device].hedge_wins += 1
        piece.join.deliver(piece.index, data)

    # -- degraded reads and read-repair -------------------------------------

    def _from_stripe_buffer(self, piece: _Piece) -> Optional[bytes]:
        """The piece's bytes if its stripe is an incomplete tail stripe:
        the parity is not on media yet, but the stripe buffer holds the
        data."""
        desc = piece.desc
        stripe, offset = divmod(piece.lba - desc.start_lba, desc.stripe_width)
        buffer = desc.tail
        if buffer is None or buffer.stripe != stripe:
            return None
        return bytes(memoryview(buffer.data)[offset:offset + piece.length])

    def _degraded(self, piece: _Piece, heal: bool = False,
                  bypass: bool = False) -> None:
        """Reconstruct a piece whose device is unavailable (§4.2), with
        ``heal`` one whose media is bad (read-repair, :meth:`_healed`),
        with ``bypass`` one whose device is demoted (:meth:`_bypassed`).
        A piece still in the stripe buffer leaves the durable heal to a
        future read of the sealed stripe."""
        data = self._from_stripe_buffer(piece)
        if data is not None:
            piece.join.deliver(piece.index, data)
        elif heal:
            self._reconstruct(piece, self._healed, whole=True)
        else:
            self._reconstruct(piece, self._bypassed if bypass
                              else self._reconstructed)

    def _reconstructed(self, recon: Reconstruction,
                       exc: Optional[BaseException]) -> None:
        piece = recon.context
        if exc is not None:
            piece.join.fail(exc)
        else:
            # The join copies: ``bytes.join`` never returns a bytearray.
            piece.join.deliver(piece.index, recon.accumulator)

    def _bypassed(self, recon: Reconstruction,
                  exc: Optional[BaseException]) -> None:
        """A demoted device's piece, served from redundancy.  Demoted is
        not failed: when a survivor faults (a latent error on one is no
        double fault here), the straggler still serves the piece."""
        if exc is None:
            self._reconstructed(recon, exc)
        else:
            self._attempt_read(recon.context)

    def _healed(self, recon: Reconstruction,
                exc: Optional[BaseException]) -> None:
        piece = recon.context
        if exc is not None:
            piece.join.fail(exc)
            return
        desc = piece.desc
        data = bytes(recon.accumulator)
        in_su = piece.lba % desc.su
        self.volume.health.heals += 1
        piece.join.chunks[piece.index] = data[in_su:in_su + piece.length]
        # Relocate the unit (§5.2).  The original bytes may have been
        # acknowledged durable (FUA), so the healed copy is persisted FUA
        # before the read completes.
        done = self.sim.event()
        self._traced(piece.parent, self.volume.writepath.relocate, desc,
                     piece.device, piece.lba - in_su, data, True, done)
        done.add_callback(piece.join.persisted)

    def _reconstruct(self, piece: _Piece, then: Callable,
                     whole: bool = False) -> None:
        """:meth:`reconstruct` the piece's range of its unit — with
        ``whole``, the unit's whole written extent — for ``then``."""
        desc, volume = piece.desc, self.volume
        stripe = (piece.lba - desc.start_lba) // desc.stripe_width
        lo = piece.lba % desc.su
        hi = lo + piece.length
        if whole:
            # A worn zone's frozen pointer can sit below the data we know
            # was written; reconstruct at least the requested range.
            lo, hi = 0, max(hi, min(desc.su, volume.phys[piece.device][
                desc.zone].write_pointer - volume.phys_zone_size * desc.zone
                - stripe * desc.su))
        self.reconstruct(piece.device, desc.zone, stripe, 1, lo, hi, then,
                         piece, piece.parent)

    def reconstruct(self, lost: int, zone: int, stripe: int, units: int,
                    lo: int, hi: int, then: Callable, context,
                    parent: int = -1, standalone: bool = False) -> None:
        """Fold the surviving sources of device ``lost``'s ``units``
        stripe units of ``zone`` from ``stripe`` on, byte ``lo`` of the
        first to ``hi`` of the last, into a :class:`Reconstruction` for
        ``then``.  Each source is folded once: one read per survivor, or
        where relocations are involved the pieces :func:`unit_sources`
        gives for the lost unit and each survivor's, adjacent ones in one
        read; bytes past a write pointer are zeroes (§5.1), not read.  A
        transient survivor error is retried; any other fails the range.
        A piece's reconstruction reads through the single-flight table
        and its logical read counts itself; a ``standalone`` one (the
        rebuild's) reads outside it and counts each unit as the logical
        read it stands for, parity as its stripe's.  Raises
        ``DegradedModeError``, before any read, if a second device is
        unavailable."""
        volume = self.volume
        others = [other for other in range(volume.config.num_devices)
                  if other != lost]
        for other in others:
            if not volume._device_available(other, zone):
                raise DegradedModeError(
                    f"two unavailable devices ({lost}, {other}); "
                    "single parity cannot reconstruct")
        desc = volume.zone_descs[zone]
        su = desc.su
        recon = Reconstruction(
            then, context, parent,
            zone * volume.phys_zone_size + stripe * su + lo,
            (units - 1) * su + hi - lo)
        stripes = range(stripe, stripe + units)
        relocated = desc.has_relocations
        for s in stripes:
            relocated = relocated or (zone, s) in volume.relocated_parity
        if standalone:
            recon.units, recon.logical = units, recon.length
            for s in stripes:
                if volume.mapper.stripe_layout(zone, s).parity_device == lost:
                    recon.logical += desc.stripe_width - su
        if not relocated:
            for other in others:   # DESIGN decision 16's shortcut
                self._read_survivor(recon, other, recon.start, min(
                    recon.start + recon.length,
                    volume.phys[other][zone].write_pointer))
        else:
            self._walk_sources(recon, lost, others, zone, stripe, units,
                               lo, hi)
        recon.pending -= 1
        if not recon.pending:
            self._settled(recon)

    def _walk_sources(self, recon: Reconstruction, lost: int, others,
                      zone: int, stripe: int, units: int, lo: int,
                      hi: int) -> None:
        """:meth:`reconstruct`'s reads where relocations are involved."""
        volume = self.volume
        su = volume.zone_descs[zone].su
        lost_pieces = []   # what of the lost units is not in memory
        for s in range(stripe, stripe + units):
            layout = volume.mapper.stripe_layout(zone, s)
            pba = recon.start - lo + (s - stripe) * su
            for a, b, source in unit_sources(
                    volume, zone, s, _slot(layout, lost),
                    lo if s == stripe else 0,
                    hi if s == stripe + units - 1 else su):
                if isinstance(source, int):
                    lost_pieces.append((s, layout, pba, a, b))
                else:
                    recon.fold(source, pba + a - recon.start)
        for other in others:
            wp, first, end = volume.phys[other][zone].write_pointer, None, None
            for s, layout, pba, a, b in lost_pieces:
                for c, d, source in unit_sources(
                        volume, zone, s, _slot(layout, other), a, b):
                    if not isinstance(source, int):
                        recon.fold(source, pba + c - recon.start)
                        continue
                    if pba + c != end:   # not adjacent: read what is
                        self._read_survivor(recon, other, first, end)
                        first = end = pba + c
                    end = max(end, min(pba + min(d, source), wp))
            self._read_survivor(recon, other, first, end)

    def _read_survivor(self, recon: Reconstruction, device: int, pba,
                       end, attempt: int = 0) -> None:
        """(Re)submit the read of ``device``'s bytes ``[pba, end)``."""
        if not attempt:
            if end is None or end <= pba:
                return
            recon.pending += 1
        self._submit(device, pba, end - pba, self._survivor_read,
                     (recon, device, attempt), recon.parent,
                     None if recon.logical else False)

    def _survivor_read(self, bio: Bio, fed: bool = False) -> None:
        """A survivor read's completion, every attempt; ``fed`` as in
        :meth:`_read_attempted`."""
        recon, device, attempt = bio.wctx
        volume = self.volume
        exc = bio.error
        if exc is None:
            if volume._failslow_on and not fed:
                volume._note_latency(device, True,
                                     self.sim.now - bio.submit_time)
            recon.fold(bio.result, bio.offset - recon.start)
            recon.pending -= 1
            if not recon.pending:
                self._settled(recon)
        elif isinstance(exc, TransientCommandError) and \
                attempt < volume.config.max_transient_retries:
            volume.health.transient_retries += 1
            self.sim.schedule(config.TRANSIENT_BACKOFF_S,
                              self._read_survivor, recon, device, bio.offset,
                              bio.offset + bio.length, attempt + 1)
        elif recon.pending > 0:   # the first failure; nothing settles now
            recon.pending = -1
            # Not a lone chain: a survivor rejected at submission fails in
            # the tick (even the fan-out) of pieces failing on their own.
            # Keep a reconstruction's failure one hop behind those, so the
            # same piece's error is the one the read fails with.
            self.sim.schedule(0.0, recon.then, recon, exc)

    def _settled(self, recon: Reconstruction) -> None:
        if recon.accumulator is None:   # no source had bytes to give
            recon.accumulator = np.zeros(recon.length, np.uint8)
        if recon.logical:
            self.volume.stats.reads += recon.units
            self.volume.stats.bytes_read += recon.logical
        recon.then(recon, None)


def _slot(layout, device: int) -> Optional[int]:
    """``device``'s data-unit index in a stripe, None for its parity."""
    return None if device == layout.parity_device \
        else layout.data_devices.index(device)
