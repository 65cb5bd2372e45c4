"""Device replacement and rebuild (paper §4.2, Figure 12).

RAIZN rebuilds a replaced device *zone by zone*, active zones first, and
only up to each logical zone's write pointer — the ZNS interface makes
"which addresses hold valid data" a free query, so empty zones and the
unwritten tails of open zones are skipped.  mdraid resyncs the whole
device regardless of fill (the Figure 12 contrast).  Reads and writes of
not-yet-rebuilt zones are served degraded meanwhile.

A zone's lost units are regenerated by :class:`ZoneStream`, in runs, by
the read path's one reconstruction (relocation- and parity-aware), so
relocated units land at their correct PBAs on the fresh device.  Its
bounded read-ahead window retires chunks in stripe order, and each is
written without waiting for the write before it: the block layer applies
a write-pointer effect at submission, so in-order submission is all the
zone's sequential-write contract needs.  The next zone fills while the
previous drains (DESIGN.md, "Rebuild").
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Iterable, List, Optional

from ..block.bio import Bio, Op
from ..errors import DeviceError, RaiznError
from ..sim import Event, ReadAhead, Simulator
from ..trace.tracer import SITE_BITS
from ..zns.device import ZNSDevice
from ..zns.spec import ZoneState
from .mdzone import DeviceMetadataZones, MetadataRole
from .parity import full_stripe_parity
from .stripebuf import give
from .volume import RaiznVolume, RebuildState


@dataclasses.dataclass
class RebuildReport:
    """Outcome of one rebuild, for TTR accounting."""

    device_index: int
    zones_rebuilt: int
    bytes_written: int
    started_at: float
    finished_at: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


def rebuild(sim: Simulator, volume: RaiznVolume, index: int,
            new_device: ZNSDevice) -> RebuildReport:
    """Synchronously replace device ``index``; drains the event loop."""
    return sim.run_process(rebuild_process(sim, volume, index, new_device))


def rebuild_process(sim: Simulator, volume: RaiznVolume, index: int,
                    new_device: ZNSDevice):
    """Process-style rebuild; yields while reconstruction IO is in flight.

    A rebuild that raises leaves the array in plain degraded mode for
    ``index`` — replacement detached, nothing of it in flight — so it can
    be retried onto another device.
    """
    if not volume.failed[index]:
        raise RaiznError(f"device {index} has not failed; nothing to rebuild")
    template = next(d for d in volume.devices if d is not None)
    if (new_device.num_zones != template.num_zones
            or new_device.zone_capacity != template.zone_capacity):
        raise RaiznError("replacement device geometry mismatch")
    started_at = sim.now

    state = RebuildState(index)
    displaced = volume.devices[index], volume.mdzones[index]
    volume.rebuild_state = state
    volume.devices[index] = new_device
    new_device.tracer = volume.tracer
    md_indices = list(range(volume.num_data_zones, template.num_zones))
    volume.mdzones[index] = DeviceMetadataZones(
        sim, new_device, index, md_indices, volume.phys_zone_size,
        volume.phys_zone_capacity, volume._checkpoint)
    volume.failed[index] = False
    # The replacement rejoining (and the per-zone rebuilt_zones gating
    # that _device_available now applies) is a membership transition.
    volume.invalidate_write_plans()

    try:
        pipeline = _Pipeline(sim, volume, state)
        yield from pipeline.run(_rebuild_order(volume))
        # Zones that were empty need no data but must be marked serviceable.
        state.rebuilt_zones.update(range(volume.num_data_zones))
        yield from _rebuild_metadata(sim, volume, index)
        # The reconstructed data must be durable before the rebuild counts
        # as complete: acknowledged-durable (FUA/flushed) data now lives on
        # this device and must survive an immediate power cut.
        yield new_device.submit(Bio.flush())
        pipeline.span("metadata", 0)
    except Exception:
        volume.failed[index] = True
        volume.devices[index], volume.mdzones[index] = displaced
        volume.rebuild_state = None
        volume.invalidate_write_plans()
        raise
    state.done = True
    volume.rebuild_state = None
    # Rebuild completion lifts the rebuilt_zones gating: a fresh epoch.
    volume.invalidate_write_plans()
    return RebuildReport(device_index=index,
                         zones_rebuilt=len(state.rebuilt_zones),
                         bytes_written=state.bytes_rebuilt,
                         started_at=started_at, finished_at=sim.now)


def _rebuild_order(volume: RaiznVolume) -> List[int]:
    """Active (open or closed) zones first, then full zones; empty skipped."""
    active, full = [], []
    for desc in volume.zone_descs:
        if desc.state.is_active:
            active.append(desc.zone)
        elif desc.state is ZoneState.FULL and desc.written_bytes:
            full.append(desc.zone)
    return active + full


def _device_target_extent(volume: RaiznVolume, index: int, zone: int,
                          logical_wp: int) -> int:
    """Bytes device ``index`` should hold in its physical zone ``zone``."""
    desc = volume.zone_descs[zone]
    su = volume.config.stripe_unit_bytes
    in_zone = logical_wp - desc.start_lba
    full_stripes = in_zone // desc.stripe_width
    tail = in_zone % desc.stripe_width
    extent = full_stripes * su
    if tail:
        layout = volume.mapper.stripe_layout(zone, full_stripes)
        if index in layout.data_devices:
            i = layout.data_devices.index(index)
            extent += max(0, min(su, tail - i * su))
        # Parity of an incomplete stripe is not written to the data zone.
    return extent


#: The most stripe units per survivor command of a run (md's resync reads
#: eight).  A run's array is pooled (``stripebuf.take``) from its first
#: survivor bytes to its replacement write: four units leave 8 arrays of
#: 256 KiB in ``degraded_rebuild``'s pool, +0.5 % peak RSS; eight would
#: leave arrays of 512 KiB, a size no stripe buffer shares.
RUN_UNITS = 4


class ZoneStream:
    """What device ``index`` should hold in physical zone ``zone``,
    regenerated in stripe order with read-ahead: the one implementation
    shared by rebuild (to the replacement) and the §5.2 zone rewrite (to
    the same device).  Up to :attr:`run_units` lost units in a row
    (:meth:`_plain`) are a run, one standalone
    :meth:`~repro.raizn.readpath.ReadPath.reconstruct` whose chunk is a
    pooled ``bytearray`` (:class:`_ZoneJob` gives it back); any
    other unit is a logical read (its LBA range for data, the whole stripe
    XORed for parity).  Every unit is the logical read it stands for in
    ``volume.stats``.  The stream follows the logical write pointer: once
    caught up, a later :meth:`next_chunk` picks up what writes added.
    """

    def __init__(self, volume: RaiznVolume, index: int, zone: int):
        self.volume = volume
        self.index = index
        self.zone = zone
        #: Bytes of the device zone whose reconstruction reads are issued.
        self.issued = 0
        #: Bytes of the device zone handed out as chunks.
        self.position = 0
        self._others = [d for d in range(len(volume.devices)) if d != index]
        # Either way the chunks are headed for the device in slot
        # ``index``: its channels size the window, and a run is the
        # zone's units over a full window, one to RUN_UNITS of them.
        depth = volume.devices[index].model.saturating_depth
        self.reads = ReadAhead(self._issue, depth)
        units = volume.phys_zone_capacity // volume.config.stripe_unit_bytes
        #: Stripe units per run.
        self.run_units = max(1, min(units // depth, RUN_UNITS))

    def _plain(self, stripe: int, wp: int) -> bool:
        """The device unavailable for the zone, ``stripe`` complete below
        ``wp``, no fail-slow scoring, every other device available.  A
        survivor's write pointer short of the unit where no relocation
        can hold the rest is a zone reset beneath the stream (ROADMAP
        item 25): that unit goes alone."""
        volume, zone = self.volume, self.zone
        desc = volume.zone_descs[zone]
        end = zone * volume.phys_zone_size + (stripe + 1) * desc.su
        plain = (stripe + 1) * desc.stripe_width <= wp - desc.start_lba \
            and not (volume._failslow_on
                     or volume._device_available(self.index, zone))
        for other in self._others:
            plain = plain and volume._device_available(other, zone) and (
                desc.has_relocations
                or volume.phys[other][zone].write_pointer >= end)
        return plain

    def _unit_read(self, offset: int) -> Bio:
        """The logical read for the chunk from ``offset`` to unit end."""
        desc = self.volume.zone_descs[self.zone]
        stripe, in_unit = divmod(offset, desc.su)
        layout = self.volume.mapper.stripe_layout(self.zone, stripe)
        lba = desc.start_lba + stripe * desc.stripe_width
        if self.index == layout.parity_device:
            # Parity is only ever due for a complete stripe.
            return Bio.read(lba, desc.stripe_width)
        lba += layout.data_devices.index(self.index) * desc.su + in_unit
        return Bio.read(lba, min(desc.su - in_unit, desc.write_pointer - lba))

    def _chunk(self, bio: Bio):
        """A :meth:`_unit_read`'s bytes as a chunk (a stripe's: parity)."""
        if bio.length > self.volume.config.stripe_unit_bytes:
            return full_stripe_parity(bio.result, self.volume.config.num_data)
        return bio.result

    def _issue(self) -> Optional[Event]:
        volume, zone = self.volume, self.zone
        desc = volume.zone_descs[zone]
        wp, offset, su = desc.write_pointer, self.issued, desc.su
        if offset >= _device_target_extent(volume, self.index, zone, wp):
            return None
        stripe, in_unit = divmod(offset, su)
        if not self._plain(stripe, wp):
            bio = self._unit_read(offset)
            self.issued += min(bio.length, su - in_unit)
            return volume.submit(bio)
        # Plain stripes lie inside the extent; a mid-unit resume runs alone.
        units = 1
        while not in_unit and units < self.run_units \
                and self._plain(stripe + units, wp):
            units += 1
        self.issued += units * su - in_unit
        run = Event(volume.sim)
        span = None
        if volume.tracer is not None:
            span = (volume._root_code(Op.READ), volume.sim.now)
        # The read path's hop: the devices see one stream.
        volume.sim.schedule(0.0, self._reconstruct, stripe, units, in_unit,
                            run, span)
        return run

    def _reconstruct(self, stripe: int, units: int, lo: int, run: Event,
                     span) -> None:
        """The run's one standalone reconstruction, under its trace root."""
        try:
            self.volume.readpath.reconstruct(
                self.index, self.zone, stripe, units, lo,
                self.volume.config.stripe_unit_bytes, self._rebuilt,
                (run, span), -1 if span is None else span[0] >> SITE_BITS,
                standalone=True)
        except (DeviceError, RaiznError) as exc:
            run.fail(exc)

    def _rebuilt(self, recon, exc: Optional[BaseException]) -> None:
        """The run's chunk, or its reconstruction's error."""
        run, span = recon.context
        if exc is not None:
            run.fail(exc)
            return
        if span is not None:
            self.volume.tracer.record_root(*span, recon.logical)
        run.succeed(recon.array)

    def next_chunk(self):
        """Process-style: the next chunk in zone order, or ``None``
        (without waiting) once caught up with the logical write pointer
        and nothing is in flight."""
        chunk = yield from self.reads.take()
        if isinstance(chunk, Bio):   # through the logical read path
            chunk = self._chunk(chunk)
        elif chunk is None:
            return None
        self.position += len(chunk)
        return chunk


def _settle(events: Iterable[Event]):
    """Process-style: wait until every event has triggered, swallowing
    failures — the abandon path of a failed pipeline, which must leave
    none of its commands in flight behind it."""
    for event in events:
        if not event.triggered:
            try:
                yield event
            except Exception:  # noqa: BLE001 - the first failure is re-raised by the caller
                pass


class _Pipeline:
    """The zone jobs of one rebuild and what they share."""

    def __init__(self, sim: Simulator, volume: RaiznVolume,
                 state: RebuildState):
        self.sim = sim
        self.volume = volume
        self.state = state
        self.device = volume.devices[state.device_index]
        #: The first job failure; the other jobs stop issuing and fail
        #: with it too, so whichever event ``run`` waits on surfaces it.
        self.error: Optional[Exception] = None
        #: Where the previous ``rebuild`` span ended (spans tile the run).
        self._span_mark = sim.now

    def run(self, zones: List[int]):
        """Process-style: rebuild ``zones`` in order.

        One zone fills at a time; the ones before it drain their writes
        and finish behind it.  A zone counts as held open on the
        replacement from its first write until it is sealed, so no more
        than the device's open-zone limit are in the pipeline at once
        (in practice two or three: sealing takes about as long as
        filling).
        """
        open_limit = self.device.budget.max_open
        jobs: Deque[_ZoneJob] = deque()
        try:
            for zone in zones:
                if len(jobs) == open_limit:
                    yield jobs.popleft().sealed
                jobs.append(_ZoneJob(self, zone))
                yield jobs[-1].filled
            while jobs:
                yield jobs.popleft().sealed
        except Exception:
            yield from _settle(job.sealed for job in jobs)
            raise

    def span(self, name: str, nbytes: int) -> None:
        """Record the ``rebuild`` span from the previous one's end to now."""
        tracer = self.volume.tracer
        if tracer is None:
            return
        span = tracer.begin("rebuild", name, self.device.name, nbytes)
        span.start, self._span_mark = self._span_mark, self.sim.now
        tracer.end(span)


class _ZoneJob:
    """One physical zone's trip through the pipeline.

    ``filled`` fires once every chunk due at that moment has been
    submitted to the replacement (the next zone may start reading);
    ``sealed`` once the writes are collected, the zone is finished if its
    logical zone is, and it is marked rebuilt.  Both fail with the job's
    error, after the job has settled everything it had in flight.
    """

    def __init__(self, pipeline: _Pipeline, zone: int):
        self.pipeline = pipeline
        self.zone = zone
        self.filled = Event(pipeline.sim)
        self.sealed = Event(pipeline.sim)
        self.stream = ZoneStream(pipeline.volume,
                                 pipeline.state.device_index, zone)
        #: Replacement writes submitted and not yet collected, in order.
        self.writes: Deque[Event] = deque()
        pipeline.sim.process(self._run())

    def _run(self):
        try:
            yield from self._rebuild()
        except Exception as exc:  # noqa: BLE001 - delivered through the events
            pipeline = self.pipeline
            if pipeline.error is None:
                pipeline.error = exc
            yield from _settle([*self.stream.reads.pending, *self.writes])
            for event in (self.filled, self.sealed):
                if not event.triggered:
                    event.fail(pipeline.error)
        else:
            self.sealed.succeed()

    def _rebuild(self):
        pipeline = self.pipeline
        volume, state, device = pipeline.volume, pipeline.state, \
            pipeline.device
        stream, writes = self.stream, self.writes
        zone_pba = self.zone * volume.phys_zone_size
        # Loops until the logical write pointer is stable across a drain,
        # so writes arriving during the rebuild (served degraded) are
        # caught up.
        while True:
            if pipeline.error is not None:
                raise pipeline.error
            position = stream.position
            chunk = yield from stream.next_chunk()
            if chunk is None:
                if not self.filled.triggered:
                    self.filled.succeed()
                if not writes:
                    break
                while writes:
                    yield writes.popleft()
                continue
            if len(writes) == stream.reads.depth:
                yield writes.popleft()
            writes.append(device.submit(Bio.write(zone_pba + position,
                                                  chunk)))
            state.bytes_rebuilt += len(chunk)
            if type(chunk) is bytearray:
                # A run's (a logical read's chunk is bytes): the device
                # copied it into its media at submit.
                give(chunk)
        desc = volume.zone_descs[self.zone]
        pdesc = volume.phys[state.device_index][self.zone]
        pdesc.write_pointer = zone_pba + stream.position
        if desc.state is ZoneState.FULL:
            # Written to capacity, the device made it FULL on the last
            # write; a finish would only queue behind the next zone.
            if stream.position != volume.phys_zone_capacity:
                yield device.submit(Bio.zone_finish(zone_pba))
            pdesc.state = ZoneState.FULL
        elif stream.position:
            pdesc.state = ZoneState.CLOSED
        # Relocations that lived on the dead device are healed: the rebuilt
        # data sits at its correct PBA on the fresh device.
        heal_relocations(volume, state.device_index, self.zone)
        state.rebuilt_zones.add(self.zone)
        counters = volume.rebuild_counters
        if counters is not None:   # tracing only, like the span
            counters["zones"] += 1
            counters["bytes"] += stream.position
            counters["peak_inflight"] = max(counters["peak_inflight"],
                                            stream.reads.peak)
            pipeline.span("zone", stream.position)


def heal_relocations(volume: RaiznVolume, index: int, zone: int) -> None:
    """Device ``index``'s share of ``zone`` now sits at its proper PBAs:
    drop the relocation units and relocated parity that stood in for it."""
    zone_of = volume.mapper.zone_of
    for key in [k for k in volume.relocated_parity if k[0] == zone
                and volume.mapper.stripe_layout(zone, k[1]).parity_device
                == index]:
        del volume.relocated_parity[key]
    volume.relocations.discard(
        unit.su_lba for unit in volume.relocations.units_on_device(index)
        if zone_of(unit.su_lba) == zone)
    volume.relocations.rebuild_counters(lambda unit: zone_of(unit.su_lba))
    volume.zone_descs[zone].has_relocations = any(
        zone_of(unit.su_lba) == zone for unit in volume.relocations.units())


def _rebuild_metadata(sim: Simulator, volume: RaiznVolume, index: int):
    """Re-persist replicated metadata to the fresh device (§4.3).

    Non-replicated metadata that died with the old device (its partial
    parity and relocation logs) is re-created from the in-memory state.
    The superblock heads the general checkpoint and goes out FUA.
    """
    mdz = volume.mdzones[index]
    for position, entry in enumerate(
            volume._checkpoint(MetadataRole.GENERAL, index)):
        yield from mdz.append(MetadataRole.GENERAL, entry, fua=position == 0)
    for entry in volume._checkpoint(MetadataRole.PARTIAL_PARITY, index):
        yield from mdz.append(MetadataRole.PARTIAL_PARITY, entry)
