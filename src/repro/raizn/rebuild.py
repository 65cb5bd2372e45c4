"""Device replacement and rebuild (paper §4.2, Figure 12).

RAIZN rebuilds a replaced device *zone by zone*, active zones first, and
only up to each logical zone's write pointer — the ZNS interface makes
"which addresses hold valid data" a free query, so empty zones and the
unwritten tails of open zones are skipped entirely.  mdraid, by contrast,
resyncs the full device address space regardless of fill (the Figure 12
contrast).

During rebuild, reads and writes touching not-yet-rebuilt zones are served
in degraded mode.  Plain stripes' units are the XOR of their survivors',
read in runs; any other unit comes through the volume's (relocation- and
parity-aware) logical read path, so relocated stripe units are healed onto
the fresh device at their correct physical addresses.

Reconstruction is a bounded pipeline (:class:`ZoneStream`): a window of
stripe reconstructions is read ahead, retired in stripe order, and each
retired chunk is written to the replacement without waiting for the
write before it.  The block layer applies a command's write-pointer
effect at submission, so in-order submission is all the zone's
sequential-write contract needs; completions are collected before the
zone is finished and marked rebuilt.  The next zone starts filling while
the previous one drains, so the replacement's channels stay full — the
write bandwidth of the replacement is what bounds time-to-repair.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Iterable, List, Optional

from ..block.bio import Bio, Op
from ..errors import RaiznError
from ..sim import Event, ReadAhead, Simulator
from ..trace.tracer import SITE_BITS
from ..zns.device import ZNSDevice
from ..zns.spec import ZoneState
from .mdzone import DeviceMetadataZones, MetadataRole
from .parity import fold, full_stripe_parity
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


#: Stripe units per survivor command of a run (md's resync reads eight):
#: four or eight lifted ``degraded_rebuild``'s peak RSS 7 % (fuller slots).
RUN_UNITS = 2


class _Run(Event):
    """Lost units of consecutive plain stripes, one read per survivor."""

    __slots__ = ("offset", "size", "units", "logical", "chunk", "pending",
                 "span")


class ZoneStream:
    """What device ``index`` should hold in physical zone ``zone``,
    regenerated in stripe order with read-ahead.

    The one implementation of "regenerate this device's chunk of stripe
    *s*", shared by rebuild (destination: the replacement) and the §5.2
    zone rewrite (destination: the same device).  The lost unit of a
    plain stripe (:meth:`_plain`) is the XOR of the other devices' units
    at its PBA.  Up to :data:`RUN_UNITS` of them in a row are a run: one
    read per survivor, outside the read path's single-flight table (no
    one else wants those bytes), folded as each completes (DESIGN
    decision 14).  Any other unit comes through the logical read path
    alone (relocation units, relocated parity, retries, read-repair):
    its LBA range for data, the whole stripe XORed once for parity; so
    does each unit of a run whose survivor read fails.  Every unit is
    the one logical read it stands for in ``volume.stats``.

    The stream follows the logical write pointer live: once it reports
    caught up, a later :meth:`next_chunk` picks up whatever foreground
    writes have added since.
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
        # ``index``; its channels size the window.
        self.reads = ReadAhead(
            self._issue, volume.devices[index].model.saturating_depth)

    def _plain(self, stripe: int, wp: int) -> bool:
        """The device unavailable for the zone, ``stripe`` complete below
        ``wp``, no relocation unit nor relocated parity, no fail-slow
        scoring, every other device available and holding the unit."""
        volume, zone = self.volume, self.zone
        desc = volume.zone_descs[zone]
        end = zone * volume.phys_zone_size + (stripe + 1) * desc.su
        plain = (stripe + 1) * desc.stripe_width <= wp - desc.start_lba \
            and not (volume._failslow_on or desc.has_relocations
                     or (zone, stripe) in volume.relocated_parity
                     or volume._device_available(self.index, zone))
        for other in self._others:
            plain = plain and volume._device_available(other, zone) and \
                volume.phys[other][zone].write_pointer >= end
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
        run = _Run(volume.sim)
        run.offset, run.units, run.chunk, run.span = offset, 1, None, None
        while not in_unit and run.units < RUN_UNITS \
                and self._plain(stripe + run.units, wp):
            run.units += 1
        run.size = run.logical = run.units * su - in_unit
        run.pending = len(self._others)
        layouts = volume.mapper.stripe_layout
        for s in range(stripe, stripe + run.units):
            if layouts(zone, s).parity_device == self.index:
                run.logical += desc.stripe_width - su   # read as a stripe
        if volume.tracer is not None:
            run.span = (volume._root_code(Op.READ), volume.sim.now)
        self.issued += run.size
        # The read path's hop and trace parent: the devices see one stream.
        volume.sim.schedule(
            0.0, volume.readpath._traced,
            -1 if run.span is None else run.span[0] >> SITE_BITS,
            self._read_survivors, zone * volume.phys_zone_size + offset, run)
        return run

    def _read_survivors(self, pba: int, run: _Run) -> None:
        for other in self._others:
            self.volume.devices[other].submit(Bio.command(
                Op.READ, pba, None, run.size, 0, run, self._folded))

    def _folded(self, bio: Bio) -> None:
        """Fold a survivor read into its run; the first error voids the
        reads still out and leaves the run to :meth:`next_chunk`."""
        run = bio.wctx
        run.pending -= 1
        if run.pending < 0:
            return
        if bio.error is not None:
            run.pending = -1
            run.succeed(run)
            return
        run.chunk = fold(run.chunk, bio.result)
        if run.pending:
            return
        self.volume.stats.reads += run.units
        self.volume.stats.bytes_read += run.logical
        if run.span is not None:
            self.volume.tracer.record_root(*run.span, run.logical)
        run.succeed(run.chunk.data)

    def next_chunk(self):
        """Process-style: the next chunk in zone order, or ``None``
        (without waiting) once caught up with the logical write pointer
        and nothing is in flight."""
        chunk = yield from self.reads.take()
        if chunk is None:
            return None
        if isinstance(chunk, Bio):   # through the logical read path
            chunk = self._chunk(chunk)
        elif isinstance(chunk, _Run):   # its units, one after another
            run, chunk = chunk, b""
            while len(chunk) < run.size:
                chunk += self._chunk((yield self.volume.submit(
                    self._unit_read(run.offset + len(chunk)))))
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
