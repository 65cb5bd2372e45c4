"""mdraid-style RAID-5 over conventional SSDs — the paper's baseline.

Implements the classic md RAID-5 write paths over the block interface:
full-stripe writes compute parity directly; sub-stripe writes use
read-modify-write or reconstruct-write (whichever needs fewer device
reads), accelerated by a stripe cache like md's (128 MiB in the paper's
configuration).  Runs journal-less, matching §6's setup ("mdraid was
configured to run without a journal volume, ensuring maximum
performance"), so it retains the RAID-5 write hole the paper discusses.

Degraded reads reconstruct from the survivors; ``resync`` rebuilds a
replaced device by scanning the *entire* address space — the behaviour
Figure 12 contrasts with RAIZN's valid-data-only rebuild.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..block.bio import Bio, Op
from ..block.device import BlockDevice, DeviceStats
from ..conv.device import ConventionalSSD
from ..errors import (
    DataLossError,
    DeviceError,
    InvalidAddressError,
    RaiznError,
    ZoneStateError,
)
from ..raizn.parity import xor_into
from ..sim import Event, Lock, ReadAhead, Simulator
from ..units import KiB


@dataclasses.dataclass
class ResyncReport:
    """Outcome of a full-device resync, for TTR accounting."""

    device_index: int
    bytes_written: int
    started_at: float
    finished_at: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class StripeCache:
    """LRU cache of stripe contents (md's stripe cache, §2.2).

    Each entry caches the data chunks and parity of one stripe so that
    sub-stripe writes can recompute parity without device reads.
    """

    def __init__(self, num_stripes: int, num_data: int):
        self.capacity = max(1, num_stripes)
        self.num_data = num_data
        self._entries: "OrderedDict[int, List[Optional[bytes]]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, stripe: int) -> Optional[List[Optional[bytes]]]:
        """Chunks (data 0..D-1 then parity) of ``stripe``, if cached."""
        entry = self._entries.get(stripe)
        if entry is not None:
            self._entries.move_to_end(stripe)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put(self, stripe: int, chunks: List[Optional[bytes]]) -> None:
        self._entries[stripe] = chunks
        self._entries.move_to_end(stripe)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self) -> None:
        self._entries.clear()


class MdraidVolume:
    """A journal-less RAID-5 logical block device over conventional SSDs."""

    def __init__(
        self,
        sim: Simulator,
        devices: List[Optional[ConventionalSSD]],
        chunk_bytes: int = 64 * KiB,
        stripe_cache_bytes: int = 128 * 1024 * KiB,
    ):
        if len(devices) < 3:
            raise RaiznError("RAID-5 needs at least 3 devices")
        template = next(d for d in devices if d is not None)
        for dev in devices:
            if dev is not None and dev.size_bytes != template.size_bytes:
                raise RaiznError("array devices must have identical capacity")
        self.sim = sim
        self.devices: List[Optional[BlockDevice]] = list(devices)
        self.num_devices = len(devices)
        self.num_data = self.num_devices - 1
        self.chunk = chunk_bytes
        self.stripe_width = self.num_data * chunk_bytes
        self.device_capacity = template.size_bytes
        self.capacity = self.num_data * template.size_bytes
        self.stripes = template.size_bytes // chunk_bytes
        cache_stripes = stripe_cache_bytes // (self.num_devices * chunk_bytes)
        self.cache = StripeCache(cache_stripes, self.num_data)
        self.failed = [dev is None for dev in devices]
        self.stats = DeviceStats()
        self._stripe_locks: Dict[int, Lock] = {}
        self._pending: Dict[int, "_PendingStripe"] = {}
        #: md-style plugging: sub-stripe writes to the same stripe are
        #: batched for this long (or until the stripe fills) and handled
        #: as one parity update, the way raid5d drains its stripe queue.
        self.plug_delay = 20e-6
        self._resyncing = False

    # -- layout ------------------------------------------------------------------

    def layout(self, stripe: int) -> Tuple[int, List[int]]:
        """(parity_device, data_devices) for one stripe (left-symmetric)."""
        n = self.num_devices
        parity = (n - 1 - stripe % n) % n
        data = [(parity + 1 + i) % n for i in range(self.num_data)]
        return parity, data

    def lba_to_chunk(self, lba: int) -> Tuple[int, int, int]:
        """(stripe, chunk_index, offset_in_chunk) of one LBA."""
        stripe = lba // self.stripe_width
        in_stripe = lba % self.stripe_width
        return stripe, in_stripe // self.chunk, in_stripe % self.chunk

    def chunk_pba(self, stripe: int) -> int:
        """Device byte offset of any of this stripe's chunks."""
        return stripe * self.chunk

    # -- submission ------------------------------------------------------------------

    def submit(self, bio: Bio) -> Event:
        """Submit a logical bio; the event succeeds with the completed bio."""
        bio.submit_time = self.sim.now
        done = self.sim.event()
        try:
            bio.check_alignment()
            if bio.op == Op.READ:
                if bio.end_offset > self.capacity:
                    raise InvalidAddressError("read beyond volume capacity")
                self.sim.process(self._run_read(bio, done))
            elif bio.op == Op.WRITE:
                if bio.end_offset > self.capacity:
                    raise InvalidAddressError("write beyond volume capacity")
                self.sim.process(self._run_write(bio, done))
            elif bio.op == Op.FLUSH:
                self.sim.process(self._run_flush(bio, done))
            elif bio.op == Op.DISCARD:
                self.sim.process(self._run_discard(bio, done))
            else:
                raise ZoneStateError(f"mdraid does not support {bio.op}")
        except (RaiznError, DeviceError) as exc:
            self.sim.schedule(0.0, done.fail, exc)
        return done

    def execute(self, bio: Bio) -> Bio:
        """Synchronously run one bio to completion (drains the event loop)."""
        done = self.submit(bio)
        self.sim.run()
        if not done.ok:
            raise done.value
        return done.value

    # -- read path ----------------------------------------------------------------------

    def _run_read(self, bio: Bio, done: Event):
        try:
            out = yield from self._read_span(bio.offset, bio.length)
        except (DeviceError, RaiznError) as exc:
            done.fail(exc)
            return
        bio.result = out
        self.stats.account(bio)
        bio.complete_time = self.sim.now
        done.succeed(bio)

    def _read_span(self, offset: int, length: int):
        """Coalesced read: merge per-device contiguous chunk runs.

        Chunks a device contributes to consecutive stripes are contiguous
        in its address space, so the block layer merges them into large
        device reads — the behaviour that gives md its sequential-read
        edge at small chunk sizes (§6.1).
        """
        pieces = []  # (device, pba, length, output offset)
        position = offset
        while position < offset + length:
            stripe, index, in_chunk = self.lba_to_chunk(position)
            take = min(offset + length - position, self.chunk - in_chunk)
            _parity, data_devs = self.layout(stripe)
            pieces.append((data_devs[index],
                           self.chunk_pba(stripe) + in_chunk, take,
                           position - offset))
            position += take
        merged = []
        for device, pba, take, out_offset in pieces:
            if merged and merged[-1][0] == device \
                    and merged[-1][1] + merged[-1][2] == pba \
                    and not self.failed[device]:
                previous = merged.pop()
                merged.append((device, previous[1], previous[2] + take,
                               previous[3] + [(pba, take, out_offset)]))
            else:
                merged.append((device, pba, take,
                               [(pba, take, out_offset)]))
        out = bytearray(length)
        events = []
        for device, pba, take, parts in merged:
            if self.failed[device]:
                for part_pba, part_take, out_offset in parts:
                    stripe = part_pba // self.chunk
                    in_chunk = part_pba % self.chunk
                    _parity, data_devs = self.layout(stripe)
                    index = data_devs.index(device)
                    chunk = yield from self._read_piece(
                        stripe, index, in_chunk, part_take)
                    out[out_offset:out_offset + part_take] = chunk
                continue
            event = self.devices[device].submit(Bio.read(pba, take))

            def place(ev, base=pba, segments=parts):
                if ev.ok:
                    for part_pba, part_take, out_offset in segments:
                        start = part_pba - base
                        out[out_offset:out_offset + part_take] = \
                            ev.value.result[start:start + part_take]
            event.add_callback(place)
            events.append(event)
        if events:
            yield self.sim.all_of(events)
        return bytes(out)

    def _read_piece(self, stripe: int, index: int, in_chunk: int, take: int):
        parity_dev, data_devs = self.layout(stripe)
        device = data_devs[index]
        pba = self.chunk_pba(stripe) + in_chunk
        if not self.failed[device]:
            result = yield self.devices[device].submit(Bio.read(pba, take))
            return result.result
        # Degraded read: XOR all survivors, parity included.
        sources = []
        for other in range(self.num_devices):
            if other == device:
                continue
            if self.failed[other]:
                raise DataLossError("two failed devices in RAID-5")
            sources.append(self.devices[other].submit(Bio.read(pba, take)))
        results = yield self.sim.all_of(sources)
        out = bytearray(take)
        for piece in results:
            xor_into(out, piece.result)
        return bytes(out)

    # -- write path ---------------------------------------------------------------------

    def _run_write(self, bio: Bio, done: Event):
        try:
            events = []
            position = bio.offset
            data_pos = 0
            while data_pos < bio.length:
                stripe = position // self.stripe_width
                in_stripe = position % self.stripe_width
                take = min(bio.length - data_pos, self.stripe_width - in_stripe)
                chunk = bio.data[data_pos:data_pos + take]
                events.append(self._stage_write(stripe, in_stripe, chunk))
                position += take
                data_pos += take
            yield self.sim.all_of(events)
        except (DeviceError, RaiznError) as exc:
            done.fail(exc)
            return
        self.stats.account(bio)
        bio.complete_time = self.sim.now
        done.succeed(bio)

    def _stripe_lock(self, stripe: int) -> Lock:
        lock = self._stripe_locks.get(stripe)
        if lock is None:
            lock = Lock(self.sim)
            self._stripe_locks[stripe] = lock
        return lock

    def _stage_write(self, stripe: int, in_stripe: int,
                     data: bytes) -> Event:
        """Absorb a stripe segment into the plug queue; returns an event
        that succeeds once the segment's data and parity are on devices.

        A stripe flushes immediately when fully covered (the full-stripe
        fast path) and otherwise after ``plug_delay`` — so deep queues of
        small sequential writes coalesce into whole-stripe parity
        updates, as md's raid5d batching achieves."""
        pending = self._pending.get(stripe)
        if pending is None:
            pending = _PendingStripe(self.stripe_width)
            self._pending[stripe] = pending
            self.sim.schedule(self.plug_delay, self._unplug, stripe,
                              pending)
        event = self.sim.event()
        pending.absorb(in_stripe, data, event)
        if pending.full_cover:
            self._unplug(stripe, pending)
        return event

    def _unplug(self, stripe: int, pending: "_PendingStripe") -> None:
        if self._pending.get(stripe) is pending:
            del self._pending[stripe]
            self.sim.process(self._flush_pending(stripe, pending))

    def _flush_pending(self, stripe: int, pending: "_PendingStripe"):
        lock = self._stripe_lock(stripe)
        yield lock.request()
        try:
            if pending.full_cover:
                yield from self._full_stripe_write(stripe, pending.data)
            else:
                for lo, hi in pending.intervals:
                    yield from self._partial_stripe_write(
                        stripe, lo, bytes(pending.data[lo:hi]))
        except (DeviceError, RaiznError) as exc:
            for event in pending.waiters:
                event.fail(exc)
            return
        finally:
            lock.release()
            if self._stripe_locks.get(stripe) is lock and \
                    lock.queue_length == 0 and lock.in_use == 0:
                del self._stripe_locks[stripe]
        for event in pending.waiters:
            event.succeed()

    def _full_stripe_write(self, stripe: int, data: bytearray):
        parity_dev, data_devs = self.layout(stripe)
        pba = self.chunk_pba(stripe)
        # The devices copy out of the plugged buffer itself (nothing
        # absorbs into it once unplugged) and parity is one reduction over
        # it seen as (num_data, chunk), as StripeBuffer.full_parity does.
        view = memoryview(data)
        chunks = [view[i * self.chunk:(i + 1) * self.chunk]
                  for i in range(self.num_data)]
        parity = np.bitwise_xor.reduce(
            np.frombuffer(data, dtype=np.uint8).reshape(
                self.num_data, self.chunk), axis=0).tobytes()
        writes = []
        for i, device in enumerate(data_devs):
            if not self.failed[device]:
                writes.append(self.devices[device].submit(
                    Bio.write(pba, chunks[i])))
        if not self.failed[parity_dev]:
            writes.append(self.devices[parity_dev].submit(
                Bio.write(pba, parity)))
        yield self.sim.all_of(writes)
        self.cache.put(stripe, [bytes(c) for c in chunks] + [parity])

    def _partial_stripe_write(self, stripe: int, in_stripe: int, data: bytes):
        """Sub-stripe write: RMW or RCW, preferring fewer device reads.

        With no cached stripe and no failures, the fast path is a
        subrange read-modify-write: md reads only the covered sectors of
        the old data and parity, XORs the delta, and writes the covered
        sectors back — small writes cost two small reads and two small
        writes, not whole-chunk traffic.
        """
        parity_dev, data_devs = self.layout(stripe)
        pba = self.chunk_pba(stripe)
        first = in_stripe // self.chunk
        last = (in_stripe + len(data) - 1) // self.chunk
        touched = list(range(first, last + 1))
        cached = self.cache.get(stripe)
        healthy = not self.failed[parity_dev] and \
            not any(self.failed[data_devs[i]] for i in touched)
        if cached is None and healthy and len(touched) < self.num_data:
            yield from self._subrange_rmw(stripe, in_stripe, data)
            return
        chunks: List[Optional[bytes]] = (list(cached) if cached
                                         else [None] * (self.num_data + 1))

        rmw_reads = sum(1 for i in touched if chunks[i] is None) + \
            (1 if chunks[self.num_data] is None else 0)
        rcw_reads = sum(1 for i in range(self.num_data)
                        if i not in touched and chunks[i] is None)
        use_rcw = rcw_reads < rmw_reads or self.failed[parity_dev] or \
            any(self.failed[data_devs[i]] for i in touched)

        if use_rcw:
            yield from self._fill_chunks(
                stripe, chunks,
                [i for i in range(self.num_data) if chunks[i] is None])
        else:
            need = [i for i in touched if chunks[i] is None]
            if chunks[self.num_data] is None:
                need = need + [self.num_data]
            yield from self._fill_chunks(stripe, chunks, need)

        old = [chunks[i] for i in touched]
        self._patch_chunks(chunks, in_stripe, data)

        parity = bytearray(self.chunk)
        if use_rcw:
            for i in range(self.num_data):
                xor_into(parity, chunks[i])
        else:
            parity[:] = chunks[self.num_data]
            for i, old_chunk in zip(touched, old):
                xor_into(parity, old_chunk)
                xor_into(parity, chunks[i])
        chunks[self.num_data] = bytes(parity)

        # Only the modified byte ranges hit the devices (md writes the
        # covered sectors, not whole chunks); the parity write covers the
        # union of the per-chunk modified ranges.
        writes = []
        parity_lo, parity_hi = self.chunk, 0
        for i in touched:
            lo = max(0, in_stripe - i * self.chunk)
            hi = min(self.chunk, in_stripe + len(data) - i * self.chunk)
            parity_lo, parity_hi = min(parity_lo, lo), max(parity_hi, hi)
            device = data_devs[i]
            if not self.failed[device]:
                writes.append(self.devices[device].submit(
                    Bio.write(pba + lo, chunks[i][lo:hi])))
        if not self.failed[parity_dev]:
            writes.append(self.devices[parity_dev].submit(Bio.write(
                pba + parity_lo,
                chunks[self.num_data][parity_lo:parity_hi])))
        yield self.sim.all_of(writes)
        self.cache.put(stripe, list(chunks))

    def _subrange_rmw(self, stripe: int, in_stripe: int, data: bytes):
        """Uncached sub-stripe write via sector-granular RMW."""
        parity_dev, data_devs = self.layout(stripe)
        pba = self.chunk_pba(stripe)
        # Per-chunk covered ranges and the parity range (their union).
        ranges = []
        position = 0
        parity_lo, parity_hi = self.chunk, 0
        while position < len(data):
            index = (in_stripe + position) // self.chunk
            lo = (in_stripe + position) % self.chunk
            take = min(len(data) - position, self.chunk - lo)
            ranges.append((index, lo, lo + take, position))
            parity_lo, parity_hi = min(parity_lo, lo), max(parity_hi,
                                                           lo + take)
            position += take
        reads = [self.devices[data_devs[index]].submit(
            Bio.read(pba + lo, hi - lo)) for index, lo, hi, _pos in ranges]
        reads.append(self.devices[parity_dev].submit(
            Bio.read(pba + parity_lo, parity_hi - parity_lo)))
        results = yield self.sim.all_of(reads)
        old_parity = bytearray(results[-1].result)
        # parity' = parity ^ old_data ^ new_data over the covered bytes.
        for (index, lo, hi, position), old in zip(ranges, results[:-1]):
            xor_into(old_parity, old.result, lo - parity_lo)
            xor_into(old_parity, data[position:position + hi - lo],
                     lo - parity_lo)
        writes = [self.devices[data_devs[index]].submit(
            Bio.write(pba + lo, data[position:position + hi - lo]))
            for index, lo, hi, position in ranges]
        writes.append(self.devices[parity_dev].submit(
            Bio.write(pba + parity_lo, bytes(old_parity))))
        yield self.sim.all_of(writes)

    def _fill_chunks(self, stripe: int,
                     chunks: List[Optional[bytes]],
                     indices: List[int]):
        """Read the listed chunk slots (data or parity) from their devices.

        A slot whose device has failed is reconstructed from the other
        devices (degraded RMW), which is how md serves sub-stripe writes
        on a degraded array.
        """
        parity_dev, data_devs = self.layout(stripe)
        pba = self.chunk_pba(stripe)
        reads = []
        slots = []
        degraded_slots = []
        for index in indices:
            device = parity_dev if index == self.num_data else data_devs[index]
            if self.failed[device]:
                degraded_slots.append(index)
                continue
            reads.append(self.devices[device].submit(Bio.read(pba, self.chunk)))
            slots.append(index)
        if reads:
            results = yield self.sim.all_of(reads)
            for slot, result in zip(slots, results):
                chunks[slot] = result.result
        for slot in degraded_slots:
            chunks[slot] = yield from self._reconstruct_chunk(stripe, slot)

    def _reconstruct_chunk(self, stripe: int, slot: int):
        """XOR all surviving chunks to recover one failed chunk."""
        parity_dev, data_devs = self.layout(stripe)
        failed_device = parity_dev if slot == self.num_data \
            else data_devs[slot]
        pba = self.chunk_pba(stripe)
        sources = []
        for device in range(self.num_devices):
            if device == failed_device:
                continue
            if self.failed[device]:
                raise DataLossError("two failed devices in RAID-5")
            sources.append(self.devices[device].submit(
                Bio.read(pba, self.chunk)))
        results = yield self.sim.all_of(sources)
        acc = bytearray(self.chunk)
        for piece in results:
            xor_into(acc, piece.result)
        return bytes(acc)

    def _patch_chunks(self, chunks: List[Optional[bytes]], in_stripe: int,
                      data: bytes) -> None:
        position = 0
        while position < len(data):
            index = (in_stripe + position) // self.chunk
            in_chunk = (in_stripe + position) % self.chunk
            take = min(len(data) - position, self.chunk - in_chunk)
            base = bytearray(chunks[index] if chunks[index] is not None
                             else bytes(self.chunk))
            base[in_chunk:in_chunk + take] = data[position:position + take]
            chunks[index] = bytes(base)
            position += take

    # -- flush / discard ------------------------------------------------------------------

    def _run_flush(self, bio: Bio, done: Event):
        try:
            yield self.sim.all_of([
                dev.submit(Bio.flush()) for dev in self.devices
                if dev is not None])
        except DeviceError as exc:
            done.fail(exc)
            return
        self.stats.account(bio)
        bio.complete_time = self.sim.now
        done.succeed(bio)

    def _run_discard(self, bio: Bio, done: Event):
        """TRIM: forwarded per-chunk to the data devices (parity kept)."""
        try:
            position = bio.offset
            remaining = bio.length
            events = []
            while remaining > 0:
                stripe, index, in_chunk = self.lba_to_chunk(position)
                take = min(remaining, self.chunk - in_chunk)
                _parity, data_devs = self.layout(stripe)
                device = data_devs[index]
                if not self.failed[device]:
                    events.append(self.devices[device].submit(Bio(
                        Op.DISCARD, offset=self.chunk_pba(stripe) + in_chunk,
                        length=take)))
                position += take
                remaining -= take
            yield self.sim.all_of(events)
        except DeviceError as exc:
            done.fail(exc)
            return
        self.stats.account(bio)
        bio.complete_time = self.sim.now
        done.succeed(bio)

    # -- failure and resync ------------------------------------------------------------------

    def fail_device(self, index: int, remove: bool = True) -> None:
        """Fail (and optionally remove) one array device."""
        if self.failed[index]:
            return
        if sum(self.failed) >= 1:
            raise DataLossError("second failure exceeds RAID-5 tolerance")
        dev = self.devices[index]
        if dev is not None:
            dev.fail_device()
        self.failed[index] = True
        if remove:
            self.devices[index] = None
        self.cache.invalidate()

    def resync(self, index: int, new_device: ConventionalSSD) -> ResyncReport:
        """Synchronously rebuild device ``index``; drains the event loop."""
        return self.sim.run_process(
            self.resync_process(index, new_device))

    def resync_process(self, index: int, new_device: ConventionalSSD):
        """md-style resync: reconstruct the ENTIRE device address space.

        mdraid has no knowledge of which blocks hold live data, so the
        resync time is constant regardless of array fill (Figure 12).
        """
        if not self.failed[index]:
            raise RaiznError(f"device {index} has not failed")
        if new_device.size_bytes != self.device_capacity:
            raise RaiznError("replacement device capacity mismatch")
        started_at = self.sim.now
        self.devices[index] = new_device
        survivors = [dev for other, dev in enumerate(self.devices)
                     if other != index and not self.failed[other]]
        resync_span = 8 * self.chunk  # chunks reconstructed per batch
        # The same windowing as RAIZN's rebuild: batches are read ahead,
        # retired in address order and written without waiting for the
        # write before, so the replacement's channels stay full.
        depth = new_device.model.saturating_depth
        cursor = 0

        def issue() -> Optional[Event]:
            nonlocal cursor
            if cursor >= self.device_capacity:
                return None
            span = min(resync_span, self.device_capacity - cursor)
            reads = [dev.submit(Bio.read(cursor, span)) for dev in survivors]
            cursor += span
            return self.sim.all_of(reads)

        ahead = ReadAhead(issue, depth)
        writes: Deque[Event] = deque()
        bytes_written = 0
        while (pieces := (yield from ahead.take())) is not None:
            out = bytearray(pieces[0].length)
            for piece in pieces:
                xor_into(out, piece.result)
            if len(writes) == depth:
                yield writes.popleft()
            writes.append(new_device.submit(Bio.write(bytes_written,
                                                      bytes(out))))
            bytes_written += len(out)
        while writes:
            yield writes.popleft()
        self.failed[index] = False
        self.cache.invalidate()
        return ResyncReport(device_index=index, bytes_written=bytes_written,
                            started_at=started_at, finished_at=self.sim.now)


class _PendingStripe:
    """Plugged sub-stripe writes awaiting one batched parity update."""

    __slots__ = ("data", "intervals", "waiters", "width")

    def __init__(self, width: int):
        self.width = width
        self.data = bytearray(width)
        self.intervals: List[Tuple[int, int]] = []
        self.waiters: List[Event] = []

    def absorb(self, offset: int, data: bytes, event: Event) -> None:
        end = offset + len(data)
        self.data[offset:end] = data
        merged = []
        lo, hi = offset, end
        for existing_lo, existing_hi in self.intervals:
            if existing_hi < lo or existing_lo > hi:
                merged.append((existing_lo, existing_hi))
            else:
                lo, hi = min(lo, existing_lo), max(hi, existing_hi)
        merged.append((lo, hi))
        merged.sort()
        self.intervals = merged
        self.waiters.append(event)

    @property
    def full_cover(self) -> bool:
        return self.intervals == [(0, self.width)]
