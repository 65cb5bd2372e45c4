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

Every member command completes through ``bio.end_io`` into a
:class:`_Join`, which counts one batch of commands and runs its
continuation one hop after the last completes — or one hop after the
first error, with that error.  A logical bio is a :class:`_Request`; an
unplugged stripe runs under its stripe lock as a chain of such joins.
Which hop each step takes: DESIGN.md, "mdraid".
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

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
from ..raizn.parity import full_stripe_parity, xor_into
from ..sim import Event, ReadAhead, Simulator
from ..units import KiB

#: md's stripe cache size in the paper's configuration (128 MiB).
STRIPE_CACHE_BYTES = 128 * 1024 * KiB


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
    sub-stripe writes can recompute parity without device reads.  Chunks
    may be views of a buffer nothing writes any more (an unplugged
    stripe's); readers never write through them.
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


class _Join:
    """A counted batch — member commands, or a write's stripe segments:
    ``then(join)`` runs one hop after the last member settles (``bios``
    hold the commands, in issue order), ``fail(exc)`` one hop after the
    first error, and nothing runs for the stragglers of a failed batch."""

    __slots__ = ("sim", "pending", "bios", "then", "fail")

    def __init__(self, sim: Simulator, then: Callable, fail: Callable):
        self.sim = sim
        self.pending = 0
        self.bios: List[Bio] = []
        self.then = then
        self.fail = fail

    def add(self, bio: Bio) -> None:
        self.bios.append(bio)
        self.pending += 1

    def settle(self, exc: Optional[BaseException] = None) -> None:
        if self.pending < 0:
            return
        if exc is not None:
            self.pending = -1
            self.sim.schedule(0.0, self.fail, exc)
            return
        self.pending -= 1
        if not self.pending:
            self.sim.schedule(0.0, self.then, self)


class _Request:
    """One logical bio and the event its submitter waits on."""

    __slots__ = ("volume", "bio", "done")

    def __init__(self, volume: "MdraidVolume", bio: Bio, done: Event):
        self.volume = volume
        self.bio = bio
        self.done = done

    def complete(self, _join: Optional[_Join] = None) -> None:
        bio = self.bio
        self.volume.stats.account(bio)
        bio.complete_time = self.volume.sim.now
        self.done.succeed(bio)


class MdraidVolume:
    """A journal-less RAID-5 logical block device over conventional SSDs."""

    def __init__(
        self,
        sim: Simulator,
        devices: List[Optional[ConventionalSSD]],
        chunk_bytes: int = 64 * KiB,
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
        cache_stripes = STRIPE_CACHE_BYTES // (self.num_devices * chunk_bytes)
        self.cache = StripeCache(cache_stripes, self.num_data)
        self.failed = [dev is None for dev in devices]
        self.stats = DeviceStats()
        #: Stripes whose lock is held, each with its waiting stripes.
        self._stripe_locks: Dict[int, Deque["_PendingStripe"]] = {}
        self._pending: Dict[int, "_PendingStripe"] = {}
        #: Member reads in flight while a member has failed, keyed
        #: ``(device, pba, length)``: ``[key, direct, bio, join, ...]``.
        self._inflight: Dict[Tuple[int, int, int], list] = {}
        #: md-style plugging: sub-stripe writes to the same stripe are
        #: batched for this long (or until the stripe fills) and handled
        #: as one parity update, the way raid5d drains its stripe queue.
        self.plug_delay = 20e-6
        #: While ``resync_process`` runs: the member it rebuilds, the
        #: member offset its batch reads have reached, the offset below
        #: which it has written the replacement, and the stripe writes
        #: waiting for a batch in between (``_write_out``).
        self._resync_index: Optional[int] = None
        self._issued = 0
        self._recovered = 0
        self._synced_waiters: List[Tuple[int, Callable[[], None]]] = []

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
        """Submit a logical bio; the event succeeds with the completed bio.
        Every op starts one hop from here."""
        bio.submit_time = self.sim.now
        done = self.sim.event()
        try:
            bio.check_alignment()
            if bio.op == Op.READ:
                if bio.end_offset > self.capacity:
                    raise InvalidAddressError("read beyond volume capacity")
                start = self._start_read
            elif bio.op == Op.WRITE:
                if bio.end_offset > self.capacity:
                    raise InvalidAddressError("write beyond volume capacity")
                start = self._start_write
            elif bio.op == Op.FLUSH:
                start = self._start_flush
            elif bio.op == Op.DISCARD:
                start = self._start_discard
            else:
                raise ZoneStateError(f"mdraid does not support {bio.op}")
        except (RaiznError, DeviceError) as exc:
            self.sim.schedule(0.0, done.fail, exc)
            return done
        self.sim.schedule(0.0, start, _Request(self, bio, done))
        return done

    def execute(self, bio: Bio) -> Bio:
        """Synchronously run one bio to completion (drains the event loop)."""
        done = self.submit(bio)
        self.sim.run()
        if not done.ok:
            raise done.value
        return done.value

    def _issue(self, commands: List[Tuple[int, Bio]], then: Callable,
               fail: Callable) -> None:
        """Submit ``(member, bio)`` commands in order into one join.  An
        empty batch continues two hops from here, as an empty gather
        did."""
        join = _Join(self.sim, then, fail)
        for device, bio in commands:
            join.add(bio)
            self._submit(device, bio, join)
        if not join.bios:
            self.sim.schedule(0.0, self.sim.schedule, 0.0, then, join)

    def _submit(self, device: int, bio: Bio, context) -> None:
        """Submit ``bio`` to member ``device``, completing to ``context``:
        its join, or its entry in the in-flight table.  A write or discard
        takes every read of the bytes it changes off that table: a member
        read holds the bytes of its submission, and one submitted from
        here on must see the new ones."""
        bio.errors_as_status = True
        bio.end_io = self._completed
        bio.wctx = context
        if self._inflight and bio.op is not Op.READ:
            end = bio.offset + bio.length
            for key in [key for key in self._inflight if key[0] == device
                        and key[1] < end and bio.offset < key[1] + key[2]]:
                del self._inflight[key]
        self.devices[device].submit(bio)

    def _completed(self, bio: Bio) -> None:
        context = bio.wctx
        bio.wctx = None  # no join <-> bio cycle to hold the payload
        if context.__class__ is _Join:
            context.settle(bio.error)
            return
        # Tabled (``_read``): every join it serves hears of it, in the
        # order they asked.
        if self._inflight.get(context[0]) is context:
            del self._inflight[context[0]]
        for join in context[3:]:
            join.settle(bio.error)

    # -- read path ----------------------------------------------------------------------

    def _start_read(self, request: _Request) -> None:
        """One member read per chunk piece, all issued at once; a piece on
        the failed device is the XOR of the same range on every survivor."""
        bio = request.bio
        offset = bio.offset
        end = offset + bio.length
        degraded = True in self.failed
        places = []  # (slot, at, length): out[at:at+length] = that read
        lost = []    # (at, length, slots): out[...] = XOR of those reads

        def placed(join: _Join) -> None:
            reads = join.bios
            out = bytearray(bio.length)
            for slot, at, take in places:
                out[at:at + take] = reads[slot].result
            for at, take, slots in lost:
                acc = bytearray(take)
                for slot in slots:
                    xor_into(acc, reads[slot].result)
                out[at:at + take] = acc
            bio.result = bytes(out)
            request.complete()
        join = _Join(self.sim, placed, request.done.fail)
        position = offset
        while position < end:
            stripe, index, in_chunk = self.lba_to_chunk(position)
            take = min(end - position, self.chunk - in_chunk)
            _parity, data_devs = self.layout(stripe)
            device = data_devs[index]
            pba = self.chunk_pba(stripe) + in_chunk
            at = position - offset
            position += take
            if not self.failed[device]:
                places.append((self._read(join, device, pba, take, True,
                                          degraded), at, take))
                continue
            survivors = [other for other in range(self.num_devices)
                         if other != device]
            if any(self.failed[other] for other in survivors):
                join.pending = -1  # what is out completes into nothing
                request.done.fail(
                    DataLossError("two failed devices in RAID-5"))
                return
            lost.append((at, take, [self._read(join, other, pba, take, False,
                                               degraded)
                                    for other in survivors]))

    def _read(self, join: _Join, device: int, pba: int, length: int,
              direct: bool, shared: bool) -> int:
        """Add a read of ``length`` bytes at ``pba`` of ``device`` to
        ``join``; returns its slot in ``join.bios``.

        While a member has failed (``shared``), a stripe's direct pieces
        and a reconstruction's survivor reads want the same bytes at the
        same time — within one bio or across bios in flight together — so
        the second of such a pair joins the first one's command instead of
        issuing its own, as md's stripe cache reads a chunk once for both
        — unless a write to those bytes went out in between (``_submit``).
        Two direct reads, or two reconstructions, of the same bytes are
        two requests and get two commands: there is no read cache here
        (DESIGN.md, "Read-path fan-out", has the same rule for RAIZN)."""
        slot = len(join.bios)
        key = (device, pba, length)
        entry = self._inflight.get(key) if shared else None
        if entry is not None and len(entry) == 4 and entry[1] != direct:
            entry.append(join)
            join.add(entry[2])
            return slot
        bio = Bio.read(pba, length)
        join.add(bio)
        context = join
        if shared and entry is None:
            context = self._inflight[key] = [key, direct, bio, join]
        self._submit(device, bio, context)
        return slot

    # -- write path ---------------------------------------------------------------------

    def _start_write(self, request: _Request) -> None:
        """Stage the bio's stripe segments; it completes one hop after the
        last segment reports, as a gather over the segments' events did."""
        bio = request.bio
        segments = _Join(self.sim, request.complete, request.done.fail)
        position = bio.offset
        data_pos = 0
        while data_pos < bio.length:
            stripe = position // self.stripe_width
            in_stripe = position % self.stripe_width
            take = min(bio.length - data_pos, self.stripe_width - in_stripe)
            segments.pending += 1
            self._stage_write(stripe, in_stripe,
                              bio.data[data_pos:data_pos + take], segments)
            position += take
            data_pos += take
        if not segments.pending:
            self.sim.schedule(0.0, self.sim.schedule, 0.0, request.complete)

    def _stage_write(self, stripe: int, in_stripe: int, data: bytes,
                     segments: _Join) -> None:
        """Absorb a stripe segment into the plug queue; ``segments`` hears
        of it one hop after the stripe's data and parity are on devices.

        A stripe flushes immediately when fully covered (the full-stripe
        fast path) and otherwise after ``plug_delay`` — so deep queues of
        small sequential writes coalesce into whole-stripe parity
        updates, as md's raid5d batching achieves."""
        pending = self._pending.get(stripe)
        if pending is None:
            pending = _PendingStripe(self, stripe)
            self._pending[stripe] = pending
            self.sim.schedule(self.plug_delay, self._unplug, pending)
        pending.absorb(in_stripe, data, segments)
        if pending.full_cover:
            self._unplug(pending)

    def _unplug(self, pending: "_PendingStripe") -> None:
        if self._pending.get(pending.stripe) is pending:
            del self._pending[pending.stripe]
            self.sim.schedule(0.0, self._lock, pending)

    def _lock(self, pending: "_PendingStripe") -> None:
        """Take the stripe lock: granted one hop from here, or one hop
        after the holder before it lets go."""
        waiting = self._stripe_locks.get(pending.stripe)
        if waiting is None:
            self._stripe_locks[pending.stripe] = deque()
            self.sim.schedule(0.0, pending.next_interval)
        else:
            waiting.append(pending)

    def _unlock(self, stripe: int) -> None:
        waiting = self._stripe_locks[stripe]
        if waiting:
            self.sim.schedule(0.0, waiting.popleft().next_interval)
        else:
            del self._stripe_locks[stripe]

    def _full_stripe_write(self, pending: "_PendingStripe") -> None:
        stripe = pending.stripe
        data = pending.data
        parity_dev, data_devs = self.layout(stripe)
        pba = self.chunk_pba(stripe)
        # The devices copy out of the plugged buffer itself, and the cache
        # keeps views of it: nothing absorbs into it once unplugged.
        view = memoryview(data)
        chunk = self.chunk
        chunks = [view[i * chunk:(i + 1) * chunk]
                  for i in range(self.num_data)]
        parity = full_stripe_parity(data, self.num_data)
        commands = [(device, Bio.write(pba, chunks[i]))
                    for i, device in enumerate(data_devs)]
        commands.append((parity_dev, Bio.write(pba, parity)))
        chunks.append(parity)

        def written(_join: _Join) -> None:
            self.cache.put(stripe, chunks)
            pending.finish()
        self._write_out(stripe, commands, written, pending.fail)

    def _write_out(self, stripe: int, commands: List[Tuple[int, Bio]],
                   then: Callable, fail: Callable) -> None:
        """Submit a stripe's writes — ``commands`` name every member the
        write would reach on a whole array — to the members md writes.
        A failed member gets none, unless it is the replacement a resync
        has already rebuilt this stripe on (md's recovery offset).  A
        write for the replacement in a stripe whose resync reads are out
        waits until its batch is written (md's ``STRIPE_SYNCING``): its
        reads saw the stripe before this write."""
        rebuilt = None  # the replacement, if it takes this stripe's writes
        target = self._resync_index
        if target is not None:
            at = stripe * self.chunk
            if self._recovered <= at < self._issued and \
                    any(device == target for device, _bio in commands):
                self._synced_waiters.append(
                    (at, lambda: self._write_out(stripe, commands, then,
                                                 fail)))
                return
            if at < self._recovered:
                rebuilt = target
        self._issue([(device, bio) for device, bio in commands
                     if not self.failed[device] or device == rebuilt],
                    then, fail)

    def _partial_stripe_write(self, pending: "_PendingStripe",
                              in_stripe: int, data) -> None:
        """Sub-stripe write: RMW or RCW, preferring fewer device reads.

        With no cached stripe and no failures, the fast path is a
        subrange read-modify-write: md reads only the covered sectors of
        the old data and parity, XORs the delta, and writes the covered
        sectors back — small writes cost two small reads and two small
        writes, not whole-chunk traffic.
        """
        stripe = pending.stripe
        parity_dev, data_devs = self.layout(stripe)
        pba = self.chunk_pba(stripe)
        first = in_stripe // self.chunk
        last = (in_stripe + len(data) - 1) // self.chunk
        touched = list(range(first, last + 1))
        cached = self.cache.get(stripe)
        healthy = not self.failed[parity_dev] and \
            not any(self.failed[data_devs[i]] for i in touched)
        if cached is None and healthy and len(touched) < self.num_data:
            self._subrange_rmw(pending, in_stripe, data)
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
            need = [i for i in range(self.num_data) if chunks[i] is None]
        else:
            need = [i for i in touched if chunks[i] is None]
            if chunks[self.num_data] is None:
                need = need + [self.num_data]

        def filled() -> None:
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
            # covered sectors, not whole chunks); the parity write covers
            # the union of the per-chunk modified ranges.
            writes = []
            parity_lo, parity_hi = self.chunk, 0
            for i in touched:
                lo = max(0, in_stripe - i * self.chunk)
                hi = min(self.chunk, in_stripe + len(data) - i * self.chunk)
                parity_lo, parity_hi = min(parity_lo, lo), max(parity_hi, hi)
                writes.append((data_devs[i], Bio.write(pba + lo,
                                                       chunks[i][lo:hi])))
            writes.append((parity_dev, Bio.write(
                pba + parity_lo, chunks[self.num_data][parity_lo:parity_hi])))
            self._write_out(stripe, writes, written, pending.fail)

        def written(_join: _Join) -> None:
            self.cache.put(stripe, list(chunks))
            pending.next_interval()
        self._fill_chunks(stripe, chunks, need, filled, pending.fail)

    def _subrange_rmw(self, pending: "_PendingStripe", in_stripe: int,
                      data) -> None:
        """Uncached sub-stripe write via sector-granular RMW."""
        parity_dev, data_devs = self.layout(pending.stripe)
        pba = self.chunk_pba(pending.stripe)
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
        reads = [(data_devs[index], Bio.read(pba + lo, hi - lo))
                 for index, lo, hi, _pos in ranges]
        reads.append((parity_dev,
                      Bio.read(pba + parity_lo, parity_hi - parity_lo)))

        def read(join: _Join) -> None:
            results = join.bios
            old_parity = bytearray(results[-1].result)
            # parity' = parity ^ old_data ^ new_data over the covered bytes.
            for (index, lo, hi, position), old in zip(ranges, results):
                xor_into(old_parity, old.result, lo - parity_lo)
                xor_into(old_parity, data[position:position + hi - lo],
                         lo - parity_lo)
            writes = [(data_devs[index],
                       Bio.write(pba + lo, data[position:position + hi - lo]))
                      for index, lo, hi, position in ranges]
            writes.append((parity_dev,
                           Bio.write(pba + parity_lo, bytes(old_parity))))
            self._write_out(pending.stripe, writes, pending.next_interval,
                            pending.fail)
        self._issue(reads, read, pending.fail)

    def _fill_chunks(self, stripe: int, chunks: List[Optional[bytes]],
                     indices: List[int], then: Callable[[], None],
                     fail: Callable) -> None:
        """Read the listed chunk slots (data or parity) from their devices,
        then call ``then``.

        A slot whose device has failed is the XOR of every surviving chunk
        (degraded RMW, which is how md serves sub-stripe writes on a
        degraded array); those reads fill the other listed slots too, so
        each survivor is read once.
        """
        parity_dev, data_devs = self.layout(stripe)
        members = data_devs + [parity_dev]  # by slot
        lost = [slot for slot in indices if self.failed[members[slot]]]
        slots = indices
        if lost:
            slots = [slot for slot in range(self.num_data + 1)
                     if slot != lost[0]]
            if any(self.failed[members[slot]] for slot in slots):
                fail(DataLossError("two failed devices in RAID-5"))
                return

        def filled(join: _Join) -> None:
            for slot, read in zip(slots, join.bios):
                chunks[slot] = read.result
            if lost:
                acc = bytearray(self.chunk)
                for read in join.bios:
                    xor_into(acc, read.result)
                chunks[lost[0]] = bytes(acc)
            then()
        if slots:
            pba = self.chunk_pba(stripe)
            self._issue([(members[slot], Bio.read(pba, self.chunk))
                         for slot in slots], filled, fail)
        else:
            then()

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

    def _start_flush(self, request: _Request) -> None:
        """A cache flush to every member md still writes: nothing goes to
        a failed one, but a replacement under resync gets one."""
        self._issue([(index, Bio.flush())
                     for index, failed in enumerate(self.failed)
                     if not failed or index == self._resync_index],
                    request.complete, request.done.fail)

    def _start_discard(self, request: _Request) -> None:
        """TRIM: forwarded per-chunk to the data devices (parity kept)."""
        bio = request.bio
        position = bio.offset
        remaining = bio.length
        commands = []
        while remaining > 0:
            stripe, index, in_chunk = self.lba_to_chunk(position)
            take = min(remaining, self.chunk - in_chunk)
            _parity, data_devs = self.layout(stripe)
            device = data_devs[index]
            if not self.failed[device]:
                commands.append((device, Bio(
                    Op.DISCARD, offset=self.chunk_pba(stripe) + in_chunk,
                    length=take)))
            position += take
            remaining -= take
        self._issue(commands, request.complete, request.done.fail)

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
            cursor = self._issued = cursor + span
            return self.sim.all_of(reads)

        ahead = ReadAhead(issue, depth)
        writes: Deque[Event] = deque()
        bytes_written = 0
        self._resync_index = index
        self._issued = self._recovered = 0
        try:
            while (pieces := (yield from ahead.take())) is not None:
                out = bytearray(pieces[0].length)
                for piece in pieces:
                    xor_into(out, piece.result)
                if len(writes) == depth:
                    yield writes.popleft()
                writes.append(new_device.submit(Bio.write(bytes_written,
                                                          bytes(out))))
                bytes_written = self._recovered = bytes_written + len(out)
                self._wake_synced()
            while writes:
                yield writes.popleft()
            self.failed[index] = False
        finally:
            # Done, or failed with the replacement still failed: either
            # way no write waits for a batch any more.
            self._resync_index = None
            self._wake_synced()
        self.cache.invalidate()
        return ResyncReport(device_index=index, bytes_written=bytes_written,
                            started_at=started_at, finished_at=self.sim.now)

    def _wake_synced(self) -> None:
        """Resume the stripe writes whose resync batch is now written."""
        waiting = self._synced_waiters
        if not waiting:
            return
        done = self._resync_index is None
        self._synced_waiters = [entry for entry in waiting
                                if not done and entry[0] >= self._recovered]
        for at, resume in waiting:
            if done or at < self._recovered:
                self.sim.schedule(0.0, resume)


class _PendingStripe:
    """Plugged sub-stripe writes awaiting one batched parity update; once
    unplugged and holding its stripe lock, that update: one full-stripe
    write, or its intervals one after another."""

    __slots__ = ("volume", "stripe", "data", "intervals", "waiters",
                 "interval")

    def __init__(self, volume: MdraidVolume, stripe: int):
        self.volume = volume
        self.stripe = stripe
        self.data = bytearray(volume.stripe_width)
        self.intervals: List[Tuple[int, int]] = []
        #: The segment joins of the writes absorbed.
        self.waiters: List[_Join] = []
        #: Intervals written so far.
        self.interval = 0

    def absorb(self, offset: int, data: bytes, segments: _Join) -> None:
        end = offset + len(data)
        memoryview(self.data)[offset:end] = data
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
        self.waiters.append(segments)

    @property
    def full_cover(self) -> bool:
        return self.intervals == [(0, len(self.data))]

    def next_interval(self, _join: Optional[_Join] = None) -> None:
        """Write the next interval — a filled stripe is one, written
        whole — or, after the last, let go of the stripe."""
        if self.interval == len(self.intervals):
            self.finish()
            return
        lo, hi = self.intervals[self.interval]
        self.interval += 1
        if self.full_cover:
            self.volume._full_stripe_write(self)
        else:
            self.volume._partial_stripe_write(self, lo,
                                              memoryview(self.data)[lo:hi])

    def finish(self) -> None:
        self.volume._unlock(self.stripe)
        sim = self.volume.sim
        for segments in self.waiters:
            sim.schedule(0.0, segments.settle)

    def fail(self, exc: BaseException) -> None:
        sim = self.volume.sim
        for segments in self.waiters:
            sim.schedule(0.0, segments.settle, exc)
        self.volume._unlock(self.stripe)
