"""Metadata zone management with swap-zone garbage collection (§4.3).

Each device reserves one zone for partial parity logs (isolated because
they are written on every non-stripe-aligned write), one for all other
metadata, and at least one swap zone.  When a metadata zone fills, the
garbage collector designates a swap zone as its replacement, immediately
redirects new log entries there, checkpoints the valid in-memory metadata
(flagged so recovery can tell checkpoints from normal updates), and resets
the old zone to serve as the next swap zone — Figure 4.

Only the swap-in holds the role lock (``_swap_in``: repoint the role and
*submit* the checkpoint — zone appends land in submission order, so it
precedes every newer entry).  Awaiting it, flushing it and only then
resetting the old zone is ``_reclaim``, a process no append waits for.

All log writes use zone appends, "ensuring high throughput even in the
presence of many concurrent metadata log writes".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..block.bio import _FUA as _BIO_FUA
from ..block.bio import Bio, Op
from ..block.device import BlockDevice
from ..errors import DeviceError, MetadataError
from ..members import Members
from ..sim import Event, Lock, Process, Simulator
from .metadata import MetadataEntry


class MetadataRole(Members):
    """Which log stream a metadata zone currently serves."""

    PARTIAL_PARITY = "partial_parity"
    GENERAL = "general"


#: ``checkpoint_provider(role, device_index)`` returns the live in-memory
#: metadata entries to checkpoint into a fresh zone during GC.
CheckpointProvider = Callable[[MetadataRole, int], List[MetadataEntry]]


class DeviceMetadataZones:
    """The metadata zones of one array device."""

    def __init__(
        self,
        sim: Simulator,
        device: BlockDevice,
        device_index: int,
        zone_indices: List[int],
        zone_size: int,
        zone_capacity: int,
        checkpoint_provider: CheckpointProvider,
    ):
        if len(zone_indices) < 3:
            raise MetadataError("need >= 3 metadata zones per device")
        self.sim = sim
        self.device = device
        self.device_index = device_index
        self.zone_size = zone_size
        self.zone_capacity = zone_capacity
        self.checkpoint_provider = checkpoint_provider
        self.role_zone: Dict[MetadataRole, int] = {
            MetadataRole.PARTIAL_PARITY: zone_indices[0],
            MetadataRole.GENERAL: zone_indices[1],
        }
        self.swap_zones: List[int] = list(zone_indices[2:])
        #: Zones (besides the role zone) holding the live checkpoint of a
        #: role whose last GC spilled past one zone.  They stay out of the
        #: swap pool — they hold the only durable copy of that metadata —
        #: until the next rotation re-checkpoints them.
        self.checkpoint_spill: Dict[MetadataRole, List[int]] = {
            role: [] for role in MetadataRole}
        #: Mirror of bytes appended per metadata zone index.
        self.used: Dict[int, int] = {index: 0 for index in zone_indices}
        #: Zones ending in bytes the mount scan could not parse (set by
        #: recovery).  Entries carry no checksum: one appended behind a
        #: torn tail would be read back as the torn entry's payload.
        self.torn: Set[int] = set()
        self._locks: Dict[MetadataRole, Lock] = {
            role: Lock(sim) for role in MetadataRole}
        #: Interned per-role trace-site ids (valid for one sink; the
        #: volume resets this when it attaches a tracer).
        self._tr_sites: Dict[MetadataRole, int] = {}
        #: Reclaims in flight: old zones on their way back to the pool.
        self._reclaims: List[Process] = []
        #: Lifetime counters for Table 1 / ablation reporting.
        self.appended_bytes = 0
        self.gc_cycles = 0
        #: Rotations that waited for a reclaim to refill the swap pool, and
        #: simulated seconds appends spent queued on a role lock (summed).
        self.swap_waits = 0
        self.lock_wait_s = 0.0

    # -- append ------------------------------------------------------------------

    def append(self, role: MetadataRole, entry: MetadataEntry,
               fua: bool = False):
        """Process-style append; returns the PBA where the entry landed.

        Swaps in a fresh zone first when the entry does not fit.  The
        per-role lock covers only space reservation and the swap-in — the
        appends themselves run concurrently ("metadata is written using
        zone appends, ensuring high throughput even in the presence of
        many concurrent metadata log writes", §4.3).
        """
        encoded = entry.encode()
        oversized = self._oversized(encoded)
        if oversized is not None:
            raise oversized
        done = self.sim.event()
        self._append_start_encoded(role, encoded, fua, done, None)
        return (yield done)

    def _oversized(self, encoded: bytes) -> Optional[MetadataError]:
        if len(encoded) > self.zone_capacity:
            return MetadataError(
                f"metadata entry of {len(encoded)} bytes exceeds the "
                f"metadata zone capacity {self.zone_capacity}")

    def append_async(self, role: MetadataRole, entry: MetadataEntry,
                     fua: bool = False, batch: list = None) -> Event:
        """Callback-style :meth:`append`; succeeds with the landing PBA."""
        return self.append_encoded_async(role, entry.encode(), fua, batch)

    def append_encoded_async(self, role: MetadataRole, encoded: bytes,
                             fua: bool = False, batch: list = None) -> Event:
        """:meth:`append_async` for a caller that already holds the
        encoded bytes."""
        done = self.sim.event()
        self.append_into(role, encoded, fua, done, batch)
        return done

    def append_into(self, role: MetadataRole, encoded: bytes, fua: bool,
                    done, batch: list = None) -> None:
        """Append ``encoded``, reporting the outcome to ``done``.

        ``done`` is an :class:`Event` or anything that takes the same two
        calls — the write path's join: ``succeed_inline(pba)`` on success,
        in the frame of the command's completion, and ``fail(exc)``,
        whose waiters hear of it one hop later.

        A callback chain, not a process: the RAIZN write path appends
        metadata on every partial-stripe write.  Each step is queued
        exactly where a process's resumptions would fall — a start hop,
        then a hop through the role lock — which :meth:`append` relies on.

        When ``batch`` is given, the start hop is appended to it as a
        ``(fn, args)`` call instead of being scheduled — the caller puts
        a whole write's appends on the now-queue side by side.
        """
        span = None
        tracer = self.device.tracer
        if tracer is not None:
            # The md span covers lock wait, any swap-in, and the device
            # append; it parents under the logical bio whose synchronous
            # fan-out issued this append (if any), and it ends before
            # ``done`` hears of the outcome.
            sites = self._tr_sites
            site = sites.get(role)
            if site is None:
                site = sites[role] = tracer.site("md", role, self.device.name)
            span = tracer.begin_at(site)
        # Hop 1: where a process would start.
        if batch is not None:
            batch.append((self._append_start_encoded,
                          (role, encoded, fua, done, span)))
        else:
            self.sim.schedule(0.0, self._append_start_encoded, role, encoded,
                              fua, done, span)

    def _append_failed(self, done, span, exc: BaseException) -> None:
        """Fail the append: its span ends in the hop before ``done``'s
        waiters hear of it."""
        if span is not None:
            self.sim.schedule(0.0, span, None)
        done.fail(exc)

    def _append_start_encoded(self, role: MetadataRole, encoded: bytes,
                              fua: bool, done, span) -> None:
        oversized = self._oversized(encoded)
        if oversized is not None:
            self._append_failed(done, span, oversized)
            return
        lock = self._locks[role]
        if lock.in_use < lock.capacity:
            # Uncontended: take the lock and queue the next step, the hop
            # a process waiting on a free lock takes.  (Running the locked
            # step inline here reorders md submissions relative to
            # interleaved same-tick work and shifts the fixed seed
            # digests — measured, not hypothetical.)
            lock.in_use += 1
            self.sim.schedule(0.0, self._append_locked, role, encoded, fua,
                              done, span)
        else:
            waiter = Event(self.sim)
            queued_at = self.sim.now

            def granted(_ev):
                self.lock_wait_s += self.sim.now - queued_at
                self._append_locked(role, encoded, fua, done, span)
            waiter.add_callback(granted)
            lock._waiters.append(waiter)

    def _append_locked(self, role: MetadataRole, encoded: bytes,
                       fua: bool, done, span) -> None:
        """Holding the role lock: submit, after swapping in a fresh zone if
        the entry does not fit (rare; it may wait for one, so a process)."""
        if self.used[self.role_zone[role]] + len(encoded) > \
                self.zone_capacity:
            self.sim.process(
                self._swap_in_then_submit(role, encoded, fua, done, span))
        else:
            self._submit_append(role, encoded, fua, done, span)

    def _swap_in_then_submit(self, role: MetadataRole, encoded: bytes,
                             fua: bool, done, span):
        try:
            yield from self._swap_in(role)
            # A checkpoint that nearly fills the new zone leaves the entry
            # no room behind it: the entry takes the next swap zone.
            yield from self._spill_unless_fits(role, len(encoded))
        except BaseException as exc:  # noqa: BLE001 - deliver, don't unwind
            self._locks[role].release()
            self._append_failed(done, span, exc)
            return
        self._submit_append(role, encoded, fua, done, span)

    def _submit_append(self, role: MetadataRole, encoded: bytes,
                       fua: bool, done, span) -> None:
        """Reserve the placement and submit the log append; completion is
        awaited outside the lock so appends pipeline."""
        try:
            zone_index = self.role_zone[role]
            self.used[zone_index] += len(encoded)
            self.device.submit(Bio.command(
                Op.ZONE_APPEND, zone_index * self.zone_size, encoded,
                len(encoded), _BIO_FUA if fua else 0, (done, span),
                self._append_done))
        except BaseException as exc:  # noqa: BLE001 - mirror process failure
            self._locks[role].release()
            self._append_failed(done, span, exc)
            return
        self._locks[role].release()

    def _append_done(self, bio: Bio) -> None:
        done, span = bio.wctx
        if bio.error is None:
            self.appended_bytes += bio.length
            if span is not None:
                span(None)
            # Success arrives from the command's own heap entry, alone in
            # the now-queue: the waiter runs in this frame (lone chain).
            done.succeed_inline(bio.result)
        else:
            self._append_failed(done, span, bio.error)

    def remaining(self, role: MetadataRole) -> int:
        """Bytes left in the role's current zone."""
        return self.zone_capacity - self.used[self.role_zone[role]]

    # -- garbage collection (Figure 4) ----------------------------------------------

    def _swap_in(self, role: MetadataRole):
        """Holding the role lock: redirect ``role`` to a swap zone and
        *submit* its checkpoint there; :meth:`_reclaim` finishes the
        rotation behind the lock.

        A checkpoint larger than one zone — e.g. after heavy read-repair
        relocated whole stripe units into the general log — spills into
        further swap zones.  The spilled zones are tracked in
        :attr:`checkpoint_spill` and reclaimed at the next rotation.
        """
        old_zones = [self.role_zone[role]] + self.checkpoint_spill[role]
        self.checkpoint_spill[role] = []
        # Redirect new entries first so logging continues uninterrupted.
        self.role_zone[role] = yield from self._take_swap_zone(role)
        # Checkpoint valid in-memory metadata into the new zone(s), flagged.
        checkpoint: List[Event] = []
        for entry in self.checkpoint_provider(role, self.device_index):
            entry.checkpoint = True
            encoded = entry.encode()
            yield from self._spill_unless_fits(role, len(encoded))
            zone_index = self.role_zone[role]
            self.used[zone_index] += len(encoded)
            checkpoint.append(self.device.submit(
                Bio.zone_append(zone_index * self.zone_size, encoded)))
        reclaim = self.sim.process(self._reclaim(old_zones, checkpoint))
        self._reclaims.append(reclaim)
        if self.device.tracer is not None:
            reclaim.add_callback(self.device.tracer.begin(
                "md", "reclaim", self.device.name))
        reclaim.add_callback(self._reclaimed)

    def _spill_unless_fits(self, role: MetadataRole, size: int):
        """Process-style: move the role to a swap zone unless ``size``
        bytes fit in its zone, which stays as checkpoint spill."""
        if self.used[self.role_zone[role]] + size > self.zone_capacity:
            self.checkpoint_spill[role].append(self.role_zone[role])
            self.role_zone[role] = yield from self._take_swap_zone(role)

    def _take_swap_zone(self, role: MetadataRole):
        """Process-style: pop a swap zone; with the pool empty, wait for a
        reclaim in flight to refill it."""
        while not self.swap_zones:
            if not self._reclaims:
                raise MetadataError(
                    f"dev {self.device_index}: no swap zone available for "
                    f"metadata GC of {role.value}")
            self.swap_waits += 1
            yield self._reclaims[0]
        return self.swap_zones.pop(0)

    def _reclaim(self, old_zones: List[int], checkpoint: List[Event]):
        """Background half of a rotation: checkpoint → flush → reset."""
        for appended in checkpoint:
            yield appended
        # Make the checkpoint durable before destroying the old logs: a
        # crash between the reset and an unflushed checkpoint would lose
        # metadata that existed nowhere else.
        yield self.device.submit(Bio.flush())
        # The old zones' logs are now redundant; reset them into swap zones.
        for old_zone in old_zones:
            yield self.device.submit(
                Bio.zone_reset(old_zone * self.zone_size))
            self.used[old_zone] = 0
            self.swap_zones.append(old_zone)
        self.gc_cycles += 1

    def _reclaimed(self, reclaim: Process) -> None:
        # A reclaim that died with its device leaves its zones out of the
        # pool; whoever is waiting on it hears the device's error.
        self._reclaims.remove(reclaim)
        if not reclaim.ok and not isinstance(reclaim.value, DeviceError):
            raise reclaim.value

    def quiesce(self):
        """Process-style: return once no reclaim is in flight."""
        while self._reclaims:
            yield self._reclaims[0]

    def force_gc(self, role: MetadataRole):
        """Rotate now (maintenance / tests); returns once the old zone is
        a swap zone again."""
        yield self._locks[role].request()
        try:
            yield from self._swap_in(role)
        finally:
            self._locks[role].release()
        yield from self.quiesce()

    # -- recovery support ---------------------------------------------------------------

    def all_zone_indices(self) -> List[int]:
        ordered = [self.role_zone[MetadataRole.PARTIAL_PARITY],
                   self.role_zone[MetadataRole.GENERAL]]
        for zones in (self.checkpoint_spill[MetadataRole.PARTIAL_PARITY],
                      self.checkpoint_spill[MetadataRole.GENERAL],
                      self.swap_zones):
            ordered.extend(z for z in zones if z not in ordered)
        # ``used`` keys every metadata zone this device owns; the final
        # sweep covers mid-rotation limbo states.
        ordered.extend(z for z in self.used if z not in ordered)
        return ordered

    def recovery_compact(self):
        """Mount-time compaction: rewrite all live metadata, reclaim zones.

        A crash during metadata GC can leave every metadata zone non-empty
        (the old zone is only reset after the checkpoint completes), so the
        normal swap-rotation cannot run.  Recovery instead checkpoints all
        live in-memory metadata — both roles — into the emptiest zone,
        flushes it durable, and only then resets the remaining zones.  A
        crash at any point leaves either the old logs or a complete
        flushed checkpoint on media.
        """
        yield from self.quiesce()
        ordered = self.all_zone_indices()
        # Fill the emptiest zones first (stable sort: ties keep their
        # role/swap ordering, so a single-zone checkpoint lands exactly
        # where it always has), spilling into the next-emptiest when
        # needed, but keep at least two zones reclaimable: one for the
        # partial-parity role and one swap zone.
        # A torn zone takes no checkpoint: it is reset with the others.
        by_used = sorted((z for z in ordered if z not in self.torn),
                         key=lambda z: self.used[z])
        limit = min(len(ordered) - 2, len(by_used))
        targets: List[int] = []
        for role in (MetadataRole.GENERAL, MetadataRole.PARTIAL_PARITY):
            for entry in self.checkpoint_provider(role, self.device_index):
                entry.checkpoint = True
                encoded = entry.encode()
                if not targets or self.used[targets[-1]] + len(encoded) > \
                        self.zone_capacity:
                    if len(targets) >= limit:
                        raise MetadataError(
                            f"dev {self.device_index}: recovery checkpoint "
                            "does not fit in the metadata zones that are "
                            "reclaimable and not torn")
                    targets.append(by_used[len(targets)])
                self.used[targets[-1]] += len(encoded)
                yield self.device.submit(
                    Bio.zone_append(targets[-1] * self.zone_size, encoded))
        yield self.device.submit(Bio.flush())
        others = [z for z in ordered if z not in targets]
        for zone_index in others:
            yield self.device.submit(
                Bio.zone_reset(zone_index * self.zone_size))
            self.used[zone_index] = 0
        self.role_zone[MetadataRole.GENERAL] = targets[-1]
        self.role_zone[MetadataRole.PARTIAL_PARITY] = others[0]
        self.checkpoint_spill = {role: [] for role in MetadataRole}
        self.checkpoint_spill[MetadataRole.GENERAL] = targets[:-1]
        self.swap_zones = others[1:]
        self.torn.clear()
        self.gc_cycles += 1
