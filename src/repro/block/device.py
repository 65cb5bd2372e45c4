"""Base class shared by all simulated storage devices.

A device is a pool of command channels plus device-specific state.  The
logical effect of a command (address checks, write-pointer updates, FTL
mapping) is applied *at submission*, in submission order — matching how an
NVMe device validates and queues commands — while the completion event
fires after the modelled service time.  Durability effects (write-cache
flushes, FUA) are applied at completion time.
"""

from __future__ import annotations

import heapq
import mmap
import random
from collections import deque
from typing import Callable, Deque, List, NamedTuple, Optional, Tuple

from ..errors import (DeviceError, DeviceFailedError, InvalidAddressError,
                      PowerLossError)
from ..sim import Event, Simulator
from ..units import SECTOR_SIZE
from .bio import _FUA, Bio, Op
from .timing import ServiceTimeModel

#: Sector size is a power of two; a single masked test covers both the
#: offset and length alignment checks on the hot submit path.
_SECTOR_MASK = SECTOR_SIZE - 1


class DeviceStats:
    """Per-device IO accounting, including media-level write amplification."""

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.flushes = 0
        self.zone_mgmt = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Bytes physically programmed to media, including GC copy-back;
        #: write amplification = media_bytes_written / bytes_written.
        self.media_bytes_written = 0
        #: Cumulative submit→complete seconds of successfully completed
        #: commands, split by direction.  Commands that never complete
        #: (rejected, or cut down mid-flight by power loss / device
        #: failure) are not charged — the trace layer follows the same
        #: rule, so per-device span totals reconcile with these.
        self.read_seconds = 0.0
        self.write_seconds = 0.0
        self.other_seconds = 0.0

    @property
    def write_amplification(self) -> float:
        if self.bytes_written == 0:
            return 1.0
        return self.media_bytes_written / self.bytes_written

    @property
    def io_seconds(self) -> float:
        """Total submit→complete seconds across all completed commands."""
        return self.read_seconds + self.write_seconds + self.other_seconds

    def account(self, bio: Bio) -> None:
        """Charge one command's counters.

        Called at the bio's *first* accepted submission (guarded by
        ``bio.counted``): stats count logical commands, and a retry that
        resubmits the same bio must not inflate throughput numbers.
        """
        op = bio.op
        if op is Op.READ:
            self.reads += 1
            self.bytes_read += bio.length
        elif op is Op.WRITE or op is Op.ZONE_APPEND:
            self.writes += 1
            self.bytes_written += bio.length
            self.media_bytes_written += bio.length
        elif op is Op.FLUSH:
            self.flushes += 1
        else:
            self.zone_mgmt += 1

    def to_dict(self) -> dict:
        """Snapshot for the metrics registry."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "flushes": self.flushes,
            "zone_mgmt": self.zone_mgmt,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "media_bytes_written": self.media_bytes_written,
            "write_amplification": self.write_amplification,
            "read_seconds": self.read_seconds,
            "write_seconds": self.write_seconds,
            "other_seconds": self.other_seconds,
            "io_seconds": self.io_seconds,
        }


#: Fault-hook slots of a :class:`BlockDevice`; every hook is called as
#: ``hook(device, bio)``.
#:
#: ``pre_apply``
#:     before each command is applied.  Raising a ``DeviceError``
#:     rejects the command (and stops the hooks installed after it);
#:     cutting power or failing the device inside the hook rejects it too.
#: ``service_delay``
#:     at the instant a command's service starts (``sim.now`` is that
#:     instant), in start order; returns extra seconds of channel
#:     occupancy, summed over the installed hooks.  The delay holds the
#:     channel, so a gray-failing device also inflicts queueing delay on
#:     the commands behind the slow one.
#: ``completion``
#:     at a command's completion, before its submitter hears of it.  The
#:     bio counts as acked — ``complete_time`` is stamped, durability
#:     applied, and the submitter's callback runs whatever the hook does —
#:     so cutting power inside the hook models a crash where completions
#:     1..k were delivered and nothing after.
HOOK_SLOTS = ("pre_apply", "service_delay", "completion")


class HookHandle(NamedTuple):
    """What ``add_hook`` returns and ``remove_hook`` takes back."""

    device: "BlockDevice"
    slot: str
    fn: Callable


def remove_hooks(handles: List[HookHandle]) -> None:
    """Uninstall every handle and empty the list — a fault layer's disarm."""
    while handles:
        handle = handles.pop()
        handle.device.remove_hook(handle)


class BlockDevice:
    """Abstract simulated device; subclasses implement ``_apply``/``_persist``."""

    #: Trace-span layer tag for commands serviced by this device class;
    #: subclasses override (ZNS → "zns", conventional → "conv").
    trace_layer = "block"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        size_bytes: int,
        model: ServiceTimeModel,
        seed: int = 0,
    ):
        if size_bytes <= 0:
            raise InvalidAddressError(
                f"{name}: device size must be positive, not {size_bytes}")
        self.sim = sim
        self.name = name
        self.size_bytes = size_bytes
        #: The media: a private anonymous mapping the kernel zero-fills a
        #: page at first touch, so RAM follows what was written, not the
        #: capacity.  ``MAP_PRIVATE`` is explicit because the default for
        #: an anonymous map is ``MAP_SHARED`` (shmem: slower to fault, and
        #: shared with a forked child).
        self._media = mmap.mmap(-1, size_bytes, flags=mmap.MAP_PRIVATE)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            self._media.madvise(mmap.MADV_HUGEPAGE)
        self.model = model
        # Pipeline latencies are per-op constants of the model; caching
        # them here skips a method call per command completion.
        self._pl_read = model.pipeline_latency(Op.READ)
        self._pl_write = model.pipeline_latency(Op.WRITE)
        # Commands parked until a channel comes free, FIFO, as ``_serve``
        # argument tuples.  Only a ``service_delay`` hook parks commands
        # (see ``submit``); ``_wake`` starts them.
        self._channel_queue: Deque[Tuple[Bio, float, Optional[Event]]] = \
            deque()
        self._reset_channels()
        self.stats = DeviceStats()
        #: WRITE/ZONE_APPEND commands accepted without FUA, ever — what a
        #: cache flush is for.  Whoever saw this value as it submitted a
        #: flush that then completed owes the device none until it moves.
        self.volatile_writes = 0
        self.failed = False
        self.powered = True
        self._rng = random.Random(seed)
        # The three fault-hook slots.  The datapath reads these attributes
        # directly; they are written only by ``add_hook``/``remove_hook``
        # (see ``HOOK_SLOTS``), which keep each one equal to the
        # composition of its installed hooks — None when there are none.
        self.pre_apply_hook = None
        self.completion_hook = None
        self.service_delay_hook = None
        self._hooks = {slot: [] for slot in HOOK_SLOTS}
        #: Shared :class:`repro.trace.Tracer` when the owning volume has
        #: tracing enabled; None costs each command one attribute test.
        self.tracer = None
        #: Interned trace-site ids, one per op, filled lazily.
        self._trace_sites: dict = {}

    # -- the public IO interface ----------------------------------------------

    def submit(self, bio: Bio) -> Optional[Event]:
        """Submit ``bio``; its completion is delivered the way it asks.

        With ``bio.end_io`` set the device calls ``end_io(bio)`` and
        returns None.  Otherwise — the adapter for generator callers — it
        returns an event that succeeds with the completed bio, or fails
        with the ``DeviceError`` unless ``bio.errors_as_status`` is set.

        Command validation and logical state changes happen synchronously
        here, in submission order; an invalid command, or any command to a
        failed or powered-off device, is rejected.
        """
        sim = self.sim
        if bio.end_io is None:
            done = sim.event()
        elif bio.errors_as_status:
            done = None
        else:
            raise ValueError("bio.end_io requires bio.errors_as_status: a "
                             "callback has no event to fail")
        bio.submit_time = sim.now
        if self.failed or not self.powered:
            if self.failed:
                self._reject(bio, done,
                             DeviceFailedError(f"{self.name} has failed"))
            else:
                self._reject(bio, done,
                             PowerLossError(f"{self.name} is powered off"))
            return done
        try:
            if self.pre_apply_hook is not None:
                self.pre_apply_hook(self, bio)
                if not self.powered:
                    raise PowerLossError(
                        f"{self.name} lost power (fault injection)")
                if self.failed:
                    raise DeviceFailedError(
                        f"{self.name} failed (fault injection)")
            if (bio.offset | bio.length) & _SECTOR_MASK:
                bio.check_alignment()
            extra_time = self._apply(bio)
        except DeviceError as exc:
            self._reject(bio, done, exc)
            return done
        # Accepted: charge the stats here, at first submission, rather
        # than at completion.  The logical effect (including the media
        # write) just applied in submission order, and counting here with
        # the per-bio guard keeps a retried resubmission of the same bio
        # from double-counting.
        if not bio.counted:
            bio.counted = True
            self.stats.account(bio)
            op = bio.op
            if (op is Op.WRITE or op is Op.ZONE_APPEND) \
                    and not bio.flags & _FUA:
                self.volatile_writes += 1
        if self.tracer is not None:
            # Device spans stay off the object heap until completion:
            # the parent link rides in ``bio.span`` (an int, untracked
            # by the GC) and the service-start time in ``bio.span_grant``.
            bio.span = self.tracer.current_parent
        # The channels are a FIFO k-server, so a command's service start
        # is known the moment it arrives and ``_serve`` computes its whole
        # timeline here.  A ``service_delay`` hook must run *at* the start
        # instant, though: while one is installed a command that cannot
        # start now is parked — and, to stay FIFO, so is any command behind
        # a parked one, even after the hook is removed.
        queue = self._channel_queue
        if queue:
            queue.append((bio, extra_time, done))
        elif self.service_delay_hook is not None \
                and self._free_at[0] > sim.now:
            queue.append((bio, extra_time, done))
            sim.schedule_at(self._free_at[0], self._wake)
        else:
            self._serve(bio, extra_time, done)
        return done

    def execute(self, bio: Bio) -> Bio:
        """Synchronously run ``bio`` to completion (drains the event loop)."""
        done = self.submit(bio)
        self.sim.run()
        if not done.triggered:
            raise DeviceError(f"{self.name}: bio never completed")
        if not done.ok:
            raise done.value
        return done.value

    # -- hooks for subclasses ---------------------------------------------------

    def _apply(self, bio: Bio) -> float:
        """Validate and apply the logical effect of ``bio``.

        Returns extra service time (seconds) beyond the base model — used
        by the conventional SSD to charge garbage-collection work to the
        triggering write.  Raises ``DeviceError`` on invalid commands.
        """
        raise NotImplementedError

    def _persist(self, bio: Bio) -> None:
        """Apply durability effects at completion (flush / FUA semantics)."""
        raise NotImplementedError

    # -- internals --------------------------------------------------------------

    def _reset_channels(self) -> None:
        """Every channel idle, nothing parked."""
        #: One busy-until instant per channel, as a ``heapq``: the
        #: earliest-free channel is ``_free_at[0]``.
        self._free_at = [0.0] * self.model.channels
        self._channel_queue.clear()

    def _serve(self, bio: Bio, extra_time: float,
               done: Optional[Event]) -> None:
        """Give ``bio`` the earliest-free channel and time its completion.

        Service starts when that channel is free (now, if it is idle),
        holds it for the occupancy time, and the command completes a
        pipelined latency after leaving it.  Arrival order is service
        order, so the occupancy RNG draws happen in the order a
        grant-by-grant server would make them; the instants are summed
        left to right, each from the instant such a server's clock would
        show, so every float is the one it would compute.
        """
        sim = self.sim
        free_at = self._free_at
        start = free_at[0]
        if start < sim.now:
            start = sim.now
        bio.span_grant = start  # queue wait ends, service begins
        op = bio.op
        occupancy = self.model.occupancy_time(op, bio.length, self._rng)
        if op is Op.READ:
            pipeline = self._pl_read
        elif op is Op.WRITE or op is Op.ZONE_APPEND:
            pipeline = self._pl_write
        else:
            pipeline = 0.0
        if self.service_delay_hook is not None:
            occupancy += self.service_delay_hook(self, bio)
        freed = start + occupancy + extra_time
        heapq.heapreplace(free_at, freed)
        sim.complete_at(freed + pipeline, self._complete, bio, done)

    def _wake(self) -> None:
        """A channel came free with commands parked: start, in order,
        those that can start now, and come back for the rest."""
        queue = self._channel_queue
        free_at = self._free_at
        sim = self.sim
        while queue and free_at[0] <= sim.now:
            self._serve(*queue.popleft())
        if queue:
            sim.schedule_at(free_at[0], self._wake)

    def _reject(self, bio: Bio, done: Optional[Event],
                exc: BaseException) -> None:
        """Deliver a command error, two zero-delay hops from here: complete
        the bio with ``bio.error`` set when the submitter opted in via
        ``bio.errors_as_status`` — so it can recover per bio instead of
        having a gathered fan-out unwind on the first failure — or fail
        the event."""
        if bio.errors_as_status:
            bio.error = exc
            self.sim.schedule(0.0, self._complete_errored, bio, done)
        else:
            self.sim.schedule(0.0, done.fail, exc)

    def _complete_errored(self, bio: Bio, done: Optional[Event]) -> None:
        bio.complete_time = self.sim.now
        if done is None:
            self.sim.schedule(0.0, bio.end_io, bio)
        else:
            done.succeed(bio)

    def _complete(self, bio: Bio, done: Optional[Event]) -> None:
        """A command's completion instant, from its own heap entry: the
        now-queue is empty, so the submitter's continuation runs in this
        frame (``Event.succeed_inline``) instead of through a hop."""
        if self.failed:
            self._fail_inflight(bio, done,
                                DeviceFailedError(f"{self.name} failed mid-IO"))
            return
        if not self.powered:
            self._fail_inflight(bio, done,
                                PowerLossError(f"{self.name} lost power mid-IO"))
            return
        now = self.sim.now
        # Charge the submit→complete seconds by direction (DeviceStats).
        stats = self.stats
        elapsed = now - bio.submit_time
        op = bio.op
        if op is Op.READ:
            stats.read_seconds += elapsed
        elif op is Op.WRITE or op is Op.ZONE_APPEND:
            # Plain (non-FUA, non-preflush) writes have no durability
            # effect; every ``_persist`` no-ops on them, so skip the call.
            if bio.flags or bio.aux is not None:
                self._persist(bio)
            stats.write_seconds += elapsed
        else:
            self._persist(bio)
            stats.other_seconds += elapsed
        parent = bio.span
        if parent is not None:
            bio.span = None
            site = self._trace_sites.get(op)
            if site is None:
                site = self._trace_sites[op] = self.tracer.site(
                    self.trace_layer, op, self.name)
            self.tracer.complete_io(site, bio.submit_time, bio.span_grant,
                                    bio.length, parent)
        bio.complete_time = now
        if self.completion_hook is not None:
            self.completion_hook(self, bio)
        if done is None:
            bio.end_io(bio)
        else:
            done.succeed_inline(bio)

    def _fail_inflight(self, bio: Bio, done: Optional[Event],
                       exc: BaseException) -> None:
        # The command never completed; neither the trace nor io_seconds
        # charges it (they must stay reconcilable).
        bio.span = None
        if bio.errors_as_status:
            bio.error = exc
            bio.complete_time = self.sim.now
            if done is None:
                bio.end_io(bio)
            else:
                done.succeed(bio)
        else:
            done.fail(exc)

    # -- fault injection ---------------------------------------------------------

    def add_hook(self, slot: str, fn) -> HookHandle:
        """Install ``fn`` in ``slot`` (one of ``HOOK_SLOTS``), after the
        hooks already there; the only way to install a fault hook."""
        handle = HookHandle(self, slot, fn)
        self._hooks[slot].append(handle)
        self._compose_slot(slot)
        return handle

    def remove_hook(self, handle: HookHandle) -> None:
        """Uninstall one hook; the others keep running, whatever the
        order they were installed and are removed in."""
        self._hooks[handle.slot].remove(handle)
        self._compose_slot(handle.slot)

    def _compose_slot(self, slot: str) -> None:
        fns = [handle.fn for handle in self._hooks[slot]]
        if len(fns) <= 1:
            composed = fns[0] if fns else None
        elif slot == "service_delay":
            def composed(device, bio):
                delay = 0.0
                for fn in fns:
                    delay += fn(device, bio)
                return delay
        else:
            def composed(device, bio):
                for fn in fns:
                    fn(device, bio)
        setattr(self, slot + "_hook", composed)

    def fail_device(self) -> None:
        """Mark the device failed; all current and future IO errors out."""
        self.failed = True

    def power_off(self) -> None:
        """Cut power: in-flight/unflushed state handling is subclass-defined."""
        self.powered = False

    def power_on(self) -> None:
        """Restore power after ``power_off``."""
        self.powered = True
