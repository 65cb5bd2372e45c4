"""The RAIZN logical volume (paper §4–§5).

``RaiznVolume`` exposes a single logical host-managed zoned device over an
array of ZNS devices, striping data RAID-5 style with rotated parity.  It
accepts the same ``Bio`` vocabulary as a physical device, so any
ZNS-compatible layer (the fio-like workload driver, the F2FS-like
filesystem) runs unmodified on a volume.

The volume owns the state — zone descriptors, relocations, device
health, the metadata zones — and dispatches: reads to
:mod:`repro.raizn.readpath`, writes and flushes to
:mod:`repro.raizn.writepath`, zone management to
:mod:`repro.raizn.zoneops`.
Logical requests are validated and their sub-IOs generated *in
submission order* (the simulator's synchronous-submit model plays the
role of §4.3's write-pointer-matching worker threads), while completions
— and the FUA/flush persistence protocol of §5.3 — are handled
asynchronously.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Set, Tuple

from ..block.bio import Bio, Op
from ..block.device import DeviceStats
from ..errors import (
    DataLossError,
    DegradedModeError,
    DeviceError,
    RaiznError,
    VolumeStateError,
)
from ..sim import Event, Simulator
from ..trace import Tracer
from ..units import SECTOR_SIZE
from ..trace.tracer import SITE_BITS
from ..zns.device import ZNSDevice
from ..zns.spec import ZoneInfo, ZoneState
from .address import AddressMapper
from .config import RaiznConfig
from .mdzone import DeviceMetadataZones, MetadataRole
from .metadata import (
    GENERATION_BLOCK_COUNTERS,
    MetadataEntry,
    Superblock,
    encode_generation_block,
    encode_partial_parity,
    encode_relocated_su,
)
from .readpath import ReadPath
from .relocation import RelocationStore
from .writepath import WritePath
from .zonedesc import LogicalZoneDesc, PhysicalZoneDesc
from .zoneops import ZoneOps

_SECTOR_MASK = SECTOR_SIZE - 1


SUPERBLOCK_VERSION = 1


class RebuildState:
    """Progress of an in-flight device rebuild (§4.2)."""

    def __init__(self, device_index: int):
        self.device_index = device_index
        self.rebuilt_zones: Set[int] = set()
        self.bytes_rebuilt = 0
        self.done = False


class HealthStats:
    """Volume-level error and self-healing accounting.

    Every counter is cumulative over the volume's lifetime; the errortest
    harness reports them and the eviction policy consumes the per-device
    counts kept separately in ``RaiznVolume.error_counts``.

    Accounting discipline: ``error_counts`` (which drives threshold
    eviction) is charged only by *hard* evidence — media errors, wear
    transitions, exhausted retry budgets.  Transient retries that later
    succeed and hedged reads whose straggler eventually completes are
    recorded in their own counters (``transient_retries``,
    ``slow_hedges``) and never reach ``error_counts``; latency outliers
    feed the separate :class:`DeviceHealth` score instead.
    """

    def __init__(self) -> None:
        #: Unrecoverable (UNC) media errors observed on reads.
        self.media_errors = 0
        #: Transient command failures that were retried.
        self.transient_retries = 0
        #: Transient command failures that exhausted their retry budget.
        self.transient_escalations = 0
        #: Zone wear-out transitions the datapath ran into (READ_ONLY or
        #: OFFLINE physical zones discovered via a failing command).
        self.wear_errors = 0
        #: Stripe units reconstructed from redundancy and relocated so the
        #: next read hits clean media (read-repair).
        self.heals = 0
        #: Parity stripe units recomputed and re-logged by the scrubber.
        self.parity_heals = 0
        #: Devices evicted into degraded mode by the error threshold.
        self.evictions = 0
        #: Reads served from corrupt media because read-repair was
        #: disabled (only reachable with ``config.read_repair=False``).
        self.unrepaired_serves = 0
        #: Hedged reconstruction reads fired against stragglers.  A hedge
        #: is a latency defense, not an error: the straggler is charged
        #: here (and in the device's :class:`DeviceHealth`), never in
        #: ``error_counts``.
        self.slow_hedges = 0
        #: Hedges where the reconstruction beat the straggler and served
        #: the read.
        self.hedge_wins = 0
        #: Devices demoted to "avoid for reads" by their health score.
        self.slow_demotions = 0
        #: Evictions (a subset of ``evictions``) triggered by a
        #: persistently bad health score rather than the error threshold.
        self.slow_evictions = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(vars(self))


# Fail-slow tuning (used only with ``RaiznConfig.failslow_protection``).
#: EWMA weight for per-device completion-latency tracking (mean and mean
#: absolute deviation).
LATENCY_EWMA_ALPHA = 0.125
#: Latency samples a device must accumulate before its distribution is
#: trusted to derive hedge deadlines and outlier thresholds.
HEDGE_MIN_SAMPLES = 32
#: A completion is *slow* (and a pending read hedge-eligible) past
#: ``max(HEDGE_FLOOR_S, ewma * HEDGE_LATENCY_MULTIPLIER,
#: ewma + HEDGE_SLACK_DEVIATIONS * deviation_ewma)``.
HEDGE_LATENCY_MULTIPLIER = 1.5
HEDGE_SLACK_DEVIATIONS = 6.0
HEDGE_FLOOR_S = 200e-6
#: EWMA weight of the slow-outlier indicator that forms the health score
#: (score = 1 - outlier EWMA).
SLOW_SCORE_ALPHA = 0.1
#: Outlier-EWMA above which a device is demoted to "avoid for reads":
#: reads are served by reconstruction instead (writes still land on the
#: device and keep feeding the score).
SLOW_DEMOTE_SCORE = 0.5
#: Latency samples observed *after* demotion before slow-eviction may
#: fire: a demoted device gets a grace window to recover.
SLOW_EVICT_MIN_SAMPLES = 25


class _LatencyEwma:
    """EWMA of completion latency plus its mean absolute deviation.

    Outlier samples (past the adaptive threshold) are *excluded* from the
    running mean: the threshold must track the device's healthy
    behaviour, not chase a stall upward until hedging stops firing.
    """

    __slots__ = ("mean", "dev", "samples")

    def __init__(self) -> None:
        self.mean = 0.0
        self.dev = 0.0
        self.samples = 0

    def threshold(self) -> Optional[float]:
        """Adaptive slow-completion threshold, or None before the
        distribution has ``HEDGE_MIN_SAMPLES`` observations."""
        if self.samples < HEDGE_MIN_SAMPLES:
            return None
        return max(HEDGE_FLOOR_S, self.mean * HEDGE_LATENCY_MULTIPLIER,
                   self.mean + HEDGE_SLACK_DEVIATIONS * self.dev)

    def observe(self, seconds: float) -> bool:
        """Fold one sample in; returns True if it was a slow outlier."""
        if self.samples == 0:
            self.mean = seconds
            self.samples = 1
            return False
        threshold = self.threshold()
        outlier = threshold is not None and seconds > threshold
        self.samples += 1
        if not outlier:
            alpha = LATENCY_EWMA_ALPHA
            self.dev += alpha * (abs(seconds - self.mean) - self.dev)
            self.mean += alpha * (seconds - self.mean)
        return outlier


class DeviceHealth:
    """Latency health of one array device (gray-failure scoring).

    Read and write completion latencies feed separate EWMAs (their
    service times differ by channel bandwidth); each completion is
    classified healthy/slow against the adaptive threshold, and the
    slow-indicator EWMA forms the health score: ``score`` is 1.0 for a
    healthy device and falls toward 0.0 as outliers dominate.  The
    volume demotes (avoid for reads) and eventually evicts on the score
    — see :meth:`RaiznVolume._note_latency`.
    """

    __slots__ = ("read", "write", "slow_score", "slow_outliers",
                 "slow_hedges", "hedge_wins", "demoted",
                 "samples_since_demote")

    def __init__(self) -> None:
        #: Read / write completion-latency distributions.
        self.read = _LatencyEwma()
        self.write = _LatencyEwma()
        #: EWMA of the slow-outlier indicator, in [0, 1].
        self.slow_score = 0.0
        #: Cumulative completions classified slow.
        self.slow_outliers = 0
        #: Hedged reconstruction reads fired against this device.
        self.slow_hedges = 0
        #: Hedges the reconstruction won against this device.
        self.hedge_wins = 0
        #: Demoted: reads avoid this device (served by reconstruction).
        self.demoted = False
        #: Latency samples observed since demotion (eviction grace gate).
        self.samples_since_demote = 0

    @property
    def score(self) -> float:
        """Health score in [0, 1]; 1.0 is healthy."""
        return 1.0 - self.slow_score

    def observe(self, is_read: bool, seconds: float) -> bool:
        """Fold one completion latency in; returns True on an outlier."""
        ewma = self.read if is_read else self.write
        outlier = ewma.observe(seconds)
        if outlier:
            self.slow_outliers += 1
        self.slow_score += SLOW_SCORE_ALPHA * \
            ((1.0 if outlier else 0.0) - self.slow_score)
        if self.demoted:
            self.samples_since_demote += 1
        return outlier

    def to_dict(self) -> dict:
        return {
            "read_ewma_ms": round(self.read.mean * 1e3, 4),
            "write_ewma_ms": round(self.write.mean * 1e3, 4),
            "score": round(self.score, 4),
            "slow_outliers": self.slow_outliers,
            "slow_hedges": self.slow_hedges,
            "hedge_wins": self.hedge_wins,
            "demoted": self.demoted,
        }


class RaiznVolume:
    """A logical ZNS volume striped over an array of ZNS devices."""

    def __init__(self, sim: Simulator, devices: List[Optional[ZNSDevice]],
                 config: RaiznConfig, array_uuid: bytes):
        if len(devices) != config.num_devices:
            raise RaiznError(
                f"config wants {config.num_devices} devices, got {len(devices)}")
        template = next((d for d in devices if d is not None), None)
        if template is None:
            raise RaiznError("array has no present device to take geometry from")
        for dev in devices:
            if dev is None:
                continue
            if (dev.num_zones != template.num_zones
                    or dev.zone_capacity != template.zone_capacity
                    or dev.zone_size != template.zone_size):
                raise RaiznError("array devices must have identical geometry")
        self.sim = sim
        self.devices: List[Optional[ZNSDevice]] = list(devices)
        self.config = config
        self.array_uuid = array_uuid
        self.num_data_zones = template.num_zones - config.num_metadata_zones
        if self.num_data_zones < 1:
            raise RaiznError("devices too small for the metadata reservation")
        self.mapper = AddressMapper(config, template.zone_capacity,
                                    self.num_data_zones)
        self.phys_zone_size = template.zone_size
        self.phys_zone_capacity = template.zone_capacity

        self.zone_descs = [
            LogicalZoneDesc(z, self.mapper.zone_start(z),
                            self.mapper.zone_capacity, config.num_data,
                            config.stripe_unit_bytes)
            for z in range(self.num_data_zones)
        ]
        self.phys: List[List[PhysicalZoneDesc]] = [
            [PhysicalZoneDesc(d, z, z * self.phys_zone_size)
             for z in range(template.num_zones)]
            for d in range(config.num_devices)
        ]
        self.generation = [1] * self.num_data_zones
        md_indices = list(range(self.num_data_zones, template.num_zones))
        self.mdzones: List[Optional[DeviceMetadataZones]] = [
            DeviceMetadataZones(sim, dev, i, md_indices, self.phys_zone_size,
                                self.phys_zone_capacity, self._checkpoint)
            if dev is not None else None
            for i, dev in enumerate(self.devices)
        ]
        self.relocations = RelocationStore(config.stripe_unit_bytes)
        #: Full parity of stripes whose parity SU could not be written in
        #: place (stale data occupies its PBA after a rollback recovery).
        #: Persisted via partial-parity log entries; keyed (zone, stripe).
        self.relocated_parity: Dict[Tuple[int, int], bytes] = {}
        self.failed: List[bool] = [dev is None for dev in self.devices]
        #: Media/command errors charged per device; crossing
        #: ``config.device_error_threshold`` evicts the device (§4.2).
        self.error_counts: List[int] = [0] * config.num_devices
        self.health = HealthStats()
        #: Per-device latency-health scores (gray-failure defense).
        self.device_health: List[DeviceHealth] = [
            DeviceHealth() for _ in range(config.num_devices)]
        # Cached master switch: the hedging/health machinery sits on the
        # hot read/write completion path, so the disabled case must cost
        # one attribute test and nothing else.
        self._failslow_on = config.failslow_protection
        self.rebuild_state: Optional[RebuildState] = None
        self.read_only = False
        self.stats = DeviceStats()
        #: Shared span tracer (see :mod:`repro.trace`); None unless
        #: ``config.tracing`` — the hot paths test this one attribute.
        self.tracer = tracer = Tracer(sim) if config.tracing else None
        #: Cached live aggregate rows for the zero-duration counters
        #: (stripe assembly, parity computation): bumping a cached row
        #: in place is the cheapest possible instrumentation.
        self._tr_stripe_row: Optional[list] = None
        self._tr_parity_full_row: Optional[list] = None
        self._tr_parity_partial_row: Optional[list] = None
        #: Interned per-op root-span sites, filled lazily.
        self._tr_vol_sites: dict = {}
        #: Shared root-span completion callback.
        self._tr_root_cb = None
        #: Rebuild progress counters (zones, bytes, peak_inflight) for the
        #: metrics registry; kept only while tracing.
        self.rebuild_counters: Optional[Dict[str, int]] = None
        if tracer is not None:
            self.rebuild_counters = {"zones": 0, "bytes": 0,
                                     "peak_inflight": 0}
            self._tr_stripe_row = tracer.aggregate_row("stripe", "assemble")
            self._tr_parity_full_row = tracer.aggregate_row("parity", "full")
            self._tr_parity_partial_row = tracer.aggregate_row("parity",
                                                               "partial")
            for dev in self.devices:    # every array device shares it
                if dev is not None:
                    dev.tracer = tracer
                    dev._trace_sites = {}

            def _root_cb(event) -> None:
                # Shared completion callback for every logical bio's root
                # span.  Only successful completions are charged (the device
                # layer follows the same rule), and those events succeed
                # with the bio itself, which carries the packed id/site
                # code, the submit time, and the length.
                if not event.ok:
                    return
                bio = event.value
                code = bio.span
                if code is None:
                    return
                bio.span = None
                tracer.record_root(code, bio.submit_time, bio.length)

            self._tr_root_cb = _root_cb
        #: Pending (bio, done) pairs per zone blocked by an in-flight reset.
        self._reset_pending: Dict[int, List[Tuple[Bio, Event]]] = {}
        #: Cached "a device is unavailable" (failed or mid-rebuild), kept
        #: by :meth:`invalidate_write_plans`.  While it is False every
        #: ``_device_available`` is True: a read piece tests this instead
        #: of calling that, and it gates the read path's in-flight table.
        self._degraded = True in self.failed
        self.readpath = ReadPath(self)
        self.writepath = WritePath(self)
        # Logical open-zone budget: each device spends open slots on its
        # partial-parity and general metadata zones.
        self.zoneops = ZoneOps(self, max(1, template.budget.max_open - 2))

    # ------------------------------------------------------------------ geometry

    @property
    def capacity(self) -> int:
        """User-visible bytes."""
        return self.mapper.logical_capacity

    @property
    def zone_capacity(self) -> int:
        """Bytes per logical zone (D physical zone capacities)."""
        return self.mapper.zone_capacity

    @property
    def num_zones(self) -> int:
        return self.num_data_zones

    def zone_info(self, zone: int) -> ZoneInfo:
        """Logical zone report entry."""
        desc = self.zone_descs[zone]
        return ZoneInfo(index=zone, start=desc.start_lba,
                        capacity=desc.capacity,
                        write_pointer=desc.write_pointer, state=desc.state)

    def report_zones(self) -> List[ZoneInfo]:
        """Logical zone report for the whole volume."""
        return [self.zone_info(z) for z in range(self.num_data_zones)]

    # ------------------------------------------------------------------ lifecycle

    @classmethod
    def create(cls, sim: Simulator, devices: List[ZNSDevice],
               config: Optional[RaiznConfig] = None,
               array_uuid: Optional[bytes] = None) -> "RaiznVolume":
        """Format ``devices`` into a fresh RAIZN array.

        Resets every zone, assigns device indices, and persists the
        superblock and initial generation counters to every device.
        Drains the event loop before returning.  ``array_uuid`` may be
        pinned for reproducible media contents (perf/determinism
        harnesses); by default a random UUID is generated.
        """
        config = config or RaiznConfig(num_data=len(devices) - 1)
        volume = cls(sim, list(devices), config,
                     array_uuid=array_uuid or os.urandom(16))
        sim.run_process(volume._format())
        return volume

    def _format(self):
        for index, dev in enumerate(self.devices):
            assert dev is not None
            for info in dev.report_zones():
                if info.state is not ZoneState.EMPTY:
                    yield dev.submit(Bio.zone_reset(info.start))
        events = [self.mdzones[index].append_async(
            MetadataRole.GENERAL, self._superblock(index), fua=True)
            for index in range(len(self.devices))]
        events.extend(self._persist_generation())
        yield self.sim.all_of(events)

    def _superblock(self, index: int) -> MetadataEntry:
        """Device ``index``'s superblock entry (§4.3)."""
        return Superblock(
            version=SUPERBLOCK_VERSION, num_data=self.config.num_data,
            num_parity=self.config.num_parity,
            stripe_unit_bytes=self.config.stripe_unit_bytes,
            num_zones=self.num_data_zones + self.config.num_metadata_zones,
            zone_capacity=self.phys_zone_capacity,
            num_metadata_zones=self.config.num_metadata_zones,
            device_index=index, array_uuid=self.array_uuid).to_entry()

    # ------------------------------------------------------------------ submission

    def submit(self, bio: Bio) -> Event:
        """Submit a logical bio; the event succeeds with the completed bio."""
        sim = self.sim
        bio.submit_time = sim.now
        done = sim.event()
        tracer = self.tracer
        if tracer is not None:
            # The root span is two ints parked on the bio (id + site,
            # packed) and a shared callback — no per-bio trace objects.
            code = bio.span = self._root_code(bio.op)
            done.add_callback(self._tr_root_cb)
            # The fan-out below is synchronous: device commands and
            # metadata appends it spawns parent themselves under this
            # bio's root span via the tracer's current-parent slot.
            tracer.current_parent = code >> SITE_BITS
        try:
            self._dispatch(bio, done)
        except (RaiznError, DeviceError) as exc:
            sim.schedule(0.0, done.fail, exc)
        finally:
            if tracer is not None:
                tracer.current_parent = -1
        return done

    def _root_code(self, op: Op) -> int:
        """A traced logical ``op``'s root span: its packed id and site."""
        site = self._tr_vol_sites.get(op)
        if site is None:
            site = self._tr_vol_sites[op] = self.tracer.site("volume", op)
        return self.tracer.root_code(site)

    def execute(self, bio: Bio) -> Bio:
        """Synchronously run one bio to completion (drains the event loop)."""
        done = self.submit(bio)
        self.sim.run()
        if not done.triggered:
            raise RaiznError("logical bio never completed")
        if not done.ok:
            raise done.value
        return done.value

    def _dispatch(self, bio: Bio, done: Event) -> None:
        if (bio.offset | bio.length) & _SECTOR_MASK:
            bio.check_alignment()
        op = bio.op
        if self._degraded and self.failed.count(True) > self.config.num_parity \
                and (op is Op.WRITE or op is Op.ZONE_APPEND or op is Op.READ):
            raise DegradedModeError(
                f"{self.failed.count(True)} devices unavailable; single "
                "parity serves IO through at most one loss")
        if self.read_only and (op is Op.WRITE or op is Op.ZONE_APPEND or
                               op is Op.ZONE_RESET or op is Op.ZONE_FINISH):
            raise VolumeStateError("volume is read-only")
        if op is Op.WRITE or op is Op.ZONE_APPEND:
            zone = self.mapper.zone_of(bio.offset)
            desc = self.zone_descs[zone]
            if desc.reset_in_progress:
                self._reset_pending.setdefault(zone, []).append((bio, done))
                return
            self.writepath.start(bio, done, zone, desc)
        elif op is Op.READ:
            self.readpath.start(bio, done)
        elif op is Op.FLUSH:
            self.sim.schedule(0.0, self.writepath.flush_all, bio, done)
        else:
            self.zoneops.start(bio, done)

    # ------------------------------------------------------------------ helpers

    def _device_available(self, index: int, zone: int) -> bool:
        """Can device ``index`` serve IO for logical zone ``zone``?"""
        if self.failed[index] or self.devices[index] is None:
            return False
        state = self.rebuild_state
        if state is not None and state.device_index == index \
                and not state.done and zone not in state.rebuilt_zones:
            return False
        return True

    def _alive_devices(self) -> List[int]:
        return [i for i in range(len(self.devices)) if not self.failed[i]
                and self.devices[i] is not None]

    def _sync_phys_desc(self, index: int, zone: int) -> None:
        """Refresh one physical zone descriptor from device truth.

        Called after a command error: the volume's optimistic write
        pointer may be ahead of what actually applied, and the zone may
        have transitioned (wear-out) without the volume noticing.
        """
        dev = self.devices[index]
        if dev is None:
            return
        info = dev.zone_info(zone)
        pdesc = self.phys[index][zone]
        pdesc.write_pointer = info.write_pointer
        pdesc.state = info.state

    def _note_device_error(self, index: int) -> None:
        """Charge one error to a device; evict it past the threshold.

        Eviction only happens while the array retains parity tolerance —
        with redundancy already exhausted, the erroring device limps on
        (an evicted second device would turn every stripe unreadable).
        """
        self.error_counts[index] += 1
        if self.error_counts[index] < self.config.device_error_threshold:
            return
        if self.failed[index]:
            return
        if sum(self.failed) >= self.config.num_parity:
            return
        self.fail_device(index, remove=False)
        self.health.evictions += 1

    def _note_latency(self, index: int, is_read: bool,
                      seconds: float) -> None:
        """Feed one completion latency into device ``index``'s health.

        Escalation ladder: a score past ``SLOW_DEMOTE_SCORE`` demotes the
        device (reads are served from redundancy instead, writes still
        land on it and keep feeding the score); a demoted device whose
        score recovers is reinstated; one that stays past
        ``slow_evict_score`` through the grace window is evicted through
        the standard flow, gated on parity tolerance like
        :meth:`_note_device_error`.  Latency outliers never touch
        ``error_counts`` — slowness and hard errors escalate separately.
        """
        health = self.device_health[index]
        health.observe(is_read, seconds)
        config = self.config
        if not health.demoted:
            if health.slow_score >= SLOW_DEMOTE_SCORE:
                health.demoted = True
                health.samples_since_demote = 0
                self.health.slow_demotions += 1
            return
        if health.slow_score <= SLOW_DEMOTE_SCORE * 0.5:
            # Sustained recovery (hysteresis at half the demote score):
            # lift the demotion and give the device its reads back.
            health.demoted = False
            return
        if health.slow_score >= config.slow_evict_score \
                and health.samples_since_demote >= SLOW_EVICT_MIN_SAMPLES \
                and not self.failed[index] \
                and sum(self.failed) < config.num_parity:
            self.fail_device(index, remove=False)
            self.health.evictions += 1
            self.health.slow_evictions += 1

    def device_health_report(self) -> List[dict]:
        """Per-device latency-health snapshot (see :class:`DeviceHealth`)."""
        return [health.to_dict() for health in self.device_health]

    def _persist_generation(self, fua: bool = False) -> List[Event]:
        """Append the generation-counter block(s) to every live device."""
        return [self.mdzones[index].append_async(
            MetadataRole.GENERAL, entry, fua=fua)
            for entry in self._generation_blocks()
            for index in self._alive_devices()]

    def _generation_blocks(self) -> List[MetadataEntry]:
        """Every zone's generation counter, as GENERATION entries."""
        return [encode_generation_block(
            first, self.generation[first:first + GENERATION_BLOCK_COUNTERS])
            for first in range(0, self.num_data_zones,
                               GENERATION_BLOCK_COUNTERS)]

    def _checkpoint(self, role: MetadataRole,
                    device_index: int) -> List[MetadataEntry]:
        """Live metadata to checkpoint during metadata GC (§4.3, Figure 4)."""
        entries: List[MetadataEntry] = []
        if role is MetadataRole.GENERAL:
            entries.append(self._superblock(device_index))
            entries.extend(self._generation_blocks())
            for unit in self.relocations.units_on_device(device_index):
                zone = self.mapper.zone_of(unit.su_lba)
                # The zero-length marker records that this SU is
                # relocated even when nothing has been written into it
                # yet — without it, a crash after this checkpoint could
                # resurrect the stale on-device bytes.
                entries.append(encode_relocated_su(
                    unit.su_lba, b"", self.generation[zone]))
                for lo, hi in unit.extents:
                    entries.append(encode_relocated_su(
                        unit.su_lba + lo, bytes(unit.buffer[lo:hi]),
                        self.generation[zone]))
        else:
            # Partial parity: serialize the cumulative parity of every
            # incomplete stripe buffer whose parity lives on this device.
            for desc in self.zone_descs:
                buffer = desc.tail
                if buffer is None or buffer.fill_end == 0 or buffer.full:
                    continue
                layout = self.mapper.stripe_layout(desc.zone, buffer.stripe)
                if layout.parity_device != device_index:
                    continue
                stripe_lba = desc.start_lba + buffer.stripe * desc.stripe_width
                parity = buffer.full_parity()
                hi = min(buffer.fill_end, len(parity))
                entries.append(encode_partial_parity(
                    stripe_lba, stripe_lba + buffer.fill_end,
                    self.generation[desc.zone], 0, parity[:hi]))
            # Relocated parity of completed stripes whose parity SU could
            # not be written in place: one cumulative entry covering the
            # whole stripe keeps it recoverable after the delta logs are
            # garbage collected.
            for (zone, stripe), parity in sorted(self.relocated_parity.items()):
                layout = self.mapper.stripe_layout(zone, stripe)
                if layout.parity_device != device_index:
                    continue
                desc = self.zone_descs[zone]
                stripe_lba = desc.start_lba + stripe * desc.stripe_width
                entries.append(encode_partial_parity(
                    stripe_lba, stripe_lba + desc.stripe_width,
                    self.generation[zone], 0, parity))
        return entries

    # ------------------------------------------------------------------ fault handling

    def invalidate_write_plans(self) -> None:
        """Drop cached write plans on a membership/degraded transition.

        Cached plans are pure geometry, but they are consumed under
        emit-time availability/conflict checks that assume the
        membership they were built under; clearing the cache on every
        eviction, rebuild start, and rejoin keeps each cached plan
        trivially confined to a single membership epoch.
        """
        self._degraded = True in self.failed or self.rebuild_state is not None
        self.writepath.invalidate_plans()

    def fail_device(self, index: int, remove: bool = True) -> None:
        """Fail (and optionally remove) one array device."""
        if self.failed[index]:
            return
        others_failed = sum(self.failed)
        if others_failed >= self.config.num_parity:
            raise DataLossError(
                "failing another device exceeds the parity tolerance")
        dev = self.devices[index]
        if dev is not None:
            dev.fail_device()
        self.failed[index] = True
        if remove:
            self.devices[index] = None
            self.mdzones[index] = None
        self.invalidate_write_plans()
