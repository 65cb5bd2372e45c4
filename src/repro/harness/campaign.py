"""The campaign kernel: what crashtest, errortest, slowtest and soaktest share.

Each fault campaign is the same pipeline over a different fault layer —
build the small array, arm layers (every one through
``BlockDevice.add_hook``), drive a seeded scripted workload while an
acked-content model follows it, then check: read everything back on the
live array, or crash the array into sampled survivor states and mount
each under the durability oracle — and write a JSON report.  This module
holds one of each of those pieces, and the one phase loop
(:class:`Campaign`) that crashtest, errortest and soaktest are lists of
:class:`PhaseSpec` run by; the campaign modules keep only what is theirs
(crashtest: boundary sampling; errortest: fault plan, inline reads,
eviction over the error threshold, detection power; slowtest: the three
variants and the tail bound; soaktest: phase specs, wear rules and
mechanism signatures).
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
import traceback
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from ..block.bio import Bio, BioFlags
from ..errors import PowerLossError, ReproError
from ..faults.crashpoints import (
    CompletionBoundaries,
    apply_survivor_assignment,
    array_crash_snapshot,
    array_restore_crash_snapshot,
    array_state_fingerprint,
    enumerate_survivor_assignments,
)
from ..faults.devicefail import fresh_replacement
from ..faults.errinject import FaultPlan
from ..faults.failslow import SlowDeviceSpec, SlowPlan
from ..faults.oracle import (
    WorkloadExpectation,
    check_mount_stability,
    check_persistence_bitmap_soundness,
    check_recovered_volume,
)
from ..raizn.maintenance import run_scrub
from ..raizn.rebuild import rebuild
from ..raizn.recovery import mount
from ..raizn.volume import RaiznVolume
from ..sim import Simulator
from ..units import KiB, MiB
from ..zns.device import ZNSDevice
from .arrays import ArrayScale, make_raizn

#: Array geometry: small enough that a single crash state mounts in
#: milliseconds, rich enough for multi-zone / metadata-GC interleavings.
SCALE = ArrayScale(num_zones=12, zone_capacity=1 * MiB)
#: Bytes per logical zone (D physical zone capacities).
LOGICAL_ZONE_CAPACITY = SCALE.zone_capacity * (SCALE.num_devices - 1)
#: Scripted workloads touch this many logical zones.
WORKLOAD_ZONES = 3
#: Fixed array UUID so every replay produces byte-identical media.
ARRAY_UUID = bytes(range(16))

#: Default script mix: write sizes, and the (flush, read, reset) roll
#: thresholds — no reads, 12 % flushes, 6 % voluntary resets.
WRITE_SIZES = (4 * KiB, 12 * KiB, 64 * KiB, 128 * KiB, 192 * KiB, 256 * KiB)
THRESHOLDS = (0.12, 0.12, 0.18)

#: One scripted op: (kind, zone, lba, data, flags); lba/data are None for
#: anything but a write.
Op = Tuple[str, int, Optional[int], Optional[bytes], BioFlags]


# ---------------------------------------------------------------- array


def fresh_array(seed: int, trace_out: Optional[str] = None, **overrides):
    """A formatted campaign array in a fresh simulator (identical on
    every call); ``overrides`` go to :func:`make_raizn`.  With
    ``trace_out`` it is traced from the start, for
    ``tracecli.dump_spans(volume, trace_out)`` to write out at the end
    (a no-op on an untraced array)."""
    sim = Simulator()
    volume, devices = make_raizn(sim, SCALE, seed, array_uuid=ARRAY_UUID,
                                 tracing=bool(trace_out), **overrides)
    return sim, devices, volume


def replacement_device(sim: Simulator, volume: RaiznVolume, name: str,
                       seed: int) -> ZNSDevice:
    """A blank device of the array's geometry, to rebuild onto."""
    template = next(d for d in volume.devices if d is not None)
    return fresh_replacement(sim, template, name=name, seed=seed)


def drain(sim: Simulator) -> None:
    """Run the event loop dry, absorbing power-loss process deaths."""
    while True:
        try:
            sim.run()
            return
        except PowerLossError:
            continue


# ---------------------------------------------------------------- workload


class ZoneRules:
    """Per-zone limits on the scripted workload; the default has none.

    soaktest overrides these with its erase-budget (wear) rules.
    """

    def skip(self, zone: int) -> bool:
        """Drop this iteration's op on ``zone`` altogether."""
        return False

    def can_reset(self, zone: int) -> bool:
        return True

    def clamp(self, zone: int, nbytes: int) -> int:
        """Final size of a write the script drew for ``zone``."""
        return nbytes

    def note_reset(self, zone: int) -> None:
        pass


def script_ops(rng: random.Random, num_ops: int,
               payload_seed: Callable[[int, int], int],
               thresholds: Tuple[float, float, float] = THRESHOLDS,
               write_sizes: Sequence[int] = WRITE_SIZES,
               frontier: Optional[Sequence[int]] = None,
               rules: Optional[ZoneRules] = None,
               extra_ops: Optional[Mapping[int, Op]] = None) -> List[Op]:
    """The seeded op script every campaign replays.

    Each of ``num_ops`` iterations draws a zone and a roll; ``thresholds``
    = (flush, read, reset) are the roll values below which the iteration
    becomes that op instead of a write (a threshold equal to the one
    before it disables its op).  A write that would overflow its zone is
    preceded by a scripted reset, so every replay makes the same choice.
    Payloads come from ``random.Random(payload_seed(iteration, position
    in the script))``.  ``frontier`` is each workload zone's starting
    fill, ``extra_ops[i]`` is inserted ahead of iteration ``i``.
    """
    flush_below, read_below, reset_below = thresholds
    rules = rules or ZoneRules()
    extra_ops = extra_ops or {}
    frontier = list(frontier) if frontier is not None \
        else [0] * WORKLOAD_ZONES
    ops: List[Op] = []
    for index in range(num_ops):
        if index in extra_ops:
            ops.append(extra_ops[index])
        zone = rng.randrange(WORKLOAD_ZONES)
        roll = rng.random()
        if rules.skip(zone):
            continue
        if roll < flush_below:
            ops.append(("flush", 0, None, None, BioFlags.NONE))
            continue
        if roll < read_below and frontier[zone] > 0:
            ops.append(("read", zone, None, None, BioFlags.NONE))
            continue
        can_reset = rules.can_reset(zone)
        if roll < reset_below and frontier[zone] > 0 and can_reset:
            ops.append(("reset", zone, None, None, BioFlags.NONE))
            frontier[zone] = 0
            rules.note_reset(zone)
            continue
        nbytes = rules.clamp(zone, rng.choice(write_sizes))
        if frontier[zone] + nbytes > LOGICAL_ZONE_CAPACITY:
            if not can_reset:
                continue  # full, and the zone may not be recycled
            ops.append(("reset", zone, None, None, BioFlags.NONE))
            frontier[zone] = 0
            rules.note_reset(zone)
        flag_roll = rng.random()
        if flag_roll < 0.15:
            flags = BioFlags.FUA | BioFlags.PREFLUSH
        elif flag_roll < 0.30:
            flags = BioFlags.FUA
        else:
            flags = BioFlags.NONE
        data = random.Random(payload_seed(index, len(ops))).randbytes(nbytes)
        ops.append(("write", zone,
                    zone * LOGICAL_ZONE_CAPACITY + frontier[zone], data,
                    flags))
        frontier[zone] += nbytes
    return ops


def expectation_for(volume: RaiznVolume) -> WorkloadExpectation:
    """An empty acked-content model sized to ``volume``."""
    return WorkloadExpectation(volume.num_data_zones, volume.zone_capacity)


def expectation_from_volume(volume: RaiznVolume) -> WorkloadExpectation:
    """Re-anchor the oracle after a crash/recover cycle.

    Whatever recovery presented is, by the mount-stability contract,
    durable: the new expectation's submitted stream and synced frontier
    are both the recovered content.
    """
    expect = expectation_for(volume)
    for zone in range(WORKLOAD_ZONES):
        desc = volume.zone_descs[zone]
        length = desc.write_pointer - desc.start_lba
        if length <= 0:
            continue
        content = bytes(volume.execute(Bio.read(desc.start_lba,
                                                length)).result)
        zexp = expect.zones[zone]
        zexp.submitted = bytearray(content)
        zexp.synced = length
    return expect


def drive_ops(volume: RaiznVolume, ops: Sequence[Op],
              expect: WorkloadExpectation, other=None):
    """Process-style driver; updates ``expect`` at submit/ack time.

    Writes, flushes and resets are handled here; any other op kind goes
    to ``other(op)``, which may return a generator to run in-line.
    """
    for op in ops:
        kind, zone, lba, data, flags = op
        if kind == "write":
            expect.note_submit_write(zone, data)
            yield volume.submit(Bio.write(lba, data, flags))
            expect.note_write_acked(zone, fua=bool(flags & BioFlags.FUA))
        elif kind == "flush":
            yield volume.submit(Bio.flush())
            expect.note_flush_acked()
        elif kind == "reset":
            expect.note_submit_reset(zone)
            yield volume.submit(Bio.zone_reset(zone * volume.zone_capacity))
            expect.note_reset_acked(zone)
        else:
            step = other(op)
            if step is not None:
                yield from step


def run_ops(sim: Simulator, volume: RaiznVolume, ops: Sequence[Op],
            expect: WorkloadExpectation, report: "CampaignReport",
            other=None) -> bool:
    """Run :func:`drive_ops` to its end, or return False: whatever
    escapes it (a bug, or a ``ReproError`` the datapath should have
    absorbed) is one ``traceback`` violation, and the caller goes on to
    its report."""
    try:
        sim.run_process(drive_ops(volume, ops, expect, other))
    except Exception:
        report.traceback_violation(phase="ops")
        return False
    return True


def checked_read(volume: RaiznVolume, expect: WorkloadExpectation,
                 report: "CampaignReport", phase: str, zone: int,
                 offset: int, length: int):
    """Read a range of ``zone`` and compare it with what was acked
    (process); a mismatch is ``report.corruption(phase, ...)``, an
    exception that is no ``ReproError`` a ``traceback`` violation."""
    try:
        bio = yield volume.submit(
            Bio.read(zone * volume.zone_capacity + offset, length))
    except ReproError:
        raise
    except Exception:
        report.traceback_violation(phase=phase, zone=zone, offset=offset,
                                   length=length)
        return
    if bio.result != bytes(
            expect.zones[zone].submitted[offset:offset + length]):
        report.corruption(phase, zone, offset, length)


def verify_readback(sim: Simulator, volume: RaiznVolume,
                    expect: WorkloadExpectation, report: "CampaignReport",
                    label: str) -> Dict:
    """Read back every acked byte of every zone, a stripe width at a
    time; returns the pass record (label, bytes, corruptions found)."""
    def proc():
        chunk = volume.config.stripe_width_bytes
        verified = 0
        for zone, zexp in enumerate(expect.zones):
            for offset in range(0, len(zexp.submitted), chunk):
                length = min(chunk, len(zexp.submitted) - offset)
                yield from checked_read(volume, expect, report, label, zone,
                                        offset, length)
                verified += length
        return verified

    before = report.corruptions
    return {"label": label, "bytes": sim.run_process(proc()),
            "corruptions": report.corruptions - before}


# ---------------------------------------------------------------- crash states


def enter_crash_state(devices, snaps, assignment) -> None:
    """Crash the array into one survivor state of a boundary snapshot —
    an exact, replayable crash — and leave it powered on, ready to mount."""
    array_restore_crash_snapshot(devices, snaps)
    apply_survivor_assignment(devices, assignment)


class CrashState(NamedTuple):
    """The ``index``-th sampled survivor ``assignment`` of completion
    ``boundary`` (whose survivor product is ``product``), the crashed
    array's fingerprint, and the expectation frozen at the boundary."""

    boundary: int
    index: int
    assignment: List[Dict[int, int]]
    fingerprint: str
    expect: WorkloadExpectation
    product: int

    def recipe(self, workload: Dict) -> Dict:
        """The state as a crash-corpus entry (``tests/crash_corpus.py``):
        ``workload`` replayed to ``boundary`` and crashed into
        ``survivors`` is the array of ``fingerprint``."""
        return {"workload": workload, "boundary": self.boundary,
                "survivors": survivors(self.assignment),
                "fingerprint": self.fingerprint}


def survivors(assignment) -> List:
    """A survivor assignment as JSON: ``[zone, write pointer]`` pairs."""
    return [sorted(chosen.items()) for chosen in assignment]


def crash_states(devices, snapshots, budget: int, rng: random.Random):
    """The one way a campaign reaches its crash states (generator).

    For each boundary of ``snapshots`` (``{boundary: (device snapshots,
    frozen expectation)}``, a :class:`CompletionBoundaries` recording),
    in order, sample its survivor states under ``budget`` (the all-min
    and all-max corners always among them), crash the array into each
    and yield its :class:`CrashState`, ready to mount.
    """
    for boundary in sorted(snapshots):
        snaps, frozen = snapshots[boundary]
        array_restore_crash_snapshot(devices, snaps)
        assignments, product = enumerate_survivor_assignments(
            [dev.survivor_state_space() for dev in devices], budget, rng)
        for index, assignment in enumerate(assignments):
            enter_crash_state(devices, snaps, assignment)
            yield CrashState(boundary, index, assignment,
                             array_state_fingerprint(devices), frozen,
                             product)


def mount_and_check(sim, devices, expect: WorkloadExpectation,
                    report: "CampaignReport", where: Dict,
                    check: Optional[str] = None, stability: bool = False,
                    **mount_overrides) -> Optional[RaiznVolume]:
    """Mount the crash state the array is in and run the durability oracle.

    Every finding is reported as ``report.violation(**where, check=...,
    detail=...)`` under ``check``, or under the failing oracle's own
    name when ``check`` is None; ``report.oracle_checks`` counts each
    oracle that ran.  ``stability`` adds the remount-is-idempotent
    check.  An exception that is no ``ReproError`` is a ``traceback``
    violation.  Returns the mounted volume, or None if it did not mount.
    """
    def flag(name: str, detail: str) -> None:
        report.violation(**where, check=check or name, detail=detail)

    volume = None
    try:
        try:
            volume = mount(sim, list(devices), **mount_overrides)
        except ReproError as exc:
            flag("mount", f"mount failed: {exc!r}")
            return None
        report.oracle_checks["recovered_volume"] += 1
        for detail in check_recovered_volume(volume, expect):
            flag("recovered_volume", detail)
        report.oracle_checks["persistence_bitmap"] += 1
        for detail in check_persistence_bitmap_soundness(volume):
            flag("persistence_bitmap", detail)
        if stability:
            try:
                remounted = mount(sim, list(devices), **mount_overrides)
            except ReproError as exc:
                flag("mount_stability", f"remount failed: {exc!r}")
                return volume
            report.oracle_checks["mount_stability"] += 1
            for detail in check_mount_stability(volume, remounted):
                flag("mount_stability", detail)
    except ReproError:
        raise
    except Exception:
        report.traceback_violation(**where)
    return volume


# ---------------------------------------------------------------- report


class CampaignReport:
    """Mutable campaign counters; serialises its declared ``fields``.

    ``to_dict`` emits ``fields`` in order, reading each name as an
    attribute or property (a set is reported by its size).  The
    constructor's keywords are a campaign's own starting values; a
    declared field that is neither a property nor one of those is a
    counter starting at 0.  The base provides the shared ones:
    ``violations``, ``corruptions``, ``passed``, ``elapsed_s`` (wall
    time since construction) and what :class:`Campaign`'s loop writes:
    ``injected`` fault counts, the last ``scrub`` and ``rebuild`` and
    the ``distinct_states`` explored.
    """

    fields: Tuple[str, ...] = ()
    #: Corruption records kept in ``violations`` (all are counted).
    MAX_CORRUPTION_RECORDS = 20
    #: What :class:`Campaign`'s loop counts; a report declares the ones
    #: it serialises.
    workload_ops = evictions = rebuilds = scrubs = scrub_heals = 0
    crash_cycles = slowed_commands = 0

    def __init__(self, **values) -> None:
        self.violations: List[Dict] = []
        self.corruptions = 0
        self.injected: Dict[str, int] = {}
        self.scrub: Dict = {}
        self.rebuild: Dict = {}
        self.distinct_states: set = set()
        self.__dict__.update(values)
        self._began = time.time()
        for name in self.fields:
            if not hasattr(type(self), name):
                self.__dict__.setdefault(name, 0)

    def violation(self, **finding) -> None:
        """Record one oracle finding."""
        self.violations.append(finding)

    def traceback_violation(self, **where) -> None:
        """Record the exception being handled as one finding."""
        self.violation(**where, check="traceback",
                       detail=traceback.format_exc())

    def corruption(self, phase: str, zone: int, offset: int,
                   length: int) -> None:
        """Record one read that returned other than the acked bytes."""
        self.corruptions += 1
        if len(self.violations) < self.MAX_CORRUPTION_RECORDS:
            self.violation(phase=phase, zone=zone, offset=offset,
                           length=length)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.corruptions

    @property
    def elapsed_s(self) -> float:
        return round(time.time() - self._began, 2)

    def to_dict(self) -> Dict:
        out = {}
        for name in self.fields:
            value = getattr(self, name)
            out[name] = len(value) if isinstance(value, (set, frozenset)) \
                else value
        return out


def write_report(report: Dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------- phase loop


@dataclasses.dataclass(frozen=True)
class PhaseSpec:
    """What one phase layers onto the live array; every field is one that
    two campaigns, or two phases of one, set differently."""

    ops: int = 0                    # scripted ops (``Campaign.ops``)
    latent: float = 0.0             # a FaultPlan armed for the ops,
    transient: float = 0.0          # unless both rates are 0
    slow: Optional[SlowDeviceSpec] = None   # armed through exploration
    #: Evict ``evict_target``: "op" at a scripted op half-way through the
    #: ops (latent injection must be off: a degraded stripe cannot absorb
    #: a second lost unit), "threshold" over the error threshold after.
    evict: str = ""
    rebuild: bool = False           # an evicted target, first
    scrub: bool = False             # the live array, once checked
    #: End with a real crash/recover cycle: the recovered volume is the
    #: next phase's live array.
    cycle: bool = False
    #: Completions at which crash states are recorded, survivor states
    #: sampled per boundary, and whether each mounted state is remounted.
    explore: Sequence[int] = ()
    budget: int = 0
    stability: bool = False


class Campaign:
    """The one phase loop: a campaign is a list of :class:`PhaseSpec` run
    on one long-lived array.

    A phase rebuilds, arms its layers, drives its ops, evicts, checks the
    live array, scrubs it, has its recorded crash states explored and
    crash-cycles, in that order.  What is one campaign's own, a subclass
    overrides: the array (``start``), a phase's ``ops`` and the handler
    of its ops that are no IO (``other``), ``drive_eviction`` over the
    error threshold, ``check_live``, the count of an ``explored`` state
    (True mounts it) and of a ``mounted`` or ``cycled`` volume, the
    recipe's ``workload`` and the report's closing fields (``finish``).
    """

    name = "campaign"       # replacement devices are named after it
    evict_target = 1
    overrides: Mapping = {}  # runtime policy of every crash-state mount
    check: Optional[str] = None  # None: each oracle reports as itself

    def __init__(self, seed: int, specs: Sequence[PhaseSpec],
                 report: CampaignReport, rng: Optional[random.Random] = None,
                 progress=None):
        self.seed, self.specs, self.report = seed, specs, report
        self.rng, self.progress, self.phase = rng, progress, 0
        #: phase -> the survivors of its crash cycle, drawn from ``rng``
        #: unless a crash-corpus replay put them here.
        self.cycles: Dict[int, List[Dict[int, int]]] = {}

    def start(self):
        sim, _, volume = fresh_array(self.seed)
        return sim, volume

    def ops(self, phase: int, spec: PhaseSpec) -> List[Op]:
        return []

    def other(self, op: Op):
        pass

    def check_live(self, phase: int) -> None:
        pass

    def explored(self, state: CrashState) -> bool:
        return True

    def mounted(self, state: CrashState, volume) -> None:
        pass

    def cycled(self, volume: RaiznVolume) -> None:
        pass

    def finish(self) -> None:
        pass

    # -- the loop --------------------------------------------------------------

    def run(self) -> CampaignReport:
        try:
            for phase, recorder in self.live():
                self._explore(recorder, phase, self.specs[phase])
        except Exception:
            # A phase that raises (a double fault the scrub or rebuild
            # cannot get past) is one finding; the campaign ends with its
            # report, as it does when the op driver dies.
            self.report.traceback_violation(phase=self.phase)
        self.finish()
        return self.report

    def live(self):
        """The live path (generator): yields ``(phase, recorder)`` once an
        exploring phase's ops have run and its live array has been checked
        and scrubbed, its slow plan still armed, then crash-cycles the
        array if the phase says so.  ``sim``/``volume``/``devices``/
        ``expect`` are the live array's.  Exploring (:meth:`run`)
        restores the live array, so a crash-corpus replay runs this alone
        up to its state's phase; the one draw the two share, each crash
        cycle's survivors, is ``cycles``, which a replay hands back."""
        report = self.report
        self.sim, self.volume = self.start()
        self.expect = expectation_for(self.volume)
        self.devices = self.volume.devices
        for self.phase, spec in enumerate(self.specs):
            phase, sim, volume, devices = (self.phase, self.sim, self.volume,
                                           self.devices)
            if spec.rebuild and volume.failed[self.evict_target]:
                rebuilt = rebuild(sim, volume, self.evict_target,
                                  replacement_device(
                                      sim, volume,
                                      f"{self.name}-replacement{phase}",
                                      self.seed + 900 + phase))
                report.rebuilds += 1
                report.rebuild = {"zones_rebuilt": rebuilt.zones_rebuilt,
                                  "bytes_written": rebuilt.bytes_written}
            faults = slow = recorder = None
            if spec.latent or spec.transient:
                faults = FaultPlan(
                    seed=self.seed * 31 + phase,
                    num_data_zones=volume.num_data_zones,
                    stripe_unit_bytes=SCALE.stripe_unit_bytes,
                    latent_rate=spec.latent, transient_rate=spec.transient,
                    max_latent=3, max_latent_per_device=1)
                faults.arm(devices)
            if spec.slow is not None:
                slow = SlowPlan(seed=self.seed * 37 + phase,
                                specs=[spec.slow])
                slow.arm(devices)
            if spec.explore:
                # Recorder last: completion hooks run in install order, so
                # a boundary snapshot sees the k-th completion's injected
                # faults too.
                recorder = CompletionBoundaries(
                    devices, snapshot_at=spec.explore,
                    aux_state=self.expect.copy)

            ops = self.ops(phase, spec)
            report.workload_ops += len(ops)
            if not run_ops(sim, volume, ops, self.expect, report,
                           self.other):
                return  # the op driver died: on to the report
            drain(sim)
            if recorder is not None:
                recorder.disarm()
            if faults is not None:
                faults.disarm()
                for key, value in faults.counts.to_dict().items():
                    report.injected[key] = report.injected.get(key, 0) + value
            if spec.evict == "threshold":
                sim.run_process(self.drive_eviction())

            self.check_live(phase)
            if spec.scrub:
                scrub = run_scrub(sim, volume)
                report.scrubs += 1
                report.scrub_heals += scrub.data_heals + scrub.parity_heals
                report.scrub = scrub.to_dict()
            if recorder is not None:
                yield phase, recorder
                if spec.cycle and recorder.snapshots:
                    self._crash_cycle(recorder, phase)
            if slow is not None:
                slow.disarm()
                report.slowed_commands += sum(
                    slow.counts.slowed_commands.values())
            if self.progress is not None:
                self.progress(report)

    def _explore(self, recorder, phase: int, spec: PhaseSpec) -> None:
        devices = self.devices
        live = array_crash_snapshot(devices)
        for state in crash_states(devices, recorder.snapshots, spec.budget,
                                  self.rng):
            self.report.distinct_states.add(state.fingerprint)
            if self.explored(state):
                self.mounted(state, mount_and_check(
                    self.sim, devices, state.expect, self.report,
                    {"phase": phase, "where": "crash_state",
                     "recipe": state.recipe(self.workload(phase))},
                    check=self.check, stability=spec.stability,
                    **self.overrides))
        array_restore_crash_snapshot(devices, live)

    def _crash_cycle(self, recorder, phase: int) -> None:
        """Really crash the live array and carry on from the recovery,
        mounted and checked as a candidate state is (under
        ``crash_cycle``).  A crash the array does not mount from is a
        violation; the campaign then carries on from the live array it
        had."""
        report, devices = self.report, self.devices
        boundary = max(recorder.snapshots)
        live = array_crash_snapshot(devices)
        if phase not in self.cycles:
            *_, drawn = crash_states(devices, {
                boundary: recorder.snapshots[boundary]}, 3, self.rng)
            self.cycles[phase] = drawn.assignment
        snaps, frozen = recorder.snapshots[boundary]
        enter_crash_state(devices, snaps, self.cycles[phase])
        state = CrashState(boundary, 0, self.cycles[phase],
                           array_state_fingerprint(devices), frozen, 0)
        report.crash_cycles += 1
        report.oracle_checks["crash_cycle"] += 1
        volume = mount_and_check(self.sim, devices, frozen, report,
                                 {"phase": phase, "where": "crash_cycle",
                                  "recipe": state.recipe(
                                      self.workload(phase))},
                                 check="crash_cycle", **self.overrides)
        if volume is None:
            array_restore_crash_snapshot(devices, live)
            return
        self.cycled(volume)
        self.volume, self.devices = volume, volume.devices
        self.expect = expectation_from_volume(volume)
