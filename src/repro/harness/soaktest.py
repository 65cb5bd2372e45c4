"""Compound-fault soak campaign: crash x error x slow x wear, composed.

The paper's durability argument (§5.2/§5.3) only holds if the recovery
mechanisms *compose*: a latent error discovered while a gray-failing
device drags the array through hedged reads, on a zone whose erase
budget just ran out, across a power cut.  This is the campaign kernel
(:mod:`repro.harness.campaign`) with all layers on — a
:class:`~repro.faults.errinject.FaultPlan`, a
:class:`~repro.faults.failslow.SlowPlan` and a
:class:`~repro.faults.crashpoints.CompletionBoundaries` recorder armed
together on one long-lived array — and what this module adds to it:

* **phase specs**: per phase, the fault rates, the gray failure, a
  mid-workload eviction, a rebuild, a real crash/recover cycle; every
  phase ends with the oracle on the live array, a scrub, and
  exploration of the phase's recorded crash states;
* **wear rules**: devices have a finite erase budget
  (``zone_reset_limit``) and the script recycles zones until it runs
  out, so wear-driven faults appear organically instead of injected;
* **mechanism signatures**: every sampled crash state is mounted (a
  mount costs tens of milliseconds, so nothing is pruned) and its
  :func:`mechanism_signature` names the recovery mechanisms it
  exercised; the report lists them.

Run via ``python -m repro soaktest`` (``--quick`` for the CI-sized
campaign); emits a JSON mechanism-coverage report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Dict, FrozenSet, List, Optional

from ..block.bio import Bio, BioFlags
from ..faults.crashpoints import (
    CompletionBoundaries,
    array_crash_snapshot,
    array_restore_crash_snapshot,
    array_state_fingerprint,
)
from ..faults.errinject import FaultPlan
from ..faults.failslow import SlowDeviceSpec, SlowPlan
from ..faults.oracle import (
    WorkloadExpectation,
    check_persistence_bitmap_soundness,
    check_recovered_volume,
)
from ..raizn.maintenance import run_scrub
from ..raizn.rebuild import rebuild
from ..raizn.volume import RaiznVolume
from ..trace.metrics import MetricsRegistry
from .campaign import (
    STRIPE_UNIT,
    WORKLOAD_ZONES,
    CampaignReport,
    CrashState,
    Op,
    ZoneRules,
    crash_states,
    drain,
    enter_crash_state,
    expectation_for,
    fresh_array,
    mount_and_check,
    replacement_device,
    run_ops,
    script_ops,
    survivors,
)

#: Erase budget per physical zone: low enough that the campaign's zone
#: recycling wears data zones out organically in the later phases.
ENDURANCE_LIMIT = 4
#: Device evicted mid-workload (and later rebuilt).
EVICT_TARGET = 3
#: The one workload zone allowed to spend its whole erase budget.  A
#: logical reset erases every device's physical zone in lockstep, so a
#: fully worn zone relocates *all* of its pieces; the workload caps
#: post-wear writes (below, ``_WORN_WRITE_CAP`` small writes per phase)
#: so relocations stay under ``relocation_rebuild_threshold`` — a worn
#: zone cannot be erased, so the §5.2 rewrite could never heal it and
#: unbounded writes would exhaust the metadata zones.
WEAR_ZONE = 2
_WORN_WRITE_CAP = 2

#: Config knobs applied both at create time and on every recovery mount
#: (they are runtime policy, not superblock state).  Health-driven
#: eviction is disabled: the campaign already schedules an explicit
#: eviction, and an *unscheduled* one composed with the next phase's
#: latent-error injection would manufacture a double fault (one failed
#: device + one media error in the same stripe) that single parity
#: cannot serve — an array-model limit, not a composition bug.
#: Demotion and hedged reads stay live.
SOAK_OVERRIDES = dict(
    failslow_protection=True,
    device_error_threshold=10 ** 9,
    slow_evict_score=10.0 ** 9,
)

#: Health counter -> the mechanism a non-zero value proves ran.
_COUNTER_MECHANISMS = {
    "health.heals": "read_repair",
    "health.parity_heals": "parity_heal",
    "health.slow_hedges": "hedge",
    "health.evictions": "eviction",
    "health.wear_errors": "wear_redirect",
    "health.transient_retries": "transient_retry",
}
#: Everything the signature extractor can tag a recovered state with.
MECHANISMS = (*_COUNTER_MECHANISMS.values(), "mdzone_gc_replay",
              "degraded_mount", "relocation", "partial_parity_rebuild")


# ---------------------------------------------------------------- signatures


def mechanism_signature(volume: RaiznVolume) -> FrozenSet[str]:
    """Recovery mechanisms a freshly mounted volume exercised.

    Derived from the unified metrics registry (health counters, mdzone
    GC counters) plus the relocation state recovery ingested, so the
    signature is exactly what the observability layer already exports.
    """
    flat = MetricsRegistry.for_volume(volume).flat()
    mechs = {mechanism for counter, mechanism in _COUNTER_MECHANISMS.items()
             if flat.get(counter)}
    if any(value for key, value in flat.items()
           if key.startswith("mdzone.") and key.endswith(".gc_cycles")):
        mechs.add("mdzone_gc_replay")
    if any(volume.failed):
        mechs.add("degraded_mount")
    if volume.relocations.units():
        mechs.add("relocation")
    if volume.relocated_parity:
        mechs.add("partial_parity_rebuild")
    return frozenset(mechs)


# ---------------------------------------------------------------- campaign


@dataclasses.dataclass(frozen=True)
class _PhaseSpec:
    """What one soak phase layers onto the array."""

    latent: float = 0.02
    transient: float = 0.01
    slow: Optional[SlowDeviceSpec] = None
    #: Evict ``EVICT_TARGET`` mid-segment (latent injection must be off:
    #: a degraded stripe cannot absorb a second lost unit).
    evict: bool = False
    #: Rebuild the evicted device onto a fresh replacement at the start
    #: of this phase.
    rebuild: bool = False
    #: End the phase with a real crash/recover cycle: the recovered
    #: volume *becomes* the live array for the next phase.
    cycle: bool = False


def _phase_specs(quick: bool) -> List[_PhaseSpec]:
    if quick:
        return [
            _PhaseSpec(slow=SlowDeviceSpec(device_index=1,
                                           degrade_factor=3.0)),
            _PhaseSpec(latent=0.0, evict=True),
            _PhaseSpec(rebuild=True, cycle=True,
                       slow=SlowDeviceSpec(device_index=2,
                                           stall_probability=0.05,
                                           stall_seconds=2e-3)),
        ]
    return [
        _PhaseSpec(slow=SlowDeviceSpec(device_index=1, degrade_factor=3.0)),
        _PhaseSpec(cycle=True,
                   slow=SlowDeviceSpec(device_index=2,
                                       stall_probability=0.05,
                                       stall_seconds=2e-3)),
        _PhaseSpec(latent=0.0, evict=True),
        _PhaseSpec(rebuild=True,
                   slow=SlowDeviceSpec(device_index=4,
                                       ramp_per_second=1e-5)),
        _PhaseSpec(cycle=True,
                   slow=SlowDeviceSpec(device_index=2, degrade_factor=2.5)),
        _PhaseSpec(slow=SlowDeviceSpec(device_index=1,
                                       stall_probability=0.08,
                                       stall_seconds=1e-3)),
    ]


class _WearRules(ZoneRules):
    """Erase-budget rules for one phase's script.

    Zones that wore out (every physical zone READ_ONLY after a reset)
    stop being reset — their erase budget is spent; ``WEAR_ZONE`` keeps
    taking a capped number of small writes, which the datapath relocates.
    """

    def __init__(self, volume: RaiznVolume):
        # Highest erase count across the array: a logical reset erases
        # every device's physical zone in lockstep, so one number per zone.
        self.spent = [max(dev.zone_reset_count(zone)
                          for dev in volume.devices if dev is not None)
                      for zone in range(WORKLOAD_ZONES)]
        self.worn_writes = 0

    def _budget(self, zone: int) -> int:
        return ENDURANCE_LIMIT - self.spent[zone]

    def skip(self, zone: int) -> bool:
        return self._budget(zone) <= 0 and (
            zone != WEAR_ZONE or self.worn_writes >= _WORN_WRITE_CAP)

    def can_reset(self, zone: int) -> bool:
        # Only WEAR_ZONE may spend its final erase cycle; the others keep
        # one in reserve so they never go end-of-life mid-campaign.
        budget = self._budget(zone)
        return budget >= 2 or (zone == WEAR_ZONE and budget >= 1)

    def clamp(self, zone: int, nbytes: int) -> int:
        if self._budget(zone) > 0:
            return nbytes
        self.worn_writes += 1
        return min(nbytes, STRIPE_UNIT)

    def note_reset(self, zone: int) -> None:
        self.spent[zone] += 1


def _phase_ops(seed: int, phase: int, volume: RaiznVolume, num_ops: int,
               evict_at: Optional[int]) -> List[Op]:
    """Scripted ops for one phase, anchored to the live zone pointers.

    Unlike the crashtest workload, the soak cannot pre-script the whole
    campaign: crash/recover cycles roll zone pointers back, so each
    phase's ops are generated from the current (deterministic) volume
    state, under the wear rules above.
    """
    extra = {} if evict_at is None else {
        evict_at: ("evict", EVICT_TARGET, None, None, BioFlags.NONE)}
    return script_ops(
        random.Random(seed * 9176 + phase), num_ops,
        lambda index, _pos: seed * 7 + phase * 1000003 + index,
        frontier=[desc.write_pointer - desc.start_lba
                  for desc in volume.zone_descs[:WORKLOAD_ZONES]],
        rules=_WearRules(volume), extra_ops=extra)


def _expectation_from_volume(volume: RaiznVolume) -> WorkloadExpectation:
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


# ---------------------------------------------------------------- report


class _Report(CampaignReport):
    fields = ("seed", "quick", "phases", "workload_ops", "boundaries",
              "candidates", "distinct_states", "evictions", "rebuilds",
              "crash_cycles", "scrubs", "scrub_heals", "injected",
              "slowed_commands", "endurance", "oracle_checks",
              "oracle_violations", "violations", "mechanism_signatures",
              "mechanisms_exercised", "campaign_fingerprint", "passed",
              "elapsed_s")

    def __init__(self, seed: int, quick: bool):
        super().__init__()
        self.seed = seed
        self.quick = quick
        self.distinct_states: set = set()
        self.oracle_checks = {
            "phase_boundary": 0,
            "recovered_volume": 0,
            "persistence_bitmap": 0,
            "crash_cycle": 0,
        }
        self.signatures: set = set()
        self.injected: Dict[str, int] = {}
        self.endurance: List[dict] = []
        self._digest = hashlib.blake2b(digest_size=16)

    def stamp(self, *chunks: str) -> None:
        for chunk in chunks:
            self._digest.update(chunk.encode())

    @property
    def oracle_violations(self) -> int:
        return len(self.violations)

    @property
    def mechanism_signatures(self) -> List[List[str]]:
        return sorted(sorted(sig) for sig in self.signatures)

    @property
    def mechanisms_exercised(self) -> List[str]:
        return sorted(set().union(*self.signatures))

    @property
    def campaign_fingerprint(self) -> str:
        return self._digest.hexdigest()

    @property
    def passed(self) -> bool:
        return not self.violations and len(self.mechanisms_exercised) >= 3


# ---------------------------------------------------------------- campaign


class _Campaign:
    def __init__(self, seed: int, quick: bool, progress=None):
        self.seed = seed
        self.quick = quick
        self.progress = progress
        self.report = _Report(seed, quick)
        self.rng = random.Random(seed + 101)
        #: phase -> the survivors of its crash cycle, drawn from ``rng``
        #: unless a crash-corpus replay put them here.
        self.cycles: Dict[int, List[Dict[int, int]]] = {}
        self.num_ops = 70 if quick else 110
        self.snap_every = 90
        self.max_snaps = 6 if quick else 9
        self.budget_per_boundary = 6 if quick else 8

    # -- top level -------------------------------------------------------------

    def run(self) -> Dict:
        report = self.report
        try:
            for phase, recorder in self.live():
                self._explore(self.sim, self.devices, recorder, phase)
        except Exception:
            # A phase that raises (a double fault the scrub or rebuild
            # cannot get past) is one finding; the campaign ends with its
            # report, as it does when the op driver dies.
            report.traceback_violation(phase=self.phase)
        report.endurance = [
            {"device": dev.name, **dev.endurance_report()}
            for dev in self.devices if dev is not None]
        for entry in report.endurance:
            report.stamp(json.dumps(entry, sort_keys=True))
        report.stamp(array_state_fingerprint(
            [d for d in self.devices if d is not None]))
        return report.to_dict()

    def live(self):
        """The live path (generator): yields ``(phase, recorder)`` once a
        phase's ops have run and its live array has been checked and
        scrubbed, its slow plan still armed, then crash-cycles the array
        if the phase says so.  ``sim``/``volume``/``devices`` are the
        live array's.  Exploring (:meth:`run`) restores the live array,
        so a crash-corpus replay runs this alone up to its state's phase;
        the one draw the two share, each crash cycle's survivors, is
        ``cycles``, which a replay hands back."""
        report = self.report
        self.sim, _, self.volume = fresh_array(
            self.seed, zone_reset_limit=ENDURANCE_LIMIT, **SOAK_OVERRIDES)
        self.devices = self.volume.devices
        expect = expectation_for(self.volume)
        specs = _phase_specs(self.quick)
        report.phases = len(specs)

        def evict(op) -> None:
            self.volume.fail_device(op[1], remove=False)
            report.evictions += 1

        for self.phase, spec in enumerate(specs):
            phase, sim, volume, devices = (self.phase, self.sim, self.volume,
                                           self.devices)
            if spec.rebuild and volume.failed[EVICT_TARGET]:
                rebuild(sim, volume, EVICT_TARGET, replacement_device(
                    sim, volume, f"soak-replacement{phase}",
                    self.seed + 900 + phase))
                report.rebuilds += 1

            faults = FaultPlan(
                seed=self.seed * 31 + phase,
                num_data_zones=volume.num_data_zones,
                stripe_unit_bytes=STRIPE_UNIT,
                latent_rate=spec.latent, transient_rate=spec.transient,
                max_latent=3, max_latent_per_device=1)
            slow = SlowPlan(seed=self.seed * 37 + phase,
                            specs=[spec.slow] if spec.slow else [])
            faults.arm(devices)
            slow.arm(devices)
            # Recorder last: completion hooks run in install order, so a
            # boundary snapshot sees the k-th completion's injected
            # faults too.
            recorder = CompletionBoundaries(
                devices,
                snapshot_at=range(self.snap_every,
                                  self.snap_every * (self.max_snaps + 1),
                                  self.snap_every),
                aux_state=expect.copy)

            evict_at = self.num_ops // 2 if spec.evict else None
            ops = _phase_ops(self.seed, phase, volume, self.num_ops,
                             evict_at)
            report.workload_ops += len(ops)
            if not run_ops(sim, volume, ops, expect, report, evict):
                return  # the op driver died: on to the report
            drain(sim)

            # The slow plan stays armed through exploration so recovery
            # mounts see the gray failure too.
            recorder.disarm()
            faults.disarm()
            for key, value in faults.counts.to_dict().items():
                report.injected[key] = report.injected.get(key, 0) + value

            self._phase_boundary(sim, volume, expect, phase)
            yield phase, recorder
            if spec.cycle and recorder.snapshots:
                cycled = self._crash_cycle(sim, devices, recorder, phase)
                if cycled is not None:
                    self.volume, expect = cycled
                    self.devices = self.volume.devices
            slow.disarm()
            report.slowed_commands += sum(
                slow.counts.slowed_commands.values())
            if self.progress is not None:
                self.progress(report)

    def recipe(self, state: CrashState, phase: int) -> Dict:
        """``state``, met in ``phase``, as a crash-corpus entry."""
        return state.recipe({
            "name": "soak", "seed": self.seed, "quick": self.quick,
            "phase": phase, "cycles": [[cycled, survivors(assignment)]
                                       for cycled, assignment
                                       in sorted(self.cycles.items())]})

    # -- phase pieces ----------------------------------------------------------

    def _phase_boundary(self, sim, volume, expect, phase) -> None:
        """Continuous oracle: check the live, drained array + scrub it."""
        report = self.report
        report.oracle_checks["phase_boundary"] += 1
        for detail in (check_recovered_volume(volume, expect)
                       + check_persistence_bitmap_soundness(volume)):
            report.violation(phase=phase, where="live",
                             check="phase_boundary", detail=detail)
        # Scrub every boundary: heals this phase's latent errors so the
        # next phase's fresh FaultPlan re-arms onto clean media (its
        # one-error-per-stripe cap only spans its own injections).
        scrub = run_scrub(sim, volume)
        report.scrubs += 1
        report.scrub_heals += scrub.data_heals + scrub.parity_heals

    def _explore(self, sim, devices, recorder, phase) -> None:
        """Mount every sampled crash state of the phase's boundaries."""
        report = self.report
        live = array_crash_snapshot(devices)
        for state in crash_states(devices, recorder.snapshots,
                                  self.budget_per_boundary, self.rng):
            report.boundaries += state.index == 0
            report.candidates += 1
            report.distinct_states.add(state.fingerprint)
            # failslow_protection is a runtime knob, not superblock
            # state: re-enable it on every recovery mount so hedged
            # reads stay live while the SlowPlan drags a device.
            volume = mount_and_check(
                sim, devices, state.expect, report,
                {"phase": phase, "where": "crash_state",
                 "recipe": self.recipe(state, phase)},
                check="recovered_volume", **SOAK_OVERRIDES)
            signature = (frozenset() if volume is None
                         else mechanism_signature(volume))
            report.signatures.add(signature)
            report.stamp(state.fingerprint, ",".join(sorted(signature)))
        array_restore_crash_snapshot(devices, live)

    def _crash_cycle(self, sim, devices, recorder, phase):
        """Really crash the live array and carry on from the recovery,
        mounted and checked as a candidate state is (under
        ``crash_cycle``).  A crash the array does not mount from is a
        violation; the campaign then carries on from the live array it
        had (returns None)."""
        report = self.report
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
        volume = mount_and_check(sim, devices, frozen, report,
                                 {"phase": phase, "where": "crash_cycle",
                                  "recipe": self.recipe(state, phase)},
                                 check="crash_cycle", **SOAK_OVERRIDES)
        if volume is None:
            array_restore_crash_snapshot(devices, live)
            return None
        report.signatures.add(mechanism_signature(volume))
        report.stamp("cycle", array_state_fingerprint(
            [d for d in volume.devices if d is not None]))
        return volume, _expectation_from_volume(volume)


def run_soaktest(seed: int = 0, quick: bool = False, progress=None) -> Dict:
    """Run the compound-fault soak campaign; returns the report dict."""
    return _Campaign(seed, quick, progress=progress).run()
