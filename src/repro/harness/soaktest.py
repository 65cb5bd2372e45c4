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

* **phase specs** for the kernel's phase loop
  (:class:`~repro.harness.campaign.Campaign`): per phase, the fault
  rates, the gray failure, a mid-workload eviction, a rebuild, a real
  crash/recover cycle; every phase ends with the oracle on the live
  array, a scrub, and exploration of the phase's recorded crash states;
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

import functools
import hashlib
import json
import random
from typing import Dict, FrozenSet, List, Optional

from ..block.bio import BioFlags
from ..faults.crashpoints import array_state_fingerprint
from ..faults.failslow import SlowDeviceSpec
from ..faults.oracle import (
    check_persistence_bitmap_soundness,
    check_recovered_volume,
)
from ..raizn.volume import RaiznVolume
from ..trace.metrics import MetricsRegistry
from .campaign import (
    SCALE,
    WORKLOAD_ZONES,
    Campaign,
    CampaignReport,
    CrashState,
    Op,
    PhaseSpec,
    ZoneRules,
    fresh_array,
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


def _phase_specs(quick: bool) -> List[PhaseSpec]:
    """Every phase scripts its ops under latent and transient faults,
    records a crash state every 90 completions, checks and scrubs the
    live array and explores those states; on top of that, the gray
    failure, the eviction, the rebuild and the crash cycle vary."""
    max_snaps = 6 if quick else 9
    phase = functools.partial(
        PhaseSpec, ops=70 if quick else 110, latent=0.02, transient=0.01,
        scrub=True, explore=range(90, 90 * (max_snaps + 1), 90),
        budget=6 if quick else 8)
    if quick:
        return [
            phase(slow=SlowDeviceSpec(device_index=1, degrade_factor=3.0)),
            phase(latent=0.0, evict="op"),
            phase(rebuild=True, cycle=True,
                  slow=SlowDeviceSpec(device_index=2, stall_probability=0.05,
                                      stall_seconds=2e-3)),
        ]
    return [
        phase(slow=SlowDeviceSpec(device_index=1, degrade_factor=3.0)),
        phase(cycle=True,
              slow=SlowDeviceSpec(device_index=2, stall_probability=0.05,
                                  stall_seconds=2e-3)),
        phase(latent=0.0, evict="op"),
        phase(rebuild=True,
              slow=SlowDeviceSpec(device_index=4, ramp_per_second=1e-5)),
        phase(cycle=True,
              slow=SlowDeviceSpec(device_index=2, degrade_factor=2.5)),
        phase(slow=SlowDeviceSpec(device_index=1, stall_probability=0.08,
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
        return min(nbytes, SCALE.stripe_unit_bytes)

    def note_reset(self, zone: int) -> None:
        self.spent[zone] += 1


# ---------------------------------------------------------------- report


class _Report(CampaignReport):
    fields = ("seed", "quick", "phases", "workload_ops", "boundaries",
              "candidates", "distinct_states", "evictions", "rebuilds",
              "crash_cycles", "scrubs", "scrub_heals", "injected",
              "slowed_commands", "endurance", "oracle_checks",
              "oracle_violations", "violations", "mechanism_signatures",
              "mechanisms_exercised", "campaign_fingerprint", "passed",
              "elapsed_s")

    def stamp(self, *chunks: str) -> None:
        for chunk in chunks:
            self.digest.update(chunk.encode())

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
        return self.digest.hexdigest()

    @property
    def passed(self) -> bool:
        return not self.violations and len(self.mechanisms_exercised) >= 3


# ---------------------------------------------------------------- campaign


class _Campaign(Campaign):
    name = "soak"
    evict_target = EVICT_TARGET
    overrides = SOAK_OVERRIDES
    check = "recovered_volume"

    def __init__(self, seed: int, quick: bool, progress=None):
        specs = _phase_specs(quick)
        checks = ("phase_boundary", "recovered_volume", "persistence_bitmap",
                  "crash_cycle")
        report = _Report(seed=seed, quick=quick, phases=len(specs),
                         signatures=set(),
                         digest=hashlib.blake2b(digest_size=16),
                         oracle_checks=dict.fromkeys(checks, 0))
        super().__init__(seed, specs, report, random.Random(seed + 101),
                         progress)
        self.quick = quick

    def start(self):
        sim, _, volume = fresh_array(
            self.seed, zone_reset_limit=ENDURANCE_LIMIT, **SOAK_OVERRIDES)
        return sim, volume

    def ops(self, phase: int, spec: PhaseSpec) -> List[Op]:
        """Scripted ops for one phase, anchored to the live zone pointers.

        Unlike the crashtest workload, the soak cannot pre-script the
        whole campaign: crash/recover cycles roll zone pointers back, so
        each phase's ops are generated from the current (deterministic)
        volume state, under the wear rules above.
        """
        seed, volume = self.seed, self.volume
        extra = {} if spec.evict != "op" else {
            spec.ops // 2: ("evict", EVICT_TARGET, None, None, BioFlags.NONE)}
        return script_ops(
            random.Random(seed * 9176 + phase), spec.ops,
            lambda index, _pos: seed * 7 + phase * 1000003 + index,
            frontier=[desc.write_pointer - desc.start_lba
                      for desc in volume.zone_descs[:WORKLOAD_ZONES]],
            rules=_WearRules(volume), extra_ops=extra)

    def other(self, op: Op) -> None:   # the scripted eviction
        self.volume.fail_device(op[1], remove=False)
        self.report.evictions += 1

    def check_live(self, phase: int) -> None:
        report, volume = self.report, self.volume
        report.oracle_checks["phase_boundary"] += 1
        for detail in (check_recovered_volume(volume, self.expect)
                       + check_persistence_bitmap_soundness(volume)):
            report.violation(phase=phase, where="live",
                             check="phase_boundary", detail=detail)

    def explored(self, state: CrashState) -> bool:
        # Nothing is pruned: every sampled state is mounted.
        self.report.boundaries += state.index == 0
        self.report.candidates += 1
        return True

    def mounted(self, state: CrashState,
                volume: Optional[RaiznVolume]) -> None:
        signature = (frozenset() if volume is None
                     else mechanism_signature(volume))
        self.report.signatures.add(signature)
        self.report.stamp(state.fingerprint, ",".join(sorted(signature)))

    def cycled(self, volume: RaiznVolume) -> None:
        self.report.signatures.add(mechanism_signature(volume))
        self.report.stamp("cycle", array_state_fingerprint(
            [d for d in volume.devices if d is not None]))

    def workload(self, phase: int) -> Dict:
        return {"name": "soak", "seed": self.seed, "quick": self.quick,
                "phase": phase, "cycles": [[cycled, survivors(assignment)]
                                           for cycled, assignment
                                           in sorted(self.cycles.items())]}

    def finish(self) -> None:
        report = self.report
        report.endurance = [
            {"device": dev.name, **dev.endurance_report()}
            for dev in self.devices if dev is not None]
        for entry in report.endurance:
            report.stamp(json.dumps(entry, sort_keys=True))
        report.stamp(array_state_fingerprint(
            [d for d in self.devices if d is not None]))


def run_soaktest(seed: int = 0, quick: bool = False, progress=None) -> Dict:
    """Run the compound-fault soak campaign; returns the report dict."""
    return _Campaign(seed, quick, progress=progress).run().to_dict()
