"""Seeded storage-error campaign + end-to-end integrity oracle.

Answers the question the self-healing datapath exists for: *after
hundreds of injected media, transient, and wear-out faults, is every
byte the array ever acknowledged still exactly what was written?*  On
top of the campaign kernel (:mod:`repro.harness.campaign`: array, op
script and driver, acked-content model, read-back verifier) this module
adds:

* the :class:`~repro.faults.errinject.FaultPlan` armed through the
  whole campaign (latent errors on just-written media, transient command
  failures, victim zones wearing out to READ_ONLY / OFFLINE mid-write)
  and inline verification of the script's mid-campaign reads;
* four phases of the kernel's phase loop: the workload, then a
  background **scrub**; a full read-back of the scrubbed array;
  **eviction** — one device is driven over the volume's error threshold
  until it is evicted into degraded mode; **rebuild** onto a fresh
  replacement; each of the last three closed by a full read-back;
* a **detection-power** run: the first two phases of a small campaign
  with ``read_repair`` disabled must make the oracle report corruption
  — evidence that "0 violations" is a property of the healing datapath,
  not of a blind oracle.

Run via ``python -m repro errortest [--quick]``; emits a JSON report.
Fixed seed ⇒ bit-identical report (minus wall-clock timing).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..block.bio import Bio
from ..faults.errinject import FaultPlan
from ..units import KiB
from .campaign import (
    SCALE,
    WORKLOAD_ZONES,
    Campaign,
    CampaignReport,
    Op,
    PhaseSpec,
    checked_read,
    fresh_array,
    script_ops,
    verify_readback,
)
from .tracecli import dump_spans

_WRITE_SIZES = (4 * KiB, 16 * KiB, 64 * KiB, 128 * KiB, 192 * KiB,
                256 * KiB)
#: Device evicted in the eviction phase.
EVICT_TARGET = 1


class _Report(CampaignReport):
    fields = ("seed", "smoke", "read_repair", "workload_ops",
              "midstream_reads", "injected", "health", "scrub",
              "verify_passes", "eviction", "rebuild", "corruptions",
              "violations", "passed", "elapsed_s")


#: The live check closing phases 1-3 of the main campaign: a full
#: read-back after the scrub, after the eviction, after the rebuild.
_PASSES = ("post-scrub", "degraded", "post-rebuild")


class _Campaign(Campaign):
    evict_target = EVICT_TARGET

    def __init__(self, seed: int, quick: bool, read_repair: bool,
                 trace_out: Optional[str]):
        # Phase 1 only reads back: phase 0 checks nothing, since a read-back
        # ahead of its scrub would heal what the scrub must find.  With
        # read-repair off this is detection power: no scrub, which would
        # heal what it must catch, and no eviction or rebuild.
        specs = [PhaseSpec(ops=80 if quick else 160, scrub=read_repair),
                 PhaseSpec()]
        if read_repair:
            specs += [PhaseSpec(evict="threshold"), PhaseSpec(rebuild=True)]
        super().__init__(seed, specs, _Report(
            seed=seed, smoke=quick, read_repair=read_repair,
            verify_passes=[], eviction={}))
        self.quick, self.read_repair, self.trace_out = (quick, read_repair,
                                                        trace_out)
        self.read_rng = random.Random(seed + 17)

    def start(self):
        seed, quick = self.seed, self.quick
        # Extra metadata zones: heal relocation entries are stripe-unit
        # sized, so the GENERAL log rotates far more often than under a
        # fault-free workload, and its checkpoint can spill past one zone
        # (a worn-out zone's worth of relocated SUs exceeds one metadata
        # zone).  Five zones sustain a two-zone checkpoint at steady
        # state: role + spill live while two fresh swap zones stay in the
        # pool.
        sim, devices, volume = fresh_array(
            seed, trace_out=self.trace_out, num_metadata_zones=5,
            max_transient_retries=4,
            device_error_threshold=15 if quick else 40,
            read_repair=self.read_repair)
        rng = random.Random(seed + 5)
        victim_devices = rng.sample(range(SCALE.num_devices),
                                    2 if quick else 3)
        # All wear victims share one zone, so the other workload zones
        # stay eligible for latent injection.  Only the first goes
        # OFFLINE — a stripe can lose at most one readable unit
        # (READ_ONLY zones still serve reads), which single parity
        # tolerates.
        wear_zone = rng.randrange(WORKLOAD_ZONES)
        wear_victims = [(dev, wear_zone, vi == 0)
                        for vi, dev in enumerate(victim_devices)]
        # One plan for the whole campaign, armed through every phase.
        self.plan = FaultPlan(
            seed=seed + 1,
            num_data_zones=volume.num_data_zones,
            stripe_unit_bytes=SCALE.stripe_unit_bytes,
            latent_rate=0.4 if quick else 0.45,
            transient_rate=0.01 if quick else 0.015,
            max_latent_per_device=5 if quick else 8,
            wear_victims=wear_victims,
            wear_after_writes=6 if quick else 8,
        )
        self.plan.arm(devices)
        return sim, volume

    def ops(self, phase: int, spec: PhaseSpec) -> List[Op]:
        # Detection power resets no zone: a reset would discard latent
        # errors before the read-back meets them.
        seed = self.seed
        return script_ops(
            random.Random(seed), spec.ops,
            lambda _index, position: seed * 1000003 + position,
            thresholds=(0.08, 0.30, 0.33 if self.read_repair else 0.30),
            write_sizes=_WRITE_SIZES)

    def other(self, op: Op):
        """The driver's handler for scripted ``read`` ops (process): a
        random 4 KiB-aligned range of the zone's acked content, verified
        inline."""
        zone, expect, rng = op[1], self.expect, self.read_rng
        frontier = expect.next_write_offset(zone)
        if frontier < 4 * KiB:
            return
        offset = rng.randrange(0, frontier // (4 * KiB)) * (4 * KiB)
        length = min(frontier - offset, (1 + rng.randrange(16)) * (4 * KiB))
        yield from checked_read(self.volume, expect, self.report, "workload",
                                zone, offset, length)
        self.report.midstream_reads += 1

    def drive_eviction(self):
        """Drive ``EVICT_TARGET`` over the error threshold with targeted
        faults (process).

        Every submission to the target fails transiently, so each read of
        one of its stripe units exhausts the retry budget, charges one
        error, and is served from redundancy — correct data throughout,
        until the threshold trips and the volume evicts the device.
        """
        volume, plan, report, target = (self.volume, self.plan, self.report,
                                        EVICT_TARGET)
        su = volume.config.stripe_unit_bytes
        width = volume.config.stripe_width_bytes
        # Stage fresh stripes in a zone the fault workload never touched:
        # reads there are guaranteed to reach the target device rather
        # than a relocated copy healed earlier in the campaign.  All
        # injection is paused while staging so the zone stays pristine.
        plan.latent_rate = 0.0
        plan.transient_rate = 0.0
        plan.transient_targets = None
        zone = WORKLOAD_ZONES
        stage = random.Random(self.seed * 7919 + 17)
        stripe = 0
        while target not in volume.mapper.stripe_layout(
                zone, stripe).data_devices:
            stripe += 1
        payload = [stage.randbytes(width) for _ in range(stripe + 1)]
        for index, data in enumerate(payload):
            yield volume.submit(
                Bio.write(zone * volume.zone_capacity + index * width, data))
        yield volume.submit(Bio.flush())
        layout = volume.mapper.stripe_layout(zone, stripe)
        i = layout.data_devices.index(target)
        offset = stripe * width + i * su
        expected = payload[stripe][i * su:(i + 1) * su]
        # The degraded serve does not relocate, so re-reading the same
        # unit keeps hitting the device.
        plan.transient_rate = 1.0
        plan.transient_targets = {target}
        reads = 0
        safety = 4 * volume.config.device_error_threshold
        while not volume.failed[target] and reads < safety:
            bio = yield volume.submit(
                Bio.read(zone * volume.zone_capacity + offset, su))
            reads += 1
            if bio.result != expected:
                report.corruption("evict", zone, offset, su)
        plan.transient_rate = 0.0
        plan.transient_targets = None
        report.eviction = {"target": target,
                           "evicted": bool(volume.failed[target]),
                           "reads": reads}

    def check_live(self, phase: int) -> None:
        if phase:
            self.report.verify_passes.append(verify_readback(
                self.sim, self.volume, self.expect, self.report,
                _PASSES[phase - 1]))

    def finish(self) -> None:
        self.plan.disarm()
        self.report.injected = self.plan.counts.to_dict()
        self.report.health = self.volume.health.to_dict()
        dump_spans(self.volume, self.trace_out)


def run_campaign(seed: int = 0, quick: bool = False,
                 read_repair: bool = True,
                 trace_out: Optional[str] = None) -> _Report:
    """One full error campaign; returns the filled-in report."""
    return _Campaign(seed, quick, read_repair, trace_out).run()


def detection_power(seed: int = 0) -> Dict:
    """Small campaign with read-repair off: the oracle must catch it.

    With healing disabled, injected latent errors are served verbatim,
    so a sound integrity oracle must report corruption.  If this comes
    back clean, the main campaign's "0 violations" would be meaningless.
    """
    report = run_campaign(seed=seed, quick=True, read_repair=False)
    return {
        "corruptions": report.corruptions,
        "unrepaired_serves": report.health.get("unrepaired_serves", 0),
        "caught": report.corruptions > 0,
    }


def run_errortest(seed: int = 0, quick: bool = False,
                  trace_out: Optional[str] = None) -> Dict:
    """The full errortest: main campaign + detection-power check."""
    report = run_campaign(seed=seed, quick=quick, trace_out=trace_out)
    detection = detection_power(seed)
    result = report.to_dict()  # elapsed_s covers both runs
    result["detection_power"] = detection
    min_faults = 20 if quick else 200
    result["min_faults"] = min_faults
    result["passed"] = (
        result["passed"]
        and result["injected"].get("total", 0) >= min_faults
        and detection["caught"]
        and result["eviction"].get("evicted", False)
    )
    return result
