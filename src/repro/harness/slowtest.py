"""Fail-slow (gray-failure) campaign + tail-latency bound check.

Answers the question the hedging datapath exists for: *with one device
silently degraded — answering every command, just slowly — does the
array still serve reads at roughly healthy tail latency, and is every
acknowledged byte still correct?*  On top of the campaign kernel
(:mod:`repro.harness.campaign`: array, acked-content model, read-back
verifier) this module adds the fill / prime / mixed-load phases and
three variants of them:

1. **healthy** — no fault, protection on: the baseline read-latency
   distribution (and evidence the defense is free when nothing is wrong).
2. **hedged** — a :class:`~repro.faults.failslow.SlowPlan` makes one
   device persistently slower with intermittent multi-millisecond
   stalls; stragglers are raced against parity reconstruction, the
   device is demoted, and past the score threshold evicted into the
   standard rebuild flow.
3. **unhedged** — same fault, protection off: what an undefended array
   suffers.

It asserts hedged p999 ≤ ``HEDGED_BOUND``× the healthy p999 while
unhedged p999 is ≥ ``UNHEDGED_BOUND``×, and zero integrity violations
in all three runs.  Run via ``python -m repro slowtest [--quick]``;
emits a JSON report and the ``BENCH_tail.json`` numbers.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Dict, Optional

from ..block.bio import Bio
from ..faults.failslow import SlowDeviceSpec, SlowPlan
from ..faults.oracle import WorkloadExpectation
from ..raizn.maintenance import run_health_maintenance
from ..raizn.volume import HEDGE_MIN_SAMPLES, RaiznVolume
from ..sim import Simulator
from ..sim.stats import LatencyStats
from .campaign import (
    SCALE,
    WORKLOAD_ZONES,
    CampaignReport,
    checked_read,
    expectation_for,
    fresh_array,
    replacement_device,
    verify_readback,
)
from .tracecli import dump_spans

#: The gray-failing device.
SLOW_DEVICE = 1
#: Acceptance bounds on p999(fail-slow) / p999(healthy).
HEDGED_BOUND = 3.0
UNHEDGED_BOUND = 10.0


#: The campaign's gray failure: persistently 3x slower with
#: intermittent 10 ms stalls on 15 % of commands.
SLOW_SPEC = SlowDeviceSpec(device_index=SLOW_DEVICE, degrade_factor=3.0,
                           stall_probability=0.15, stall_seconds=10e-3)


class VariantReport(CampaignReport):
    """One variant's counters and latency distribution."""

    fields = ("name", "seed", "protection", "injected", "reads", "writes",
              "read_latency", "latency_digest", "health", "device_health",
              "slow_counts", "sweep", "verified_bytes", "corruptions",
              "violations")

    @property
    def read_latency(self) -> Dict[str, float]:
        pcts = self.latencies.percentiles((50.0, 99.0, 99.9))
        return {
            "p50_ms": round(pcts[50.0] * 1e3, 4),
            "p99_ms": round(pcts[99.0] * 1e3, 4),
            "p999_ms": round(pcts[99.9] * 1e3, 4),
            "max_ms": round(self.latencies.maximum * 1e3, 4),
            "mean_ms": round(self.latencies.mean * 1e3, 4),
        }

    @property
    def latency_digest(self) -> str:
        """Sample-exact fingerprint: same seed must reproduce it."""
        fingerprint = hashlib.sha256()
        for sample in self.latencies.sorted_samples():
            fingerprint.update(str(round(sample * 1e9)).encode())
        return fingerprint.hexdigest()[:16]


def _fill_zones(volume: RaiznVolume, seed: int,
                expect: WorkloadExpectation):
    """Fill and finish the workload zones with seeded data (process)."""
    su = volume.config.stripe_unit_bytes
    for zone in range(WORKLOAD_ZONES):
        base = zone * volume.zone_capacity
        rng = random.Random(seed * 1000003 + zone)
        for offset in range(0, volume.zone_capacity, su):
            data = rng.randbytes(su)
            yield volume.submit(Bio.write(base + offset, data))
            expect.note_submit_write(zone, data)
        yield volume.submit(Bio.zone_finish(base))
    yield volume.submit(Bio.flush())


def _read_su(volume: RaiznVolume, rng: random.Random,
             expect: WorkloadExpectation, report: VariantReport,
             phase: str):
    """One verified read of a random stripe unit of the filled zones
    (each lands on exactly one device, so a fifth hit the slow one)."""
    su = volume.config.stripe_unit_bytes
    zone = rng.randrange(WORKLOAD_ZONES)
    offset = rng.randrange(volume.zone_capacity // su) * su
    yield from checked_read(volume, expect, report, phase, zone, offset, su)


def _prime_reads(volume: RaiznVolume, seed: int,
                 expect: WorkloadExpectation, count: int,
                 report: VariantReport):
    """Seeded healthy reads that prime the per-device latency EWMAs
    before any fault arms (a gray failure develops on a *running*
    array, so the baseline distributions are learned clean)."""
    rng = random.Random(seed + 41)
    for _ in range(count):
        yield from _read_su(volume, rng, expect, report, "prime")


def _mixed_load(sim: Simulator, volume: RaiznVolume, seed: int,
                expect: WorkloadExpectation, num_reads: int,
                num_writes: int, report: VariantReport):
    """Mixed read/write phase; read completion latencies are recorded.

    Reads are SU-sized and SU-aligned over the pre-filled zones; writes
    stream through the spare zones, cycling with resets, so the
    straggler also sees foreground write pressure.
    """
    su = volume.config.stripe_unit_bytes
    rng = random.Random(seed + 97)
    spare = list(range(WORKLOAD_ZONES, volume.num_zones))
    spare_at = 0
    reads_left, writes_left = num_reads, num_writes
    write_rng = random.Random(seed + 131)
    while reads_left or writes_left:
        if rng.randrange(reads_left + writes_left) < reads_left:
            began = sim.now
            yield from _read_su(volume, rng, expect, report, "mixed")
            report.latencies.add(sim.now - began)
            report.reads += 1
            reads_left -= 1
        else:
            zone = spare[spare_at % len(spare)]
            if expect.next_write_offset(zone) + su > volume.zone_capacity:
                spare_at += 1
                zone = spare[spare_at % len(spare)]
                if expect.next_write_offset(zone):
                    yield volume.submit(
                        Bio.zone_reset(zone * volume.zone_capacity))
                    expect.note_reset_acked(zone)
            data = write_rng.randbytes(su)
            lba = zone * volume.zone_capacity + expect.next_write_offset(zone)
            yield volume.submit(Bio.write(lba, data))
            expect.note_submit_write(zone, data)
            report.writes += 1
            writes_left -= 1


def run_campaign(name: str, seed: int = 0, protection: bool = True,
                 inject: bool = True, quick: bool = False,
                 trace_out: Optional[str] = None) -> VariantReport:
    """One fail-slow campaign variant; returns the filled-in report."""
    report = VariantReport(name=name, seed=seed, protection=protection,
                           injected=inject, latencies=LatencyStats(),
                           slow_counts={}, sweep={})
    num_reads = 400 if quick else 2000
    num_writes = 100 if quick else 500
    sim, devices, volume = fresh_array(seed, trace_out=trace_out,
                                       failslow_protection=protection)

    expect = expectation_for(volume)
    sim.run_process(_fill_zones(volume, seed, expect))
    # Prime until every device's read-latency distribution is trusted
    # (>= HEDGE_MIN_SAMPLES): the gray failure must arm against learned
    # *healthy* baselines, or the slow device's early samples would be
    # absorbed into its own deadline.
    for round_ in range(8):
        sim.run_process(_prime_reads(volume, seed + round_, expect,
                                     64 * SCALE.num_devices, report))
        if not protection or all(h.read.samples >= HEDGE_MIN_SAMPLES
                                 for h in volume.device_health):
            break

    plan = None
    if inject:
        plan = SlowPlan(seed=seed + 1, specs=[SLOW_SPEC])
        plan.arm(devices)
    sim.run_process(_mixed_load(sim, volume, seed, expect, num_reads,
                                num_writes, report))
    if plan is not None:
        plan.disarm()
        report.slow_counts = plan.counts.to_dict()

    # Escalation end-state: a slow-evicted device goes through the
    # standard rebuild flow onto a fresh replacement before the verify
    # pass, exercising the whole ladder (demote -> evict -> rebuild).
    if protection and inject:
        sweep = run_health_maintenance(
            sim, volume,
            lambda index: replacement_device(
                sim, volume, f"replacement{index}", seed + 99))
        report.sweep = sweep.to_dict()

    report.verified_bytes = verify_readback(
        sim, volume, expect, report, "verify")["bytes"]
    report.health = volume.health.to_dict()
    report.device_health = volume.device_health_report()
    dump_spans(volume, trace_out)
    return report


def run_slowtest(seed: int = 0, quick: bool = False,
                 trace_out: Optional[str] = None) -> Dict:
    """The full slowtest: three variants plus the tail-latency bounds.

    ``trace_out`` traces the *hedged* campaign (the interesting one —
    its spans show reconstruction reads racing primaries) and dumps its
    spans there.
    """
    began = time.time()
    healthy = run_campaign("healthy", seed, protection=True, inject=False,
                           quick=quick)
    hedged = run_campaign("hedged", seed, protection=True, inject=True,
                          quick=quick, trace_out=trace_out)
    unhedged = run_campaign("unhedged", seed, protection=False, inject=True,
                            quick=quick)
    variants = (healthy, hedged, unhedged)
    healthy_p999 = healthy.latencies.p999
    hedged_ratio = hedged.latencies.p999 / healthy_p999
    unhedged_ratio = unhedged.latencies.p999 / healthy_p999
    violations = sum(r.corruptions for r in variants)
    defended = (hedged.health.get("slow_hedges", 0) >= 1
                and hedged.health.get("slow_demotions", 0) >= 1)
    result = {
        "seed": seed,
        "quick": quick,
        "campaigns": [r.to_dict() for r in variants],
        "hedged_p999_over_healthy": round(hedged_ratio, 2),
        "unhedged_p999_over_healthy": round(unhedged_ratio, 2),
        "hedged_bound": HEDGED_BOUND,
        "unhedged_bound": UNHEDGED_BOUND,
        "oracle_violations": violations,
        "passed": (violations == 0 and defended
                   and hedged_ratio <= HEDGED_BOUND
                   and unhedged_ratio >= UNHEDGED_BOUND),
        "elapsed_s": round(time.time() - began, 2),
    }
    result["bench"] = bench_summary(result)
    return result


def bench_summary(result: Dict) -> Dict:
    """The committed ``BENCH_tail.json`` shape: hedged-on/off tail
    latency against the healthy baseline, for one seed."""
    by_name = {c["name"]: c for c in result["campaigns"]}
    return {
        "bench": "tail_latency",
        "seed": result["seed"],
        "quick": result["quick"],
        "healthy": by_name["healthy"]["read_latency"],
        "hedged": by_name["hedged"]["read_latency"],
        "unhedged": by_name["unhedged"]["read_latency"],
        "slow_hedges": by_name["hedged"]["health"]["slow_hedges"],
        "hedge_wins": by_name["hedged"]["health"]["hedge_wins"],
        "slow_demotions": by_name["hedged"]["health"]["slow_demotions"],
        "slow_evictions": by_name["hedged"]["health"]["slow_evictions"],
        "hedged_p999_over_healthy": result["hedged_p999_over_healthy"],
        "unhedged_p999_over_healthy": result["unhedged_p999_over_healthy"],
        "passed": result["passed"],
    }
