"""Deterministic crash-state explorer for the RAIZN recovery path.

Replaces "run a workload, randomly settle the write caches, hope the bad
interleaving shows up" with systematic coverage in the style of
crash-state enumerators like Silhouette (FAST '25).  On top of the
campaign kernel (:mod:`repro.harness.campaign`: array, op script,
restore → enumerate → crash → mount → oracle) this module adds:

* **Two-pass boundary sampling** — pass 1 runs the scripted workload and
  counts device-level bio completions, the instants at which the
  acknowledged-IO set changes; pass 2, one explored phase of the
  kernel's phase loop, replays it identically, taking a device snapshot
  plus a frozen copy of the workload's durability expectations at an
  even spread of those boundaries (pure copies: nothing is perturbed).
  Every sampled survivor state of every sampled boundary
  (:func:`~repro.harness.campaign.crash_states`) is mounted under the
  full oracle, remount stability included, and a violation
  carries the state's recipe, which replays it as a crash-corpus entry
  (``tests/crash_corpus.py``).

A crash inside mount itself is checked at every command of the pinned
mount states by ``tests/test_mount_restart.py``.

Run via ``python -m repro crashtest``; emits a JSON coverage report
(README, "Crash-consistency testing"; EXPERIMENTS.md has the numbers).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..faults.crashpoints import CompletionBoundaries
from .campaign import (
    Campaign,
    CampaignReport,
    CrashState,
    Op,
    PhaseSpec,
    expectation_for,
    fresh_array,
    run_ops,
    script_ops,
)
from .tracecli import dump_spans


def scripted_workload(seed: int, num_ops: int) -> List[Op]:
    """The pre-generated, replayable write/flush/reset op sequence.

    Sizes, payloads, flags and target LBAs are all derived from
    ``seed``, so the trace pass, the snapshot pass, and any debugging
    rerun execute the exact same submissions.
    """
    return script_ops(random.Random(seed), num_ops,
                      lambda index, _pos: seed * 1000003 + index)


class _Report(CampaignReport):
    fields = ("seed", "workload_ops", "completion_boundaries",
              "boundaries_sampled", "survivor_product_total",
              "states_explored", "distinct_states", "oracle_checks",
              "violations", "passed", "elapsed_s")


class _Campaign(Campaign):
    """One explored phase: the script replayed with every sampled
    boundary recorded, each state mounted once per expectation."""

    def __init__(self, seed: int, ops: List[Op], spec: PhaseSpec,
                 report: _Report, progress=None):
        super().__init__(seed, [spec], report, random.Random(seed + 1),
                         progress)
        self.script = ops
        #: (fingerprint, expectation summary) pairs already mounted.
        self.checked: set = set()

    def ops(self, phase: int, spec: PhaseSpec) -> List[Op]:
        return self.script

    def explored(self, state: CrashState) -> bool:
        report = self.report
        if state.index == 0:
            report.survivor_product_total += state.product
        report.states_explored += 1
        # The expectation matters: the same settled state reached at two
        # boundaries can carry different acked frontiers, and only the
        # stronger one may expose a lost-acked-byte violation.
        key = (state.fingerprint, tuple(
            (zone.synced, len(zone.submitted), zone.resetting)
            for zone in state.expect.zones))
        fresh = key not in self.checked
        self.checked.add(key)
        return fresh

    def workload(self, phase: int) -> Dict:
        return {"name": "script", "seed": self.seed,
                "num_ops": self.specs[0].ops}


def explore(seed: int = 0, num_ops: int = 90, boundaries: int = 60,
            budget_per_boundary: int = 12, progress=None,
            trace_out: Optional[str] = None) -> Dict:
    """Run the full crash-state exploration; returns the report dict.

    ``boundaries`` completion boundaries are sampled evenly from the
    trace; each contributes up to ``budget_per_boundary`` survivor
    states.  ``trace_out`` traces the pass-1 workload replay (the
    reference run every crash state is carved from) and dumps its spans
    there as JSONL.
    """
    report = _Report(seed=seed, oracle_checks=dict.fromkeys(
        ("recovered_volume", "persistence_bitmap", "mount_stability"), 0))
    ops = scripted_workload(seed, num_ops)

    # Pass 1: count completion boundaries.
    sim, devices, volume = fresh_array(seed, trace_out=trace_out)
    counter = CompletionBoundaries(devices)
    ran = run_ops(sim, volume, ops, expectation_for(volume), report)
    counter.disarm()
    total = counter.count
    report.completion_boundaries = total
    dump_spans(volume, trace_out)
    if ran:
        # Pass 2: the identical replay, a snapshot at every sampled
        # boundary.
        sampled = sorted({max(1, round((i + 1) * total / boundaries))
                          for i in range(min(boundaries, total))})
        report.boundaries_sampled = len(sampled)
        _Campaign(seed, ops, PhaseSpec(
            ops=num_ops, explore=sampled, budget=budget_per_boundary,
            stability=True), report, progress).run()
    report.workload_ops = len(ops)
    return report.to_dict()
