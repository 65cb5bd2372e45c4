"""Deterministic crash-state explorer for the RAIZN recovery path.

Replaces "run a workload, randomly settle the write caches, hope the bad
interleaving shows up" with systematic coverage in the style of
crash-state enumerators like Silhouette (FAST '25).  On top of the
campaign kernel (:mod:`repro.harness.campaign`: array, op script,
restore → enumerate → crash → mount → oracle) this module adds:

* **Two-pass boundary sampling** — pass 1 runs the scripted workload and
  counts device-level bio completions, the instants at which the
  acknowledged-IO set changes; pass 2 replays it identically, taking a
  device snapshot plus a frozen copy of the workload's durability
  expectations at an even spread of those boundaries (pure copies:
  nothing is perturbed).  Every sampled survivor state of every sampled
  boundary (:func:`~repro.harness.campaign.crash_states`) is mounted
  under the full oracle, remount stability included, and a violation
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
    CampaignReport,
    Op,
    crash_states,
    expectation_for,
    fresh_array,
    mount_and_check,
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
    """Mutable counters the explorer fills in; serializes to JSON."""

    fields = ("seed", "workload_ops", "completion_boundaries",
              "boundaries_sampled", "survivor_product_total",
              "states_explored", "distinct_states", "oracle_checks",
              "violations", "passed", "elapsed_s")

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed
        self.distinct_states: set = set()
        #: (fingerprint, expectation summary) pairs already oracle-checked.
        #: The expectation matters: the same settled state reached at two
        #: boundaries can carry different acked frontiers, and only the
        #: stronger one may expose a lost-acked-byte violation.
        self.checked_keys: set = set()
        self.oracle_checks = {
            "recovered_volume": 0,
            "persistence_bitmap": 0,
            "mount_stability": 0,
        }


def explore(seed: int = 0, num_ops: int = 90, boundaries: int = 60,
            budget_per_boundary: int = 12, batch_size: int = 12,
            progress=None, trace_out: Optional[str] = None) -> Dict:
    """Run the full crash-state exploration; returns the report dict.

    ``boundaries`` completion boundaries are sampled evenly from the
    trace; each contributes up to ``budget_per_boundary`` survivor
    states.  ``batch_size`` bounds how many boundary snapshots are held
    in memory at once (each batch costs one extra workload replay).
    ``trace_out`` traces the pass-1 workload replay (the reference run
    every crash state is carved from) and dumps its spans there as
    JSONL.
    """
    report = _Report(seed)
    ops = scripted_workload(seed, num_ops)
    report.workload_ops = len(ops)

    # Pass 1: count completion boundaries.
    sim, devices, volume = fresh_array(seed, trace_out=trace_out)
    counter = CompletionBoundaries(devices)
    ran = run_ops(sim, volume, ops, expectation_for(volume), report)
    counter.disarm()
    total = counter.count
    report.completion_boundaries = total
    dump_spans(volume, trace_out)
    if not ran:
        return report.to_dict()

    sampled = sorted({max(1, round((i + 1) * total / boundaries))
                      for i in range(min(boundaries, total))})
    report.boundaries_sampled = len(sampled)
    rng = random.Random(seed + 1)
    workload = {"name": "script", "seed": seed, "num_ops": num_ops}

    for batch_start in range(0, len(sampled), batch_size):
        batch = sampled[batch_start:batch_start + batch_size]
        # Pass 2 (per batch): identical replay, snapshotting this batch's
        # boundaries.  One replay per batch bounds snapshot memory.
        sim, devices, volume = fresh_array(seed)
        expect = expectation_for(volume)
        recorder = CompletionBoundaries(devices, snapshot_at=batch,
                                        aux_state=expect.copy)
        ran = run_ops(sim, volume, ops, expect, report)
        recorder.disarm()
        if not ran:
            continue

        for state in crash_states(devices, recorder.snapshots,
                                  budget_per_boundary, rng):
            if state.index == 0:
                report.survivor_product_total += state.product
            report.states_explored += 1
            report.distinct_states.add(state.fingerprint)
            check_key = (state.fingerprint, tuple(
                (zone.synced, len(zone.submitted), zone.resetting)
                for zone in state.expect.zones))
            if check_key not in report.checked_keys:
                report.checked_keys.add(check_key)
                mount_and_check(sim, devices, state.expect, report,
                                {"recipe": state.recipe(workload)},
                                stability=True)
        if progress is not None:
            progress(report)

    return report.to_dict()

