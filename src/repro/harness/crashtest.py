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
  boundary is mounted under the full oracle, remount stability included.
* **Double crash** — a fraction of states get a *second* crash at a
  random command of recovery itself; the array must recover from that
  too.

Run via ``python -m repro crashtest``; emits a JSON coverage report
(README, "Crash-consistency testing"; EXPERIMENTS.md has the numbers).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..block.device import remove_hooks
from ..errors import PowerLossError, ReproError
from ..faults.crashpoints import (
    CompletionBoundaries,
    array_state_fingerprint,
)
from ..faults.oracle import check_recovered_volume
from ..faults.powerloss import CrashPoint
from ..raizn.recovery import mount
from .campaign import (
    CampaignReport,
    Op,
    drain,
    enter_crash_state,
    enumerate_crash_states,
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
              "states_explored", "distinct_states", "double_crash_states",
              "double_crash_fired", "oracle_checks", "violations", "passed",
              "elapsed_s")

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
            "double_crash_recovery": 0,
        }


def explore(seed: int = 0, num_ops: int = 90, boundaries: int = 60,
            budget_per_boundary: int = 12, double_crash_every: int = 8,
            batch_size: int = 12, progress=None,
            trace_out: Optional[str] = None) -> Dict:
    """Run the full crash-state exploration; returns the report dict.

    ``boundaries`` completion boundaries are sampled evenly from the
    trace; each contributes up to ``budget_per_boundary`` survivor
    states.  Every ``double_crash_every``-th explored state additionally
    gets a crash injected during its recovery.  ``batch_size`` bounds how
    many boundary snapshots are held in memory at once (each batch costs
    one extra workload replay).  ``trace_out`` traces the pass-1
    workload replay (the reference run every crash state is carved
    from) and dumps its spans there as JSONL.
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
    state_serial = 0

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

        for boundary in batch:
            snaps, frozen = recorder.snapshots[boundary]
            _spaces, assignments, product = enumerate_crash_states(
                devices, snaps, budget_per_boundary, rng)
            report.survivor_product_total += product
            expect_key = tuple(
                (zone.synced, len(zone.submitted), zone.resetting)
                for zone in frozen.zones)
            for assignment in assignments:
                enter_crash_state(devices, snaps, assignment)
                fingerprint = array_state_fingerprint(devices)
                where = {"boundary": boundary, "state": fingerprint}
                state_serial += 1
                report.states_explored += 1
                report.distinct_states.add(fingerprint)
                check_key = (fingerprint, expect_key)
                if check_key not in report.checked_keys:
                    report.checked_keys.add(check_key)
                    mount_and_check(sim, devices, frozen, report, where,
                                    stability=True)
                if state_serial % double_crash_every == 0:
                    _check_double_crash(sim, devices, snaps, assignment,
                                        frozen, where, state_serial, seed,
                                        report)
            if progress is not None:
                progress(report)

    return report.to_dict()


def _count_recovery_commands(sim, devices) -> int:
    """How many device commands a clean recovery of this state issues.

    Needed so the second crash can be placed anywhere in the *whole*
    recovery — naive small depths only ever hit the superblock scan and
    never reach hole repair or metadata compaction.
    """
    counts = [0]

    def tally(device, bio) -> None:
        counts[0] += 1

    hooks = [dev.add_hook("pre_apply", tally) for dev in devices]
    try:
        mount(sim, list(devices))
    except ReproError:
        pass  # an unmountable state is reported by the single-crash check
    finally:
        remove_hooks(hooks)
    return counts[0]


def _check_double_crash(sim, devices, snaps, assignment, expect, where,
                        state_serial, seed, report) -> None:
    """Crash again *during* recovery, then demand a clean final mount.

    An exception that is no ``ReproError`` out of any of its mounts is a
    ``traceback`` violation, as under ``mount_and_check``."""
    def flag(detail: str) -> None:
        report.violation(**where, check="double_crash_recovery",
                         detail=detail)

    report.double_crash_states += 1
    rng = random.Random(seed * 1000003 + state_serial)
    enter_crash_state(devices, snaps, assignment)
    try:
        commands = _count_recovery_commands(sim, devices)
    except Exception:
        report.traceback_violation(**where)
        return
    enter_crash_state(devices, snaps, assignment)
    crash = CrashPoint(devices, after=1 + rng.randrange(max(1, commands)),
                       rng=rng)
    try:
        mount(sim, list(devices))
    except PowerLossError:
        pass
    except ReproError as exc:
        crash.disarm()
        flag(f"first recovery died non-crash: {exc!r}")
        return
    except Exception:
        crash.disarm()
        report.traceback_violation(**where)
        return
    drain(sim)
    crash.disarm()
    if crash.fired:
        report.double_crash_fired += 1
    for dev in devices:
        dev.power_on()
    try:
        final = mount(sim, list(devices))
    except ReproError as exc:
        flag(f"mount after double crash failed: {exc!r}")
        return
    except Exception:
        report.traceback_violation(**where)
        return
    report.oracle_checks["double_crash_recovery"] += 1
    for detail in check_recovered_volume(final, expect):
        flag(detail)
