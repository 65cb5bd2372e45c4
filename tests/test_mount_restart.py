"""Mount cut at every command: the remount recovers what mount recovers.

§4.3's recovery must itself survive a power cut.  This check runs over
the 31 states of ``tests/test_mount_goldens.py`` that mount once, with no
latent extent and no ``-double`` variant.  Each state is mounted once
without interruption, and the N device commands that mount sends are
counted — in a ``rewrite`` state, mount's and then the zone-rewrite
step's (:func:`test_mount_goldens.bring_up`).  Then, for every c = 1..N,
the state is entered again, power is cut before command c of the same
mount, the array is powered back on and mounted again, under three
survivor choices for the cut:

* ``min`` — every dirty zone settles to the first entry of its
  ``zone_survivor_states`` (only what was durable survives);
* ``max`` — every dirty zone settles to the last entry (the whole write
  cache survives);
* ``rand`` — ``CrashPoint``'s seeded draw, ``rng=Random(c)``, as
  ``mount_record(..., crash_at=c)`` draws it.

The remount must recover the uninterrupted mount's ``recovered_fields``
(zones, relocation units, relocated parity) and leave the same
data-zone media.  Generation counters may differ, but only by one and
only on zones the uninterrupted mount recovered empty (DESIGN.md,
decision 15 says why).

``tests/data/mount_restart_goldens.json`` holds, per state, the number
of cuts and every failing ``"cut survivor outcome"``, the outcome being
the class of the exception the cut mount or the remount raised, or the
fields the remount recovered differently.  The golden pins the red states on
purpose (ROADMAP item 1): a fix or a new failure moves it.

Tier-1 runs a fixed slice of the cuts, which reaches every red state.
``python tests/test_mount_restart.py`` runs every cut and compares with
the golden (CI does); ``--regen`` rewrites the golden, only on purpose,
with the diff explained in CHANGES.md.
"""

from __future__ import annotations

import collections
import json
import pathlib
import random
import re
import sys

import pytest

from repro.block import Op
from repro.block.device import remove_hooks
from repro.errors import PowerLossError
from repro.faults.powerloss import CrashPoint
from repro.harness.campaign import (
    drain,
    enter_crash_state,
    enumerate_crash_states,
)
from repro.raizn.mdzone import DeviceMetadataZones
from test_mount_goldens import (
    MATRIX,
    NUM_DEVICES,
    bring_up,
    data_media,
    recovered_fields,
    snapshot_run,
)

GOLDENS = pathlib.Path(__file__).resolve().parent / "data" / \
    "mount_restart_goldens.json"

STATES = [f"{workload}{k}-{variant}"
          for workload, (percents, variants) in MATRIX.items()
          for k in range(len(percents)) for variant in variants
          if "latent" not in variant and "double" not in variant]

SURVIVORS = ("min", "max", "rand")

#: Tier-1's slice: every cut ``c`` with ``c % SLICE_STRIDE ==
#: SLICE_OFFSET`` (the stride and offset are chosen so the slice reaches
#: every red state).
SLICE_STRIDE = 9
SLICE_OFFSET = 5


class CornerCut(CrashPoint):
    """:class:`CrashPoint`'s cut before the ``after``-th command, with
    every dirty zone settled to one end of its survivor states: ``pick``
    0 keeps only the durable prefix, -1 the whole write cache."""

    def __init__(self, devices, after, pick):
        self.pick = pick
        super().__init__(devices, after)

    def _count(self, device, bio) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.fired = True
            for dev in self.devices:
                dev.power_fail_to({
                    zone: states[self.pick]
                    for zone, states in dev.survivor_state_space().items()})


CUTS = {
    "min": lambda devices, c: CornerCut(devices, c, 0),
    "max": lambda devices, c: CornerCut(devices, c, -1),
    "rand": lambda devices, c: CrashPoint(devices, after=c,
                                          rng=random.Random(c)),
}


# ---------------------------------------------------------------- the states


def workload_states(workload):
    """``(sim, devices, data_end, [(snapshots, {corner: survivor
    assignment}) per boundary])``, drawn as ``run_states`` draws them."""
    sim, devices, volume, snapshots = snapshot_run(workload,
                                                   MATRIX[workload][0])
    boundaries = []
    for k, snaps in enumerate(snapshots):
        _spaces, assignments, _product = enumerate_crash_states(
            devices, snaps, 3, random.Random(k))
        boundaries.append((snaps, {
            "min": assignments[0],
            "max": assignments[min(1, len(assignments) - 1)],
            "rand": assignments[-1]}))
    return sim, devices, volume.num_data_zones * volume.phys_zone_size, \
        boundaries


class Workloads(dict):
    """Each workload's :func:`workload_states`, built on first use."""

    def __missing__(self, workload):
        self[workload] = states = workload_states(workload)
        return states


class Restart:
    """One pinned state: its crash state, and what its uninterrupted
    mount sent and recovered."""

    def __init__(self, name, workloads):
        workload, k, corner, extras = re.fullmatch(
            r"([a-z]+)(\d)-([a-z]+)(.*)", name).groups()
        self.sim, self.devices, self.data_end, boundaries = \
            workloads[workload]
        self.snaps, survivors = boundaries[int(k)]
        self.assignment = survivors[corner]
        missing = int(k) % NUM_DEVICES if "missing" in extras else None
        self.presented = [None if index == missing else dev
                          for index, dev in enumerate(self.devices)]
        self.alive = [dev for dev in self.presented if dev is not None]
        self.rewrite = "rewrite" in extras

        self.enter()
        counts = [0]

        def tally(_dev, _bio):
            counts[0] += 1
        hooks = [dev.add_hook("pre_apply", tally) for dev in self.alive]
        try:
            volume = self.mount()
        finally:
            remove_hooks(hooks)
        self.commands = counts[0]
        self.fields = recovered_fields(volume)
        self.generation = volume.generation
        self.empty = [desc.write_pointer == desc.start_lba
                      for desc in volume.zone_descs]
        self.media = data_media(self.alive, self.data_end)

    def enter(self):
        enter_crash_state(self.devices, self.snaps, self.assignment)

    def mount(self):
        return bring_up(self.sim, self.presented, self.rewrite)

    def outcome(self, cut, survivor):
        """Cut power before command ``cut`` of the mount, under the
        ``survivor`` choice, and mount again: None when the remount
        recovers what the uninterrupted mount did, else what failed."""
        self.enter()
        crash = CUTS[survivor](self.alive, cut)
        try:
            try:
                self.mount()
            except PowerLossError:
                pass
            drain(self.sim)
            crash.disarm()
            assert crash.fired
            for dev in self.alive:
                dev.power_on()
            again = self.mount()
        except Exception as exc:      # the exception class is the outcome
            crash.disarm()
            return type(exc).__name__
        fields = recovered_fields(again)
        drift = [name for name in fields if fields[name] != self.fields[name]]
        if any(after != before and (abs(after - before) > 1 or not empty)
               for after, before, empty
               in zip(again.generation, self.generation, self.empty)):
            drift.append("generation")
        if data_media(self.alive, self.data_end) != self.media:
            drift.append("data-zone media")
        return "drift: " + ", ".join(drift) if drift else None

    def failures(self, cuts):
        """``"cut survivor outcome"`` of every cut in ``cuts`` (each
        under every survivor choice) whose remount failed."""
        failures = []
        for cut in cuts:
            for survivor in SURVIVORS:
                outcome = self.outcome(cut, survivor)
                if outcome is not None:
                    failures.append(f"{cut} {survivor} {outcome}")
        return failures


def sweep(name, workloads, cuts=None):
    """``{"cuts": N, "failures": [...]}`` of state ``name`` over ``cuts``
    (every cut, 1..N, by default)."""
    restart = Restart(name, workloads)
    if cuts is None:
        cuts = range(1, restart.commands + 1)
    return {"cuts": restart.commands, "failures": restart.failures(cuts)}


def in_slice(cut):
    return cut % SLICE_STRIDE == SLICE_OFFSET


# ------------------------------------------------------------------- tests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDENS.read_text())


@pytest.fixture(scope="module")
def workloads():
    return Workloads()


@pytest.mark.parametrize("name", STATES)
def test_remount_after_a_cut_matches_golden(name, golden, workloads):
    """Tier-1's slice of the cuts: the same cut count, and the same
    failing cuts of the slice, as the golden."""
    pinned = golden[name]
    cuts = [cut for cut in range(1, pinned["cuts"] + 1) if in_slice(cut)]
    measured = sweep(name, workloads, cuts)
    assert measured == {"cuts": pinned["cuts"], "failures": [
        failure for failure in pinned["failures"]
        if in_slice(int(failure.split()[0]))]}


def test_golden_covers_the_states_and_the_slice_reaches_every_red_one(
        golden):
    """Every state is pinned, and tier-1's slice meets a failing cut of
    every state that has one."""
    assert sorted(golden) == sorted(STATES) and len(STATES) == 31
    red = {name for name, pinned in golden.items() if pinned["failures"]}
    assert red == {name for name, pinned in golden.items() if any(
        in_slice(int(failure.split()[0])) for failure in pinned["failures"])}


RECOVERY_COMPACT = DeviceMetadataZones.recovery_compact


def compact_without_flush(mdzones):
    """``recovery_compact`` with its flush dropped: the old metadata zones
    are reset while the new checkpoint may still sit in the write cache."""
    device = mdzones.device

    def submit(bio):
        if bio.op is Op.FLUSH:
            return device.sim.timeout(0)
        return type(device).submit(device, bio)
    device.submit = submit
    try:
        yield from RECOVERY_COMPACT(mdzones)
    finally:
        del device.submit


def test_check_catches_a_compaction_that_resets_before_its_flush(
        monkeypatch, workloads):
    """Detection power: every cut of one state, under a mount whose
    compaction does not make its checkpoint durable before it resets the
    zones that held the old logs."""
    monkeypatch.setattr(DeviceMetadataZones, "recovery_compact",
                        compact_without_flush)
    assert sweep("script0-min", workloads)["failures"]


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--regen"]):
        sys.exit("usage: python tests/test_mount_restart.py [--regen]")
    workloads = Workloads()
    measured = {name: sweep(name, workloads) for name in STATES}
    cuts = sum(pinned["cuts"] for pinned in measured.values())
    outcomes = collections.Counter(
        failure.split(" ", 2)[2]
        for pinned in measured.values() for failure in pinned["failures"])
    print(f"{cuts} cuts, {len(SURVIVORS) * cuts} remounts, failures: "
          f"{dict(outcomes.most_common())}")
    for name, pinned in measured.items():
        if pinned["failures"]:
            print(f"  {name}: {len(pinned['failures'])}")
    if sys.argv[1:] == ["--regen"]:
        GOLDENS.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"wrote {len(STATES)} states to {GOLDENS}")
    else:
        golden = json.loads(GOLDENS.read_text())
        moved = [name for name in STATES if measured[name] != golden[name]]
        if moved:
            sys.exit(f"moved against {GOLDENS.name}: {', '.join(moved)}")
        print(f"every cut matches {GOLDENS.name}")
