"""Mount cut at every command: the remount recovers what mount recovers.

§4.3's recovery must itself survive a power cut.  This check runs over
the 31 mount-golden corpus entries (``tests/crash_corpus.py``) with no
latent extent and no ``cut``.  Each state is mounted once without
interruption, and the N device commands that mount sends are counted —
in a ``rewrite`` state, mount's and then the zone-rewrite step's
(:func:`crash_corpus.bring_up`).  Then, for every c = 1..N, the state is
entered again, power is cut before command c of the same mount, the
array is powered back on and mounted again, under three survivor
choices for the cut: ``min`` (every dirty zone keeps only what was
durable), ``max`` (the whole write cache survives) and ``rand``
(``CrashPoint``'s seeded draw, ``rng=Random(c)``).

The remount goes through the campaign kernel's ``mount_and_check``: it
must pass the durability oracle against the expectation frozen at the
state's boundary, recover the uninterrupted mount's
``recovered_fields`` (zones, relocation units, relocated parity) and
leave the same data-zone media.  Generation counters may differ, but
only by one and only on zones the uninterrupted mount recovered empty
(DESIGN.md, decision 15 says why).

``tests/data/mount_restart_goldens.json`` holds, per state, the number
of cuts and every failing ``"cut survivor outcome"``, the outcome being
the class of the exception the cut mount or the remount raised, or the
oracle checks that failed and the fields the remount recovered
differently.  The golden pins the red states on purpose (ROADMAP item
1): a fix or a new failure moves it.

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
import sys

import pytest

from crash_corpus import (Corpus, bring_up, cut_and_power_on, load,
                          mounted, remount)
from repro.block import Op
from repro.block.device import remove_hooks
from repro.faults.powerloss import CrashPoint
from repro.raizn.mdzone import DeviceMetadataZones

GOLDENS = pathlib.Path(__file__).resolve().parent / "data" / \
    "mount_restart_goldens.json"

ENTRIES = {name: entry for name, entry in load("mount").items()
           if "latent" not in entry and "cut" not in entry}
STATES = list(ENTRIES)

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


class Restart:
    """One pinned state: its crash state, and what its uninterrupted
    mount sent and recovered."""

    def __init__(self, name, corpus):
        self.entry, self.corpus = ENTRIES[name], corpus
        crashed = self.enter()
        self.alive = [dev for dev in crashed.presented if dev is not None]
        counts = [0]

        def tally(_dev, _bio):
            counts[0] += 1
        hooks = [dev.add_hook("pre_apply", tally) for dev in self.alive]
        try:
            volume = bring_up(crashed.sim, crashed.presented,
                              crashed.rewrite)
        finally:
            remove_hooks(hooks)
        self.commands = counts[0]
        self.before = mounted(crashed, volume)

    def enter(self):
        return self.corpus.enter(self.entry)

    def outcome(self, cut, survivor):
        """Cut power before command ``cut`` of the mount, under the
        ``survivor`` choice, and mount again: None when the remount
        passes the oracle and recovers what the uninterrupted mount did,
        else what failed."""
        crashed = self.enter()
        crash = CUTS[survivor](self.alive, cut)
        try:
            cut_and_power_on(crashed, crash)
            drift = remount(crashed, self.before, exact=False)
        except Exception as exc:      # the exception class is the outcome
            crash.disarm()
            return type(exc).__name__
        if isinstance(drift, str):
            return drift
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


def sweep(name, corpus, cuts=None):
    """``{"cuts": N, "failures": [...]}`` of state ``name`` over ``cuts``
    (every cut, 1..N, by default)."""
    restart = Restart(name, corpus)
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
def corpus():
    return Corpus(ENTRIES)


@pytest.mark.parametrize("name", STATES)
def test_remount_after_a_cut_matches_golden(name, golden, corpus):
    """Tier-1's slice of the cuts: the same cut count, and the same
    failing cuts of the slice, as the golden."""
    pinned = golden[name]
    cuts = [cut for cut in range(1, pinned["cuts"] + 1) if in_slice(cut)]
    measured = sweep(name, corpus, cuts)
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
        monkeypatch, corpus):
    """Detection power: every cut of one state, under a mount whose
    compaction does not make its checkpoint durable before it resets the
    zones that held the old logs."""
    monkeypatch.setattr(DeviceMetadataZones, "recovery_compact",
                        compact_without_flush)
    assert sweep("script0-min", corpus)["failures"]


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--regen"]):
        sys.exit("usage: python tests/test_mount_restart.py [--regen]")
    corpus = Corpus(ENTRIES)
    measured = {name: sweep(name, corpus) for name in STATES}
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
