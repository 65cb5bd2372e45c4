"""``recovery.mount`` against the reference mount (``reference_mount.py``).

A hypothesis property over four drawn inputs: a write script seeded from
:class:`test_model_check.ZoneModel`, cut at a drawn completion boundary;
a survivor assignment from ``faults/crashpoints.py``; latent extents;
and at most one missing device.  For each crash state, ``mount`` must
recover every zone to a write pointer between the acked frontier and the
reference's frontier, with the written bytes below it
(``check_recovered_volume``).  A state that lost two units of one stripe
offset to faults is beyond single parity: there mount may raise a
``ReproError`` or recover less than was acked, but never more than the
reference derives, nor a wrong byte.

The crash corpus's entries are the property's first examples
(``test_corpus_entry``); item 1's red rows are strict xfails naming the
ROADMAP item that owns them.

``python tests/test_reference_mount.py`` runs the property at 500
derandomized examples (CI); tier-1 runs a 200-example slice.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import make_volume, pattern
from crash_corpus import Corpus, cut_and_power_on, load
from reference_mount import (frontier_violations, reference_frontiers,
                             within_tolerance)
from test_model_check import ZoneModel
from repro.block import Bio, BioFlags
from repro.errors import ReproError
from repro.faults.crashpoints import (
    CompletionBoundaries,
    apply_survivor_assignment,
    enumerate_survivor_assignments,
)
from repro.faults.oracle import WorkloadExpectation, check_recovered_volume
from repro.faults.powerloss import CrashPoint
from repro.harness.campaign import drain, drive_ops
from repro.raizn.recovery import mount
from repro.sim import Simulator
from repro.units import KiB, SECTOR_SIZE

ZONES = 2
SIZES = (4 * KiB, 12 * KiB, 64 * KiB, 96 * KiB)


def mount_violations(sim, presented, expect, keep_derived=False,
                     **overrides):
    """Mount the crash state ``presented`` is in and hold it to the
    reference: the list of what failed.

    Within single parity every acked byte is owed, and the write pointer
    stays within the reference's frontier.  Beyond it mount may raise a
    ``ReproError``, and a byte it serves may be unreadable (mount reads
    only what it must, not every latent sector); no byte served may be
    wrong.  With ``keep_derived``, the acked bytes a source still derives
    are owed there too (a double fault loses only what it must, ROADMAP
    item 21)."""
    written = [bytes(zexp.submitted) for zexp in expect.zones]
    frontiers = reference_frontiers(presented, written)
    tolerated = within_tolerance(presented, written)
    owed = [min(zexp.synced, frontier) if keep_derived else 0
            for zexp, frontier in zip(expect.zones, frontiers)]
    try:
        volume = mount(sim, list(presented), **overrides)
    except ReproError as exc:
        return [f"mount failed: {exc!r}"] if tolerated or any(owed) else []
    if tolerated:
        return frontier_violations(volume, frontiers) + \
            check_recovered_volume(volume, expect)
    violations = []
    for zone, (zexp, frontier) in enumerate(zip(expect.zones, frontiers)):
        desc = volume.zone_descs[zone]
        wp = desc.write_pointer - desc.start_lba
        if wp < owed[zone] and not (zexp.resetting and wp == 0):
            violations.append(f"zone {zone}: write pointer {wp:#x} below "
                              f"{owed[zone]:#x}, the acked bytes a source "
                              "derives")
        if wp > len(zexp.submitted):
            violations.append(f"zone {zone}: write pointer {wp:#x} past "
                              f"the {len(zexp.submitted):#x} written")
            continue
        cuts = sorted({*range(0, wp, desc.stripe_width), wp,
                       min(wp, frontier)})
        for lo, hi in zip(cuts, cuts[1:]):
            try:
                got = volume.execute(Bio.read(desc.start_lba + lo,
                                              hi - lo)).result
            except ReproError as exc:
                if keep_derived and hi <= frontier:
                    violations.append(f"zone {zone}: [{lo:#x}, {hi:#x}) "
                                      f"derives, but reads {exc!r}")
                continue
            if bytes(got) != zexp.submitted[lo:hi]:
                violations.append(f"zone {zone}: [{lo:#x}, {hi:#x}) reads "
                                  "back other bytes than were written")
    return violations


# ---------------------------------------------------------------- the property


def run_script(script, cut: int):
    """Drive ``script`` over two zones of a fresh array, power cut after
    completion ``cut`` (or at its end): ``(sim, devices, expectation)``."""
    sim = Simulator()
    volume, devices = make_volume(sim)
    capacity = volume.zone_capacity
    models = [ZoneModel(capacity) for _ in range(ZONES)]
    ops = []
    for index, (action, zone, size) in enumerate(script):
        model = models[zone]
        if action == "flush":
            ops.append(("flush", 0, 0, b"", BioFlags.NONE))
            for each in models:
                each.flush()
        elif action == "reset":
            ops.append(("reset", zone, zone * capacity, b"", BioFlags.NONE))
            model.reset()
        else:
            size = min(size, capacity - len(model.data))
            if size <= 0:
                continue
            data = pattern(size, seed=index)
            flags = BioFlags.FUA | BioFlags.PREFLUSH if action == "fua" \
                else BioFlags.NONE
            ops.append(("write", zone, zone * capacity + len(model.data),
                        data, flags))
            model.write(data, durable=action == "fua")
    expect = WorkloadExpectation(volume.num_data_zones, capacity)
    boundaries = CompletionBoundaries(devices, crash_after=cut)
    sim.process(drive_ops(volume, ops, expect))
    drain(sim)
    boundaries.disarm()
    return sim, devices, expect


ACTIONS = st.tuples(st.sampled_from(("write", "write", "fua", "flush",
                                     "reset")),
                    st.integers(0, ZONES - 1), st.sampled_from(SIZES))
LATENT = st.tuples(st.integers(0, 4), st.integers(0, ZONES - 1),
                   st.floats(0, 1, exclude_max=True), st.integers(1, 4))


@st.composite
def crash_states(draw):
    script = draw(st.lists(ACTIONS, min_size=1, max_size=16))
    cut = draw(st.integers(1, 120))
    pick, seed = draw(st.integers(0, 2)), draw(st.integers(0, 2 ** 16))
    latent = draw(st.lists(LATENT, max_size=2))
    missing = draw(st.one_of(st.none(), st.integers(0, 4)))
    return script, cut, pick, seed, latent, missing


def enter(script, cut, pick, seed, latent, missing):
    sim, devices, expect = run_script(script, cut)
    spaces = [dev.survivor_state_space() for dev in devices]
    assignments, _product = enumerate_survivor_assignments(
        spaces, 3, random.Random(seed))
    apply_survivor_assignment(devices,
                              assignments[pick % len(assignments)])
    for device, zone, where, sectors in latent:
        info = devices[device].zone_info(zone)
        written = (info.write_pointer - info.start) // SECTOR_SIZE
        if written:
            at = info.start + int(where * written) * SECTOR_SIZE
            devices[device].mark_bad(
                at, min(sectors * SECTOR_SIZE, info.write_pointer - at))
    presented = [None if index == missing else dev
                 for index, dev in enumerate(devices)]
    return sim, presented, expect


def check_state(state):
    sim, presented, expect = enter(*state)
    assert mount_violations(sim, presented, expect) == []


PROPERTY = dict(deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


@settings(max_examples=200, **PROPERTY)
@given(crash_states())
def test_mount_lies_between_the_acked_and_the_reference_frontier(state):
    check_state(state)


#: Drawn double faults — a missing device and a latent sector at one
#: stripe offset — under acked bytes the partial-parity chain still
#: derives (a prefix of it rebuilds the missing unit, the rest then the
#: latent sector), which mount loses: it reconstructs the latent sector
#: with the missing sibling folded as zeroes.  Red rows of ROADMAP item
#: 1, owned by item 21.
DOUBLE_FAULTS = {
    "rolled-back-below-the-ack": (
        [("write", 0, 64 * KiB), ("fua", 0, 4 * KiB)], 5, 0, 0,
        [(1, 0, 0.0, 1)], 0),
    "mount-raises": (
        [("fua", 0, 96 * KiB), ("write", 1, 64 * KiB), ("fua", 1, 4 * KiB),
         ("flush", 0, 96 * KiB)], 92, 0, 2000, [(1, 0, 0.0, 3)], 0),
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 21")
@pytest.mark.parametrize("name", DOUBLE_FAULTS)
def test_a_double_fault_keeps_the_acked_bytes_a_source_derives(name):
    sim, presented, expect = enter(*DOUBLE_FAULTS[name])
    assert mount_violations(sim, presented, expect, keep_derived=True) == []


# ---------------------------------------------------------------- the corpus

#: The ROADMAP item that owns each red corpus row (item 1's table).
#: ``soak-quick30-*`` are red in their campaign but not here: the acked
#: bytes mount loses there no source derives (the latent extent and the
#: eviction took two units of zone 0's stripes from 6 on), so their
#: owner is the scrub that left the extent unhealed, item 21 (a).
OWNERS = {"soak-quick4": "18", "soak-quick22": "18",
          "soak-quick28": "21 (a)", "soak-full2": "6"}

ENTRIES = load()


def owner(name):
    return next((item for prefix, item in OWNERS.items()
                 if name.startswith(prefix + "-")), None)


@pytest.fixture(scope="module")
def corpus():
    return Corpus(ENTRIES)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason=f"ROADMAP item {owner(name)}"))
    if owner(name) else name for name in ENTRIES])
def test_corpus_entry(name, corpus):
    entry = ENTRIES[name]
    crashed = corpus.enter(entry)
    if "cut" in entry:
        cut_and_power_on(crashed, CrashPoint(
            [dev for dev in crashed.presented if dev is not None],
            after=entry["cut"], rng=random.Random(entry["cut"])))
    assert mount_violations(crashed.sim, crashed.presented, crashed.expect,
                            keep_derived=True, **crashed.overrides) == []


if __name__ == "__main__":
    settings(max_examples=int(sys.argv[1]) if len(sys.argv) > 1 else 500,
             **PROPERTY)(given(crash_states())(check_state))()
    print("reference-mount property: passed")
