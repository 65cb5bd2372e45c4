"""The crash oracle over metadata-zone garbage collection (§4.3, Figure 4).

CI's ``crashtest --states 84`` scripts 90 ops and never fills a metadata
zone, so nothing mounted a crash taken while a log was being rotated.
Here the same explorer runs a script long enough that every device
rotates, and :class:`MdWatch` — device hooks only, nothing in ``raizn/``
is wrapped — says which completion boundaries fall inside a rotation
(from the first append into the swapped-in zone to the completion of the
old zone's reset) so that those can be sampled exhaustively, and checks
the durability barrier command by command: no old log zone is reset
before the flush behind its checkpoint has completed.

The three enumerations (:func:`explorations`) mount every state they
reach: ``python tests/test_mdzone_gc_crash.py`` runs them (CI's
"Metadata-GC crash explorations" step).  Tier-1 replays a slice of their
states from the crash corpus (``tests/crash_corpus.py``, the entries
whose ``views`` name ``mdgc``), checks the barrier on both workloads,
and remounts after a crash mid-checkpoint.
"""

from __future__ import annotations

import collections
import random
import sys

import pytest

import crash_corpus as corpus
from repro.block import Op
from repro.block.device import remove_hooks
from repro.harness.campaign import crash_states, mount_and_check
from repro.harness.crashtest import _Report
from repro.raizn.mdzone import MetadataRole
from repro.raizn.metadata import MetadataEntry, MetadataType
from repro.raizn.recovery import mount

#: The 300-op crashtest script, in which every device rotates a log.
SCRIPT = {"name": "script", "seed": 0, "num_ops": 300}


class MdWatch:
    """Metadata GC as the devices see it.

    A log append landing in a zone other than its role's current one is
    a swap-in: it retires the current zone and opens a rotation window,
    which the completion of that zone's reset closes.  ``in_window``
    lists the array-wide completion boundaries
    (:class:`CompletionBoundaries`' numbering) at which some window is
    open; ``barrier_breaches`` lists every metadata-zone reset submitted
    while a checkpoint append of its rotation was in flight, or before a
    flush submitted after the last of them had completed.
    """

    def __init__(self, volume):
        self.md_first = volume.num_data_zones
        self.zone_size = volume.phys_zone_size
        self.count = 0
        self.open_windows = 0
        self.in_window = []
        self.rotations = {dev.name: 0 for dev in volume.devices}
        self.barrier_breaches = []
        self._current = {
            dev.name: {role: mdz.role_zone[role] for role in MetadataRole}
            for dev, mdz in zip(volume.devices, volume.mdzones)}
        self._rotation = {dev.name: {} for dev in volume.devices}   # by role
        self._retired = {dev.name: {} for dev in volume.devices}    # by zone
        #: Submit instant of the newest completed FLUSH, per device.
        self._flushed_from = {dev.name: -1.0 for dev in volume.devices}
        self._hooks = []
        for dev in volume.devices:
            self._hooks.append(dev.add_hook("pre_apply", self._on_submit))
            self._hooks.append(dev.add_hook("completion", self._on_complete))

    def disarm(self):
        remove_hooks(self._hooks)

    def _on_submit(self, dev, bio):
        zone = bio.offset // self.zone_size
        if zone < self.md_first:
            return
        if bio.op is Op.ZONE_APPEND:
            entry = MetadataEntry.decode(bio.data)[0]
            role = MetadataRole.PARTIAL_PARITY \
                if entry.mdtype is MetadataType.PARTIAL_PARITY \
                else MetadataRole.GENERAL
            current = self._current[dev.name]
            if zone != current[role]:
                # The checkpoint appends that supersede the retired zone.
                rotation = self._rotation[dev.name][role] = []
                self._retired[dev.name][current[role]] = rotation
                current[role] = zone
                self.rotations[dev.name] += 1
                self.open_windows += 1
            if entry.checkpoint:
                self._rotation[dev.name][role].append(bio)
        elif bio.op is Op.ZONE_RESET:
            rotation = self._retired[dev.name].get(zone)
            if rotation is None:
                return
            done = [b.complete_time for b in rotation]
            if None in done:
                self.barrier_breaches.append(
                    f"{dev.name}: zone {zone} reset at {dev.sim.now} with "
                    "a checkpoint append of its rotation in flight")
            elif done and self._flushed_from[dev.name] < max(done):
                self.barrier_breaches.append(
                    f"{dev.name}: zone {zone} reset at {dev.sim.now}, no "
                    f"flush submitted after its checkpoint completed at "
                    f"{max(done)} has completed")

    def _on_complete(self, dev, bio):
        self.count += 1
        if self.open_windows:
            self.in_window.append(self.count)
        if bio.op is Op.FLUSH:
            self._flushed_from[dev.name] = bio.submit_time
        elif bio.op is Op.ZONE_RESET and self._retired[dev.name].pop(
                bio.offset // self.zone_size, None) is not None:
            self.open_windows -= 1


CLOSED_LOOP = {"name": "closed_loop"}


def explore(workload, boundaries, budget, batch_size=12):
    """Mount every sampled survivor state of each of ``boundaries`` of
    ``workload`` (a corpus recipe) under the full oracle, remount
    included (:func:`crash_states`, ``mount_and_check``); returns the
    report and every state's recipe.  A crash inside mount is
    ``tests/test_mount_restart.py``'s: its ``rotation`` states cut, at
    every command, the mount of a crash taken inside a rotation."""
    report = _Report(seed=0, oracle_checks=collections.Counter())
    rng = random.Random(1)
    recipes = []
    for start in range(0, len(boundaries), batch_size):
        run = corpus.run(workload, boundaries[start:start + batch_size])
        for state in crash_states(run.devices, run.snapshots, budget, rng):
            recipes.append(state.recipe(workload))
            report.states_explored += 1
            mount_and_check(run.sim, run.devices, state.expect, report,
                            {"recipe": recipes[-1]}, stability=True)
    return report, recipes


def explorations():
    """The three enumerations (CI runs them): crashtest's even spread of
    80 boundaries x 6 survivor states over the 300-op script (it found
    that recovery used to checkpoint behind a torn log tail: 6
    ``mount_stability`` violations before the fix, 0 after); every
    completion boundary inside one of its rotation windows — old zone full, new zone holding a checkpoint
    prefix, or the whole checkpoint and newer entries behind it — at
    its two corners, not the 1-in-17 an even spread takes; and every
    5th boundary inside a rotation of the QD-8 closed loop, 3 states
    each.  Yields ``(name, report, recipes)``."""
    watch = corpus.run(SCRIPT, watch=MdWatch).watch
    spread = sorted({max(1, round((i + 1) * watch.count / 80))
                     for i in range(80)})
    report, recipes = explore(SCRIPT, spread, budget=6)
    assert report.states_explored >= 400
    yield "even spread", report.to_dict(), recipes
    inside = watch.in_window
    assert len(inside) >= 40
    report, recipes = explore(SCRIPT, inside, budget=2)
    yield "rotation windows", report.to_dict(), recipes
    watch = corpus.run(CLOSED_LOOP, watch=MdWatch).watch
    assert sum(watch.rotations.values()) >= 10
    assert watch.barrier_breaches == []
    report, recipes = explore(CLOSED_LOOP, watch.in_window[::5], budget=3)
    yield "closed loop", report.to_dict(), recipes


# ------------------------------------------------------- tier-1


@pytest.fixture(scope="module")
def scripted():
    return corpus.run(SCRIPT, watch=MdWatch)


def test_script_rotates_every_device_behind_the_barrier(scripted):
    volume, watch = scripted.volume, scripted.watch
    assert all(count >= 1 for count in watch.rotations.values()), \
        watch.rotations
    assert sum(watch.rotations.values()) == \
        sum(mdz.gc_cycles for mdz in volume.mdzones)
    assert watch.in_window and not watch.open_windows
    assert watch.barrier_breaches == []


SAMPLED = corpus.load("mdgc")


@pytest.fixture(scope="module")
def sampled():
    """A slice of the three explorations' states (every 40th; the CI
    step mounts all of them), each mounted under the full oracle,
    remount included: ``{exploration: violations}``."""
    replay = corpus.Corpus(SAMPLED)
    found = collections.defaultdict(list)
    for name, entry in SAMPLED.items():
        found[name.rsplit("-", 1)[0]] += replay.check(entry, stability=True)
    assert len(found) == 3
    return found


def test_exploration_through_metadata_gc_is_clean(sampled):
    assert sampled["mdgc-even-spread"] == []


def test_every_boundary_inside_a_rotation_mounts(sampled):
    """Old zone full, new zone holding a checkpoint prefix — or the whole
    checkpoint and newer entries behind it."""
    assert sampled["mdgc-rotation-window"] == []


def test_closed_loop_crashes_with_appends_queued_behind_a_rotation(
        sampled):
    watch = corpus.run(CLOSED_LOOP, watch=MdWatch).watch
    assert sum(watch.rotations.values()) >= 10
    assert watch.barrier_breaches == []
    assert sampled["mdgc-closed-loop"] == []


# ------------------------------------------------------- mount o mount = mount


def recovery_checkpoints(devices, md_first):
    """What mount's compaction left each device: one durable log zone
    ending in the checkpoint — superblock first — that is all the next
    mount needs, here without its generation blocks.  (The zone differs
    from mount to mount: compaction checkpoints into the emptiest one and
    resets the rest.)"""
    checkpoints = []
    for dev in devices:
        (zone,) = [zone for zone in dev.zones[md_first:]
                   if zone.write_pointer > zone.start]
        assert zone.durable_pointer == zone.write_pointer
        entries = MetadataEntry.scan(
            bytes(dev._media[zone.start:zone.write_pointer]))
        first = max(index for index, entry in enumerate(entries)
                    if entry.checkpoint
                    and entry.mdtype is MetadataType.SUPERBLOCK)
        checkpoints.append([entry.encode() for entry in entries[first:]
                            if entry.mdtype is not MetadataType.GENERATION])
    return checkpoints


def test_remount_after_a_crash_mid_checkpoint_changes_nothing():
    """A crash that tears the first checkpoint entry of a freshly
    swapped-in zone: mount must not checkpoint behind the torn bytes
    (the scanner would read the checkpoint as that entry's payload and
    the next mount find no superblock), and a second mount must recover
    the same write pointers and write the checkpoint the first wrote,
    byte for byte but for the empty zones' generation counters.  The
    entries are the first completions of each rotation window (the
    checkpoint still in the write cache), every dirty zone keeping its
    whole cache but a metadata zone holding nothing durable, which keeps
    three sectors of it: a header and part of a payload."""
    entries = corpus.load("torn-checkpoint")
    replay = corpus.Corpus(entries)
    assert len(entries) >= 3
    for name, entry in entries.items():
        crashed = replay.enter(entry)
        md_first = crashed.data_end // crashed.devices[0].zone_size
        first = mount(crashed.sim, crashed.presented)
        left = recovery_checkpoints(crashed.devices, md_first)
        second = mount(crashed.sim, crashed.presented)
        assert recovery_checkpoints(crashed.devices, md_first) == left, name
        assert [d.write_pointer for d in second.zone_descs] == \
            [d.write_pointer for d in first.zone_descs]
        # §4.3: each mount bumps the counter of every empty zone.
        assert second.generation == [
            generation + (desc.write_pointer == desc.start_lba)
            for generation, desc in zip(first.generation, first.zone_descs)]


if __name__ == "__main__":
    failed = False
    for name, report, _recipes in explorations():
        print(f"{name}: {report['states_explored']} states, "
              f"{len(report['violations'])} violations")
        failed |= bool(report["violations"]) or \
            report["oracle_checks"]["mount_stability"] != \
            report["states_explored"]
    sys.exit(1 if failed else 0)
