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
"""

from __future__ import annotations

import collections
import random

import pytest

from repro.block import Bio, BioFlags, Op
from repro.block.device import remove_hooks
from repro.faults.crashpoints import (
    CompletionBoundaries,
    array_state_fingerprint,
)
from repro.harness.campaign import (
    drive_ops,
    enter_crash_state,
    enumerate_crash_states,
    expectation_for,
    fresh_array,
    mount_and_check,
)
from repro.harness.crashtest import _Report, explore, scripted_workload
from repro.raizn import RaiznConfig, RaiznVolume
from repro.raizn.mdzone import MetadataRole
from repro.raizn.metadata import MetadataEntry, MetadataType
from repro.raizn.recovery import mount
from repro.sim import Simulator
from repro.units import KiB
from repro.zns import ZNSDevice

#: The exploration of ISSUE 22: 6 ``mount_stability`` violations before
#: recovery refused to checkpoint behind a torn tail, 0 after.
EXPLORE = dict(seed=0, num_ops=300, boundaries=80, budget_per_boundary=6)


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


Run = collections.namedtuple("Run", "sim devices volume watch recorder")


def scripted_run(seed, num_ops, snapshot_at=()):
    """The crashtest script on the campaign array, watched, with a crash
    snapshot (and the frozen expectation) at each named boundary."""
    sim, devices, volume = fresh_array(seed)
    expect = expectation_for(volume)
    watch = MdWatch(volume)
    recorder = CompletionBoundaries(devices, snapshot_at,
                                    aux_state=expect.copy)
    sim.run_process(
        drive_ops(volume, scripted_workload(seed, num_ops), expect))
    watch.disarm()
    recorder.disarm()
    return Run(sim, devices, volume, watch, recorder)


def explore_boundaries(replay, boundaries, budget, seed=0, batch_size=12):
    """``crashtest.explore``'s pass 2 over a chosen list of completion
    boundaries (``replay(batch)`` is a :class:`Run` that snapshotted
    them): every sampled survivor state of every boundary is mounted
    under the full oracle, remount included.  A crash inside mount is
    ``tests/test_mount_restart.py``'s: its ``rotation`` states cut, at
    every command, the mount of a crash taken inside a rotation."""
    report = _Report(seed)
    rng = random.Random(seed + 1)
    for start in range(0, len(boundaries), batch_size):
        batch = boundaries[start:start + batch_size]
        sim, devices, _volume, _watch, recorder = replay(batch)
        for boundary in batch:
            snaps, frozen = recorder.snapshots[boundary]
            _spaces, assignments, _product = enumerate_crash_states(
                devices, snaps, budget, rng)
            for assignment in assignments:
                enter_crash_state(devices, snaps, assignment)
                where = {"boundary": boundary,
                         "state": array_state_fingerprint(devices)}
                report.states_explored += 1
                mount_and_check(sim, devices, frozen, report, where,
                                stability=True)
    return report


# ------------------------------------------------------- the scripted workload


@pytest.fixture(scope="module")
def scripted():
    return scripted_run(EXPLORE["seed"], EXPLORE["num_ops"])


def test_script_rotates_every_device_behind_the_barrier(scripted):
    volume, watch = scripted.volume, scripted.watch
    assert all(count >= 1 for count in watch.rotations.values()), \
        watch.rotations
    assert sum(watch.rotations.values()) == \
        sum(mdz.gc_cycles for mdz in volume.mdzones)
    assert watch.in_window and not watch.open_windows
    assert watch.barrier_breaches == []


def test_exploration_through_metadata_gc_is_clean():
    report = explore(**EXPLORE)
    assert report["violations"] == []
    assert report["states_explored"] >= 400
    assert report["oracle_checks"]["mount_stability"] == \
        report["states_explored"]


def test_every_boundary_inside_a_rotation_mounts(scripted):
    """Old zone full, new zone holding a checkpoint prefix — or the whole
    checkpoint and newer entries behind it: every completion boundary of
    every rotation window, not the 1-in-17 an even spread takes."""
    seed, num_ops = EXPLORE["seed"], EXPLORE["num_ops"]
    inside = scripted.watch.in_window
    report = explore_boundaries(
        lambda batch: scripted_run(seed, num_ops, batch), inside,
        budget=2, seed=seed)   # the two corners
    assert report.violations == []
    assert report.states_explored >= len(inside) >= 40
    assert report.oracle_checks["mount_stability"] == report.states_explored


# ------------------------------------------------------- the QD-8 closed loop


SU = 64 * KiB
DEPTH = 8


def closed_loop(snapshot_at=(), count=330):
    """QD 8 over four zones of an array with 256 KiB physical zones (a
    metadata zone holds 32 partial-parity entries of a 4 KiB write), the
    next write issued from the completion callback as in
    ``test_write_path_goldens.py``: appends queue behind the role lock
    while a log rotates.  A FUA ack covers the zone up to the end of that
    write; nothing is promised for what was submitted behind it."""
    sim = Simulator()
    devices = [ZNSDevice(sim, name=f"zns{i}", num_zones=12,
                         zone_capacity=256 * KiB, seed=300 + i)
               for i in range(5)]
    volume = RaiznVolume.create(
        sim, devices, RaiznConfig(num_data=4, stripe_unit_bytes=SU),
        array_uuid=b"mdzone-gc-crash!")
    expect = expectation_for(volume)
    watch = MdWatch(volume)
    recorder = CompletionBoundaries(devices, snapshot_at,
                                    aux_state=expect.copy)
    rng = random.Random(22)
    writes = iter(range(count))

    def pump():
        index = next(writes, None)
        if index is None:
            return
        zone = index % 4
        data = rng.randbytes(rng.choice((4 * KiB, 4 * KiB, 8 * KiB,
                                         12 * KiB)))
        fua = rng.random() < 0.4
        zexp = expect.zones[zone]
        lba = zone * volume.zone_capacity + len(zexp.submitted)
        expect.note_submit_write(zone, data)
        end = len(zexp.submitted)

        def done(event):
            assert event.ok, event.value
            if fua:
                zexp.synced = max(zexp.synced, end)
            pump()
        volume.submit(Bio.write(lba, data, BioFlags.FUA if fua
                                else BioFlags.NONE)).add_callback(done)

    for _ in range(DEPTH):
        pump()
    sim.run()
    watch.disarm()
    recorder.disarm()
    return Run(sim, devices, volume, watch, recorder)


def test_closed_loop_crashes_with_appends_queued_behind_a_rotation():
    watch = closed_loop().watch
    assert sum(watch.rotations.values()) >= 10
    assert watch.barrier_breaches == []
    report = explore_boundaries(closed_loop, watch.in_window[::5], budget=3)
    assert report.violations == []
    assert report.oracle_checks["mount_stability"] == \
        report.states_explored > 0


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


def test_remount_after_a_crash_mid_checkpoint_changes_nothing(scripted):
    """A crash that tears the first checkpoint entry of a freshly
    swapped-in zone: mount must not checkpoint behind the torn bytes
    (the scanner would read the checkpoint as that entry's payload and
    the next mount find no superblock), and a second mount must recover
    the same write pointers and write the checkpoint the first wrote,
    byte for byte but for the empty zones' generation counters."""
    # The first completions of each rotation window: the checkpoint is
    # still in the device's write cache.
    inside = set(scripted.watch.in_window)
    inside = sorted(k for k in inside if k - 4 not in inside)
    sim, devices, volume, _watch, recorder = scripted_run(
        EXPLORE["seed"], EXPLORE["num_ops"], inside)
    md_first = volume.num_data_zones
    torn_states = 0
    for boundary in inside:
        snaps, _frozen = recorder.snapshots[boundary]
        spaces, _assignments, _product = enumerate_crash_states(
            devices, snaps, 2, random.Random(0))
        # Every dirty zone keeps all of its cache, except that a metadata
        # zone holding nothing durable keeps three sectors of it: a
        # header and part of a payload.
        assignment = []
        torn = False
        for dev, space in zip(devices, spaces):
            chosen = {}
            for zone, states in space.items():
                chosen[zone] = states[-1]
                start = dev.zones[zone].start
                if zone >= md_first and states[0] == start \
                        and start + 12 * KiB in states[:-1]:
                    chosen[zone] = start + 12 * KiB
                    torn = True
            assignment.append(chosen)
        if not torn:
            continue
        torn_states += 1
        enter_crash_state(devices, snaps, assignment)
        first = mount(sim, list(devices))
        left = recovery_checkpoints(devices, md_first)
        second = mount(sim, list(devices))
        assert recovery_checkpoints(devices, md_first) == left, boundary
        assert [d.write_pointer for d in second.zone_descs] == \
            [d.write_pointer for d in first.zone_descs]
        # §4.3: each mount bumps the counter of every empty zone.
        assert second.generation == [
            generation + (desc.write_pointer == desc.start_lba)
            for generation, desc in zip(first.generation, first.zone_descs)]
    assert torn_states >= 3
