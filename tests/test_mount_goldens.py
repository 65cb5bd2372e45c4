"""Mount pinned against committed digests: what it sends, what it recovers.

``recovery.mount`` is driven over 43 fixed crash states of four
workloads, each crashed at completion boundaries picked from its run:

* ``script`` — the crashtest script (seed 0, 90 ops) on the campaign
  array;
* ``relife`` — a volume that already went through one torn crash: the
  crashtest script (seed 1, 60 ops), a crash into a survivor state that
  rolls a zone back and arms relocations, a mount, then 40 more scripted
  ops on the mounted volume, so its crash states bring relocation units,
  relocated-unit log entries and relocated parity to the next mount;
* ``rotation`` — small writes on an array whose 256 KiB metadata zones
  rotate every few dozen appends, crashed only where a rotation's
  checkpoint → flush → reset is in flight;
* ``reset`` — the ``script`` run crashed only where a zone reset has
  logged its intent and not yet emptied the zone (§5.2).

Each boundary ``k`` of a workload is mounted in every variant its row of
``MATRIX`` names.  ``min`` / ``max`` / ``rand`` pick the survivor state:
only what was flushed, the whole write cache, or a random draw of the
explorer's sampler.  ``missing`` leaves device ``k % 5`` out; ``latent``
marks bad (``mark_bad``) the last 4 KiB of the last data-zone read the
clean mount of that state sent; ``rewrite`` mounts with
``relocation_rebuild_threshold=1`` and then runs the §5.2 maintenance
step, ``run_zone_rewrites``, which rewrites every physical zone holding a
relocation (mount and the step are one bring-up, :func:`bring_up`, in
every record below); ``double`` cuts power inside that bring-up — at its
first data-zone reset if it has one (a zone rewrite's stage 2),
half-way through otherwise — and brings the array up again.

For each state ``tests/data/mount_goldens.json`` holds the number of
device commands mount sent and a digest of them — (device, op, offset,
length, flags) of every command in submission order, taken with a
``pre_apply`` hook — and either a digest of the recovered state (each
logical zone's state, write pointer, persistence frontier and relocation
flag; the relocation units; the relocated parity; the generation
counters; the array's media fingerprint after mount) or the class of the
exception mount raised.  Beside them, ``read_bytes`` counts the bytes
mount read, metadata zones and data zones apart, and ``reread_bytes``
the bytes among them one ``mount`` call had already read with no reset
of their zone in between (a zoned write lands only past the write
pointer, so without a reset it never lands on bytes already read).
One scan per device reads each metadata zone once, so the metadata
share of ``reread_bytes`` is 0 everywhere.  One unit reader, which
holds the bytes of the stripe it read last, serves every data-zone read
of the stripe walk and the tail stripe buffer, so the data share is 0
too in every state but a ``latent`` one (a unit read that meets the
extent is rebuilt from redundancy, and the media around it read again)
and a ``rewrite`` one (the zone rewrite reads its zone whole, through
the read path).

In the same pass every state that mounted is mounted a second time, and
the second mount must recover what the first did (mount ∘ mount =
mount): the same zones, relocation units and relocated parity, the
generations moved only by §4.3's +1 on empty zones, the data-zone media
untouched.

``tests/test_mount_restart.py`` cuts the mount of every state that
mounts once, with no latent extent and no ``double`` variant, at every
command.

Regenerate with ``PYTHONPATH=src python tests/test_mount_goldens.py
--regen`` only when that is the intent, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.block import BioFlags, Op
from repro.block.device import remove_hooks
from repro.errors import PowerLossError
from repro.faults.crashpoints import (
    CompletionBoundaries,
    apply_survivor_assignment,
    array_state_fingerprint,
    enumerate_survivor_assignments,
)
from repro.faults.powerloss import CrashPoint
from repro.harness.campaign import (
    drain,
    drive_ops,
    enter_crash_state,
    enumerate_crash_states,
    expectation_for,
    fresh_array,
    script_ops,
)
from repro.harness.crashtest import scripted_workload
from repro.raizn import RaiznConfig, RaiznVolume
from repro.raizn.maintenance import run_zone_rewrites
from repro.raizn.recovery import mount
from repro.sim import Simulator
from repro.units import SECTOR_SIZE, KiB
from repro.zns import ZNSDevice

GOLDENS = pathlib.Path(__file__).resolve().parent / "data" / \
    "mount_goldens.json"

NUM_DEVICES = 5

#: workload -> (where its crash boundaries lie, in percent of the
#: eligible ones; the variants mounted at each).
MATRIX = {
    "script": ((17, 50, 83), ("min", "max", "rand", "rand-missing",
                              "rand-latent", "rand-double")),
    "relife": ((17, 50, 83), ("rand", "rand-missing", "rand-latent",
                              "rand-rewrite", "rand-rewrite-double")),
    "rotation": ((25, 55), ("min", "max", "max-missing")),
    "reset": ((25, 75), ("min", "max")),
}

STATES = [f"{workload}{k}-{variant}"
          for workload, (percents, variants) in MATRIX.items()
          for k in range(len(percents)) for variant in variants]


# ---------------------------------------------------------------- workloads


def script_array():
    sim, devices, volume = fresh_array(0)
    return sim, devices, volume, scripted_workload(0, 90)


def relife_array():
    sim, devices, volume = fresh_array(1)
    sim.run_process(drive_ops(volume, scripted_workload(1, 60),
                              expectation_for(volume)))
    spaces = [dev.survivor_state_space() for dev in devices]
    assignments, _product = enumerate_survivor_assignments(
        spaces, 6, random.Random(1))
    apply_survivor_assignment(devices, assignments[2])
    volume = mount(sim, list(devices))
    assert len(volume.relocations) == 6
    frontier = [desc.write_pointer - desc.start_lba
                for desc in volume.zone_descs[:3]]
    ops = script_ops(random.Random(101), 40,
                     lambda index, _pos: 7_000_003 + index,
                     frontier=frontier)
    return sim, devices, volume, ops


def rotation_array():
    """Small writes, 40 % FUA, over four zones of an array whose metadata
    zone holds 32 partial-parity entries of a 4 KiB write."""
    sim = Simulator()
    devices = [ZNSDevice(sim, name=f"zns{i}", num_zones=12,
                         zone_capacity=256 * KiB, seed=400 + i)
               for i in range(NUM_DEVICES)]
    volume = RaiznVolume.create(
        sim, devices, RaiznConfig(num_data=4, stripe_unit_bytes=64 * KiB),
        array_uuid=b"mount-goldens-rt")
    rng = random.Random(28)
    fill = [0] * 4
    ops = []
    for index in range(240):
        zone = index % 4
        data = rng.randbytes(rng.choice((4 * KiB, 4 * KiB, 8 * KiB,
                                         12 * KiB)))
        flags = BioFlags.FUA if rng.random() < 0.4 else BioFlags.NONE
        ops.append(("write", zone, zone * volume.zone_capacity + fill[zone],
                    data, flags))
        fill[zone] += len(data)
    return sim, devices, volume, ops


#: workload -> (array and ops, which completion boundaries may be picked).
WORKLOADS = {
    "script": (script_array, lambda volume: True),
    "relife": (relife_array, lambda volume: True),
    "rotation": (rotation_array, lambda volume: any(
        mdz._reclaims for mdz in volume.mdzones)),
    "reset": (script_array, lambda volume: any(
        desc.reset_in_progress and any(
            dev.zones[desc.zone].write_pointer > dev.zones[desc.zone].start
            for dev in volume.devices)
        for desc in volume.zone_descs)),
}


def snapshot_run(workload, percents):
    """Run the workload twice: once to list the completion boundaries
    it may be crashed at and pick the ones ``percents`` of the way
    through that list, once to snapshot those.  Returns ``(sim, devices,
    volume, snapshots in boundary order)``."""
    build, eligible = WORKLOADS[workload]
    sim, devices, volume, ops = build()
    counter = CompletionBoundaries(devices)
    candidates = []

    def note(_dev, _bio):
        if eligible(volume):
            candidates.append(counter.count)
    hooks = [dev.add_hook("completion", note) for dev in devices]
    sim.run_process(drive_ops(volume, ops, expectation_for(volume)))
    remove_hooks(hooks)
    counter.disarm()
    picked = [candidates[percent * len(candidates) // 100]
              for percent in percents]
    sim, devices, volume, ops = build()
    recorder = CompletionBoundaries(devices, snapshot_at=picked)
    sim.run_process(drive_ops(volume, ops, expectation_for(volume)))
    recorder.disarm()
    return sim, devices, volume, [recorder.snapshots[b][0] for b in picked]


# ---------------------------------------------------------------- one mount


def short(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()[:16]


def recovered_fields(volume) -> dict:
    """What mount recovered, bar the generation counters."""
    return {
        "zones": [(desc.state.value, desc.write_pointer,
                   desc.persistence.frontier, desc.has_relocations)
                  for desc in volume.zone_descs],
        "relocations": [(unit.su_lba, unit.device, unit.extents,
                         short(unit.buffer))
                        for unit in volume.relocations.units()],
        "relocated_parity": [(key, short(parity)) for key, parity
                             in sorted(volume.relocated_parity.items())],
    }


def recovered_state(volume, devices) -> str:
    state = dict(recovered_fields(volume), generation=volume.generation,
                 media=array_state_fingerprint(devices))
    return hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()).hexdigest()[:32]


def data_media(devices, data_end) -> list:
    """Each device's data zones: write pointer and written bytes."""
    return [[(zone.write_pointer,
              short(dev._media[zone.start:zone.write_pointer]))
             for zone in dev.zones if zone.start < data_end]
            for dev in devices]


def bring_up(sim, presented, rewrite=False):
    """Mount the array; with ``rewrite``, at a relocation threshold of 1,
    then run the §5.2 zone-rewrite maintenance step on the mounted
    volume."""
    if not rewrite:
        return mount(sim, presented)
    volume = mount(sim, presented, relocation_rebuild_threshold=1)
    run_zone_rewrites(sim, volume)
    return volume


def remount_drift(sim, presented, volume, data_end, rewrite) -> list:
    """Bring the array up again over what ``volume``'s bring-up left; name
    what the second one recovers differently, or the data-zone media it
    changed.  Generations may only move by §4.3's +1 on empty zones."""
    alive = [dev for dev in presented if dev is not None]
    media = data_media(alive, data_end)
    try:
        again = bring_up(sim, presented, rewrite)
    except Exception as exc:
        return [f"remount raised {type(exc).__name__}"]
    first, second = recovered_fields(volume), recovered_fields(again)
    drift = [name for name in first if first[name] != second[name]]
    bumped = [counter + (desc.write_pointer == desc.start_lba)
              for counter, desc in zip(volume.generation, volume.zone_descs)]
    if again.generation != bumped:
        drift.append("generation")
    if data_media(alive, data_end) != media:
        drift.append("data-zone media")
    return drift


class ReadTally:
    """Bytes mount reads from data zones and from metadata zones, and how
    many of them one ``mount`` call had already read since the last
    reset of their zone."""

    def __init__(self, data_end: int):
        self.data_end = data_end
        self.read = {"data": 0, "metadata": 0}
        self.reread = {"data": 0, "metadata": 0}
        self.seen = {}      # device name -> sectors read in this call

    def new_mount(self) -> None:
        self.seen = {}

    def note(self, dev, bio) -> None:
        seen = self.seen.setdefault(dev.name, set())
        if bio.op is Op.ZONE_RESET:
            first = bio.offset // SECTOR_SIZE
            seen.difference_update(
                range(first, first + dev.zone_size // SECTOR_SIZE))
        elif bio.op is Op.READ:
            assert bio.offset % SECTOR_SIZE == bio.length % SECTOR_SIZE == 0
            kind = "data" if bio.offset < self.data_end else "metadata"
            first = bio.offset // SECTOR_SIZE
            sectors = set(range(first, first + bio.length // SECTOR_SIZE))
            self.read[kind] += bio.length
            self.reread[kind] += len(sectors & seen) * SECTOR_SIZE
            seen |= sectors


def mount_record(sim, devices, data_end, missing=None, crash_at=None,
                 rewrite=False):
    """Mount the crash state the array is in, ``devices[missing]`` not
    presented — with ``crash_at``, power is cut at that command of the
    mount and the array mounted again.  Returns the record, the list of
    commands sent, and what a further mount of the mounted array
    recovers differently (:func:`remount_drift`; None if mount raised)."""
    presented = [None if index == missing else dev
                 for index, dev in enumerate(devices)]
    alive = [dev for dev in presented if dev is not None]
    commands = []
    reads = ReadTally(data_end)

    def tally(dev, bio):
        commands.append((dev.name, bio.op.value, bio.offset, bio.length,
                         int(bio.flags)))
        reads.note(dev, bio)

    hooks = [dev.add_hook("pre_apply", tally) for dev in alive]
    try:
        if crash_at is not None:
            crash = CrashPoint(alive, after=crash_at,
                               rng=random.Random(crash_at))
            try:
                bring_up(sim, presented, rewrite)
            except PowerLossError:
                pass
            drain(sim)
            crash.disarm()
            assert crash.fired
            for dev in alive:
                dev.power_on()
            reads.new_mount()
        volume = bring_up(sim, presented, rewrite)
    except Exception as exc:      # the exception class is the outcome
        record, drift = {"raised": type(exc).__name__}, None
    else:
        record = {"recovered": recovered_state(volume, devices)}
    finally:
        remove_hooks(hooks)
    stream = hashlib.sha256(repr(commands).encode()).hexdigest()[:32]
    record.update(commands=len(commands), stream=stream,
                  read_bytes=reads.read, reread_bytes=reads.reread)
    if "recovered" in record:
        drift = remount_drift(sim, presented, volume, data_end, rewrite)
    return record, commands, drift


def mark_latent(devices, commands, data_end):
    """A latent extent over the last 4 KiB of the last data-zone read the
    same state's clean mount sent (``commands``), so this mount meets it."""
    reads = [(name, offset + length) for name, op, offset, length, _flags
             in commands if op == Op.READ.value and offset < data_end]
    name, end = reads[-1]
    next(dev for dev in devices if dev.name == name).mark_bad(
        end - 4 * KiB, 4 * KiB)


def crash_point(commands, data_end):
    """The command a ``double`` variant cuts power at: the first reset of
    a data zone (a zone rewrite's stage 2), else the middle one."""
    for index, (_name, op, offset, _length, _flags) in enumerate(commands):
        if op == Op.ZONE_RESET.value and offset < data_end:
            return index + 1
    return max(1, len(commands) // 2)


def run_states():
    """Mount every state: ``(records, remount drift by state)``."""
    records, drifts = {}, {}
    for workload, (percents, variants) in MATRIX.items():
        sim, devices, volume, snapshots = snapshot_run(workload, percents)
        for k, snaps in enumerate(snapshots):
            _spaces, assignments, _product = enumerate_crash_states(
                devices, snaps, 3, random.Random(k))
            survivors = {"min": assignments[0],
                         "max": assignments[min(1, len(assignments) - 1)],
                         "rand": assignments[-1]}
            data_end = volume.num_data_zones * volume.phys_zone_size
            streams = {}
            for variant in variants:
                corner, *extras = variant.split("-")
                enter_crash_state(devices, snaps, survivors[corner])
                kwargs = {}
                if "missing" in extras:
                    kwargs["missing"] = k % NUM_DEVICES
                if "latent" in extras:
                    mark_latent(devices, streams[corner], data_end)
                if "rewrite" in extras:
                    kwargs["rewrite"] = True
                if "double" in extras:
                    kwargs["crash_at"] = crash_point(
                        streams[variant[:-len("-double")]], data_end)
                name = f"{workload}{k}-{variant}"
                records[name], streams[variant], drifts[name] = \
                    mount_record(sim, devices, data_end, **kwargs)
    return records, drifts


# ------------------------------------------------------------------- tests


@pytest.fixture(scope="module")
def states():
    return run_states()


@pytest.fixture(scope="module")
def records(states):
    return states[0]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("name", STATES)
def test_mount_matches_golden(name, records, golden):
    assert records[name] == golden[name], \
        f"{name}: mount's commands or recovered state changed"


def test_mount_reads_each_byte_once(records):
    """One scan per device finds the superblock and ingests the log, and
    one unit reader serves the stripe walk and the tail buffer."""
    assert {name: record["reread_bytes"]["metadata"]
            for name, record in records.items()} == dict.fromkeys(STATES, 0)
    clean = [name for name in STATES
             if "-latent" not in name and "-rewrite" not in name]
    assert {name: records[name]["reread_bytes"]["data"]
            for name in clean} == dict.fromkeys(clean, 0)


def mounted_states():
    golden = json.loads(GOLDENS.read_text())
    return [name for name in STATES if "recovered" in golden[name]]


@pytest.mark.parametrize("name", mounted_states())
def test_second_mount_recovers_the_same_state(name, states):
    """mount ∘ mount = mount: the same zones, relocations and relocated
    parity, generations moved only by the +1 on empty zones, and the
    data-zone media untouched."""
    assert states[1][name] == [], f"{name}: {states[1][name]}"


def test_goldens_cover_the_states_they_name(golden):
    """Every state is pinned, and the matrix is not vacuous: a missing
    device, a latent extent, a zone rewrite and a crash inside mount each
    change what mount sends or what it recovers."""
    assert sorted(golden) == sorted(STATES)
    assert len(STATES) >= 40
    assert all(record["commands"] for record in golden.values())
    for name in STATES:
        base, _sep, extra = name.partition("-rand-")
        if extra:
            assert golden[name] != golden[f"{base}-rand"], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_mount_goldens.py --regen")
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(run_states()[0], indent=2, sort_keys=True)
                       + "\n")
    print(f"wrote {len(STATES)} mount records to {GOLDENS}")
