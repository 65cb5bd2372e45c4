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
``relocation_rebuild_threshold=1``, so mount rewrites every physical zone
holding a relocation (§5.2); ``double`` cuts power inside that mount — at
its first data-zone reset if it has one, half-way through otherwise — and
mounts again.  The ``rewrite-double`` states raise today: before its
compaction, mount's metadata roles are a fresh volume's, so a mount-time
rewrite stages its copy in the last metadata zone whatever that zone
holds — here the live checkpoint (kin to ROADMAP item 1's metadata-zone
siblings).

For each state ``tests/data/mount_goldens.json`` holds the number of
device commands mount sent and a digest of them — (device, op, offset,
length, flags) of every command in submission order, taken with a
``pre_apply`` hook — and either a digest of the recovered state (each
logical zone's state, write pointer, persistence frontier and relocation
flag; the relocation units; the relocated parity; the generation
counters; the array's media fingerprint after mount) or the class of the
exception mount raised.

crashtest places its second crash by counting mount's commands, so a
change that moves this stream moves every campaign golden.  Regenerate
with ``PYTHONPATH=src python tests/test_mount_goldens.py --regen`` only
when that is the intent, and say why in CHANGES.md.
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
from repro.raizn.recovery import mount
from repro.sim import Simulator
from repro.units import KiB
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


def recovered_state(volume, devices) -> str:
    state = {
        "zones": [(desc.state.value, desc.write_pointer,
                   desc.persistence.frontier, desc.has_relocations)
                  for desc in volume.zone_descs],
        "relocations": [(unit.su_lba, unit.device, unit.extents,
                         short(unit.buffer))
                        for unit in volume.relocations.units()],
        "relocated_parity": [(key, short(parity)) for key, parity
                             in sorted(volume.relocated_parity.items())],
        "generation": volume.generation,
        "media": array_state_fingerprint(devices),
    }
    return hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()).hexdigest()[:32]


def mount_record(sim, devices, missing=None, crash_at=None, **overrides):
    """Mount the crash state the array is in, ``devices[missing]`` not
    presented — with ``crash_at``, power is cut at that command of the
    mount and the array mounted again.  Returns the record and the list
    of commands sent."""
    presented = [None if index == missing else dev
                 for index, dev in enumerate(devices)]
    alive = [dev for dev in presented if dev is not None]
    commands = []

    def tally(dev, bio):
        commands.append((dev.name, bio.op.value, bio.offset, bio.length,
                         int(bio.flags)))

    hooks = [dev.add_hook("pre_apply", tally) for dev in alive]
    try:
        if crash_at is not None:
            crash = CrashPoint(alive, after=crash_at,
                               rng=random.Random(crash_at))
            try:
                mount(sim, presented, **overrides)
            except PowerLossError:
                pass
            drain(sim)
            crash.disarm()
            assert crash.fired
            for dev in alive:
                dev.power_on()
        volume = mount(sim, presented, **overrides)
    except Exception as exc:      # the exception class is the outcome
        record = {"raised": type(exc).__name__}
    else:
        record = {"recovered": recovered_state(volume, devices)}
    finally:
        remove_hooks(hooks)
    stream = hashlib.sha256(repr(commands).encode()).hexdigest()[:32]
    record.update(commands=len(commands), stream=stream)
    return record, commands


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
    records = {}
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
                    kwargs["relocation_rebuild_threshold"] = 1
                if "double" in extras:
                    kwargs["crash_at"] = crash_point(
                        streams[variant[:-len("-double")]], data_end)
                records[f"{workload}{k}-{variant}"], streams[variant] = \
                    mount_record(sim, devices, **kwargs)
    return records


# ------------------------------------------------------------------- tests


@pytest.fixture(scope="module")
def records():
    return run_states()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("name", STATES)
def test_mount_matches_golden(name, records, golden):
    assert records[name] == golden[name], \
        f"{name}: mount's commands or recovered state changed"


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
    GOLDENS.write_text(json.dumps(run_states(), indent=2, sort_keys=True)
                       + "\n")
    print(f"wrote {len(STATES)} mount records to {GOLDENS}")
