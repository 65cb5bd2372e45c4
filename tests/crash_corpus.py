"""The crash-state corpus: one recipe per crash state, one replay.

An entry of ``tests/data/crash_corpus.json`` is a recipe, not media
bytes: a ``workload`` of :data:`WORKLOADS` with its parameters, a
completion ``boundary`` of its run, the ``survivors`` each dirty zone
settles to (per device, ``[zone, write pointer]`` pairs) and the
``fingerprint`` of the array crashed into them.  Extras, applied after
the fingerprint is checked: ``missing`` (the device not presented),
``latent`` (``[device, offset, length]`` marked bad), ``rewrite`` (mount
at a relocation threshold of 1, then the §5.2 zone rewrite) and ``cut``
(power cut before that command of the bring-up, then the array brought
up again).  ``views`` names the tests that read the entry; ``xfail``
marks a red cell of ROADMAP item 1, with the ``violations`` its campaign
reported.  A campaign finding becomes an entry with no rerun: crashtest
and soaktest put each crash state's recipe into every violation they
report; copy it here with an ``id``.
"""

from __future__ import annotations

import collections
import hashlib
import json
import pathlib
import random
import re
from typing import Dict, List

from repro.block import Bio, BioFlags
from repro.errors import PowerLossError, ReproError
from repro.faults.crashpoints import (
    CompletionBoundaries,
    apply_survivor_assignment,
    array_state_fingerprint,
    enumerate_survivor_assignments,
)
from repro.faults.powerloss import CrashPoint
from repro.harness.campaign import (
    WORKLOAD_ZONES,
    CampaignReport,
    drain,
    drive_ops,
    enter_crash_state,
    expectation_for,
    fresh_array,
    mount_and_check,
    script_ops,
)
from repro.harness.crashtest import scripted_workload
from repro.harness.soaktest import SOAK_OVERRIDES, _Campaign
from repro.raizn import RaiznConfig, RaiznVolume
from repro.raizn.maintenance import run_zone_rewrites
from repro.raizn.recovery import mount
from repro.sim import Simulator
from repro.units import KiB
from repro.zns import ZNSDevice

CORPUS = pathlib.Path(__file__).resolve().parent / "data" / \
    "crash_corpus.json"

#: One workload run: its array, ``{boundary: (device snapshots, frozen
#: expectation)}``, the mount overrides its states take, and the watch
#: the caller armed (or None).
Run = collections.namedtuple("Run", "sim devices volume snapshots "
                                    "overrides watch")


class CorpusError(AssertionError):
    """A replayed entry is not the crash state its recipe recorded."""


# ---------------------------------------------------------------- workloads


def _recorded(sim, devices, volume, expect, drive, snapshot_at, watch):
    """Drive the workload — ``drive()``, or the op script ``drive`` —
    recording ``snapshot_at`` with ``expect`` frozen beside each."""
    watcher = watch(volume) if watch is not None else None
    recorder = CompletionBoundaries(devices, snapshot_at,
                                    aux_state=expect.copy)
    if callable(drive):
        drive()
    else:
        sim.run_process(drive_ops(volume, drive, expect))
    recorder.disarm()
    if watcher is not None:
        watcher.disarm()
    return Run(sim, devices, volume, recorder.snapshots, {}, watcher)


def script(snapshot_at, watch=None, seed=0, num_ops=90):
    """crashtest's scripted workload on the campaign array."""
    sim, devices, volume = fresh_array(seed)
    return _recorded(sim, devices, volume, expectation_for(volume),
                     scripted_workload(seed, num_ops), snapshot_at, watch)


def relife(snapshot_at, watch=None):
    """The crashtest script (seed 1, 60 ops), a torn crash that arms
    relocations, a mount, then 40 more scripted ops whose crash states
    bring relocation units, relocated-unit log entries and relocated
    parity to the next mount.  The second life expects the first life's
    stream up to each recovered write pointer, all of it durable."""
    sim, devices, volume = fresh_array(1)
    expect = expectation_for(volume)
    sim.run_process(drive_ops(volume, scripted_workload(1, 60), expect))
    spaces = [dev.survivor_state_space() for dev in devices]
    assignments, _product = enumerate_survivor_assignments(
        spaces, 6, random.Random(1))
    apply_survivor_assignment(devices, assignments[2])
    volume = mount(sim, list(devices))
    assert len(volume.relocations) == 6
    frontier = [desc.write_pointer - desc.start_lba
                for desc in volume.zone_descs[:WORKLOAD_ZONES]]
    for zexp, length in zip(expect.zones, frontier):
        del zexp.submitted[length:]
        zexp.synced, zexp.resetting = length, False
    ops = script_ops(random.Random(101), 40,
                     lambda index, _pos: 7_000_003 + index,
                     frontier=frontier)
    return _recorded(sim, devices, volume, expect, ops, snapshot_at, watch)


def _small_array(seed, uuid):
    """An array whose 256 KiB metadata zones hold 32 partial-parity
    entries of a 4 KiB write."""
    sim = Simulator()
    devices = [ZNSDevice(sim, name=f"zns{i}", num_zones=12,
                         zone_capacity=256 * KiB, seed=seed + i)
               for i in range(5)]
    return sim, devices, RaiznVolume.create(
        sim, devices, RaiznConfig(num_data=4, stripe_unit_bytes=64 * KiB),
        array_uuid=uuid)


def rotation(snapshot_at, watch=None):
    """Small writes, 40 % FUA, over four zones of :func:`_small_array`:
    its metadata zones rotate every few dozen appends."""
    sim, devices, volume = _small_array(400, b"mount-goldens-rt")
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
    return _recorded(sim, devices, volume, expectation_for(volume), ops,
                     snapshot_at, watch)


def closed_loop(snapshot_at, watch=None, count=330):
    """QD 8 over four zones of :func:`_small_array`, the next write
    issued from the completion callback: appends queue behind the role
    lock while a log rotates.  A FUA ack covers the zone up to the end of
    that write; nothing is promised for what was submitted behind it."""
    sim, devices, volume = _small_array(300, b"mdzone-gc-crash!")
    expect = expectation_for(volume)
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

    def drive():
        for _ in range(8):
            pump()
        sim.run()
    return _recorded(sim, devices, volume, expect, drive, snapshot_at, watch)


def soak(snapshot_at, watch=None, seed=0, quick=True, phase=0, cycles=()):
    """The soak's live path up to ``phase`` under the recorded crash
    cycles, its slow plan armed as while the campaign explores; the
    recorder snapshots every 90th completion, whatever is asked."""
    campaign = _Campaign(seed, quick)
    campaign.cycles.update((cycled, assignment(survivors))
                           for cycled, survivors in cycles)
    for at, recorder in campaign.live():
        if at == phase:
            return Run(campaign.sim, campaign.devices, campaign.volume,
                       recorder.snapshots, SOAK_OVERRIDES, None)
    raise CorpusError(f"soak seed {seed} ended before phase {phase}")


#: The one workload registry every crash state is replayed from.
WORKLOADS = {"script": script, "relife": relife, "rotation": rotation,
             "closed_loop": closed_loop, "soak": soak}


def run(workload: Dict, snapshot_at=(), watch=None) -> Run:
    """Run ``workload`` (``{"name": ..., **parameters}``) once."""
    params = dict(workload)
    return WORKLOADS[params.pop("name")](snapshot_at, watch=watch, **params)


def assignment(survivors) -> List[Dict[int, int]]:
    """An entry's ``survivors`` as an ``apply_survivor_assignment``
    argument."""
    return [{zone: wp for zone, wp in pairs} for pairs in survivors]


# ---------------------------------------------------------------- replay


def load(view=None) -> Dict[str, Dict]:
    """The corpus by id, in file order; with ``view``, the entries that
    name it."""
    return {entry["id"]: entry for entry in json.loads(CORPUS.read_text())
            if view is None or view in entry["views"]}


def bring_up(sim, presented, rewrite=False):
    """Mount the array; with ``rewrite``, at a relocation threshold of 1,
    then run the §5.2 zone-rewrite maintenance step on the mounted
    volume."""
    if not rewrite:
        return mount(sim, presented)
    volume = mount(sim, presented, relocation_rebuild_threshold=1)
    run_zone_rewrites(sim, volume)
    return volume


#: A replayed crash state: every device, the ones presented to mount
#: (None for the ``missing`` one), the frozen expectation, the mount
#: overrides its bring-up takes, where data zones end, and whether the
#: bring-up runs the zone rewrite.
Crashed = collections.namedtuple("Crashed", "sim devices presented expect "
                                            "overrides data_end rewrite")


def cut_and_power_on(crashed, crash) -> None:
    """Bring the array up under the armed cut ``crash`` (a
    :class:`CrashPoint`), absorb the power loss, and power it on."""
    try:
        bring_up(crashed.sim, crashed.presented, crashed.rewrite)
    except PowerLossError:
        pass
    drain(crashed.sim)
    crash.disarm()
    assert crash.fired
    for dev in crashed.presented:
        if dev is not None:
            dev.power_on()


def mount_checked(crashed, stability=False):
    """Mount through the campaign kernel's ``mount_and_check`` against
    the frozen expectation: ``(volume or None, violations)``."""
    report = CampaignReport()
    report.oracle_checks = collections.Counter()
    volume = mount_and_check(crashed.sim, crashed.presented, crashed.expect,
                             report, {}, stability=stability,
                             **crashed.overrides)
    return volume, report.violations


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


def data_media(crashed) -> list:
    """Each presented device's data zones: write pointer and bytes."""
    return [[(zone.write_pointer,
              short(dev._media[zone.start:zone.write_pointer]))
             for zone in dev.zones if zone.start < crashed.data_end]
            for dev in crashed.presented if dev is not None]


#: What a bring-up recovered, which zones it left empty, and the
#: data-zone media it left.
Mounted = collections.namedtuple("Mounted", "fields generation empty media")


def mounted(crashed, volume) -> Mounted:
    return Mounted(recovered_fields(volume), volume.generation,
                   [desc.write_pointer == desc.start_lba
                    for desc in volume.zone_descs], data_media(crashed))


def remount(crashed, before: Mounted, exact: bool = True):
    """Bring the array up again through ``mount_and_check`` and hold it
    to ``before``: the class of the exception mount raised, or the list
    of what failed — the oracle's checks, the recovered fields that
    differ, ``generation`` (a counter may move only on a zone ``before``
    left empty: by §4.3's +1 if ``exact``, else by at most one) and
    ``data-zone media``."""
    again, violations = mount_checked(crashed)
    if again is None:   # a ReproError's class, or "traceback"
        return (re.findall(r"mount failed: (\w+)", violations[0]["detail"])
                or [violations[0]["check"]])[0]
    if crashed.rewrite:
        run_zone_rewrites(crashed.sim, again)
    after = mounted(crashed, again)
    drift = [finding["check"] for finding in violations]
    drift += [name for name in before.fields
              if after.fields[name] != before.fields[name]]
    if any(new != old + empty if exact else
           new != old and (abs(new - old) > 1 or not empty)
           for new, old, empty in zip(after.generation, before.generation,
                                      before.empty)):
        drift.append("generation")
    if after.media != before.media:
        drift.append("data-zone media")
    return drift


class Corpus:
    """Entries replayed over one run per workload, made on first use."""

    def __init__(self, entries: Dict[str, Dict]):
        self.entries = entries
        self._runs: Dict[str, Run] = {}
        #: Entries whose fingerprint matched: entering one again restores
        #: the same snapshot and applies the same survivors.
        self._verified = set()

    def _run(self, workload: Dict) -> Run:
        key = json.dumps(workload, sort_keys=True)
        if key not in self._runs:
            self._runs[key] = run(workload, sorted({
                entry["boundary"] for entry in self.entries.values()
                if json.dumps(entry["workload"], sort_keys=True) == key}))
        return self._runs[key]

    def enter(self, entry: Dict) -> Crashed:
        """Crash the array into ``entry``'s state, every extra but
        ``cut`` applied; :class:`CorpusError` names the entry and both
        fingerprints when the replay reaches another state."""
        recorded = self._run(entry["workload"])
        if entry["boundary"] not in recorded.snapshots:
            raise CorpusError(f"{entry['id']}: the replay ends before "
                              f"boundary {entry['boundary']}")
        snaps, expect = recorded.snapshots[entry["boundary"]]
        devices = recorded.devices
        try:
            enter_crash_state(devices, snaps, assignment(entry["survivors"]))
            refused = ""
        except ReproError as exc:   # a survivor the replay's zone lacks
            refused = f" ({exc})"
        if entry["id"] not in self._verified:
            got = array_state_fingerprint(devices)
            if refused or got != entry["fingerprint"]:
                raise CorpusError(
                    f"{entry['id']}: the replay is crash state {got}, the "
                    f"entry records {entry['fingerprint']}{refused}")
            self._verified.add(entry["id"])
        if "latent" in entry:
            index, offset, length = entry["latent"]
            devices[index].mark_bad(offset, length)
        rewrite = entry.get("rewrite", False)
        volume = recorded.volume
        return Crashed(
            recorded.sim, devices,
            [None if index == entry.get("missing") else dev
             for index, dev in enumerate(devices)], expect,
            dict(recorded.overrides, **(
                {"relocation_rebuild_threshold": 1} if rewrite else {})),
            volume.num_data_zones * volume.phys_zone_size, rewrite)

    def check(self, entry: Dict, stability: bool = False) -> List[Dict]:
        """Replay ``entry`` and mount it through ``mount_and_check`` (a
        ``cut`` entry is first cut at that command of its bring-up);
        returns the violations."""
        crashed = self.enter(entry)
        if "cut" in entry:
            cut_and_power_on(crashed, CrashPoint(
                [dev for dev in crashed.presented if dev is not None],
                after=entry["cut"], rng=random.Random(entry["cut"])))
        return mount_checked(crashed, stability)[1]
