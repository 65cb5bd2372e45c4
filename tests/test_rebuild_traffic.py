"""The device traffic of a rebuild, pinned against committed digests.

Each scenario builds an array, fails one device and rebuilds it onto a
blank replacement while every device's command stream is recorded at
submission (``pre_apply``): per device the ordered ``(op, offset,
length)`` commands, then the :class:`RebuildReport`, the final clock and
a hash of what the replacement holds below each data zone's write
pointer.  ``tests/data/rebuild_traffic_goldens.json`` keeps, per
scenario, the command count per device beside one digest of it all, so
a moved digest shows which device's traffic moved.

Host work alone (how a chunk's bytes are folded or copied) must not
change what the devices see; what is read per command does (a run of
plain stripes' units is one read per survivor).  Regenerate with
``PYTHONPATH=src python tests/test_rebuild_traffic.py --regen`` only when
the device traffic is meant to move, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.block import Bio, Op
from repro.faults import FaultPlan, fresh_replacement, power_cycle
from repro.raizn import RaiznConfig, RaiznVolume, mount
from repro.raizn.maintenance import run_scrub
from repro.raizn.rebuild import rebuild_process
from repro.units import KiB
from repro.sim import Simulator

from conftest import TEST_STRIPE_UNIT, make_zns_devices, pattern

GOLDENS = pathlib.Path(__file__).resolve().parent / "data" / \
    "rebuild_traffic_goldens.json"

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


def new_volume(sim, **config):
    devices = make_zns_devices(sim)
    volume = RaiznVolume.create(
        sim, devices, RaiznConfig(num_data=4, stripe_unit_bytes=SU, **config))
    return volume, devices


def two_zones_and_a_tail(sim, **config):
    """Two full zones and a third ending in a partial stripe whose last
    written unit stops 20 KiB in (a mid-unit tail)."""
    volume, devices = new_volume(sim, **config)
    data = pattern(2 * volume.zone_capacity + 5 * STRIPE + 20 * KiB, seed=40)
    for lba in range(0, len(data), volume.zone_capacity):
        volume.execute(Bio.write(lba, data[lba:lba + volume.zone_capacity]))
    return volume, devices


class Traffic:
    """Every device's command stream, from the rebuild's start on."""

    def __init__(self, devices):
        self.streams = {}
        self.hooks = [device.add_hook("pre_apply", self.record)
                      for device in devices]

    def record(self, device, bio):
        self.streams.setdefault(device.name, []).append(
            (bio.op.value, bio.offset, bio.length))

    def detach(self):
        for hook in self.hooks:
            hook.device.remove_hook(hook)


def rebuilt(sim, volume, devices, index, before_run=None):
    """Rebuild ``index`` (already failed) onto a blank device; returns
    the scenario's pin."""
    replacement = fresh_replacement(sim, devices[(index + 1) % 5], "new")
    survivors = [device for device in volume.devices if device is not None]
    traffic = Traffic([*survivors, replacement])
    proc = sim.process(rebuild_process(sim, volume, index, replacement))
    if before_run is not None:
        before_run(replacement)
    sim.run()
    traffic.detach()
    report = proc.value
    media = hashlib.sha256()
    for zone in range(volume.num_data_zones):
        info = replacement.zone_info(zone)
        media.update(info.write_pointer.to_bytes(8, "little"))
        media.update(replacement._media[info.start:info.write_pointer])
    state = {
        "streams": traffic.streams,
        "report": [report.device_index, report.zones_rebuilt,
                   report.bytes_written, report.started_at,
                   report.finished_at],
        "now": sim.now,
        "media": media.hexdigest(),
    }
    digest = hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()).hexdigest()[:32]
    return {"digest": digest,
            "commands": {name: len(stream)
                         for name, stream in sorted(traffic.streams.items())},
            "bytes_written": report.bytes_written}


# ---------------------------------------------------------------- scenarios

SCENARIOS = {}


def scenario(fn):
    SCENARIOS[fn.__name__] = fn
    return fn


def _failed_index(index):
    def run():
        sim = Simulator()
        volume, devices = two_zones_and_a_tail(sim)
        volume.fail_device(index)
        return rebuilt(sim, volume, devices, index)
    run.__name__ = f"failed_index_{index}"
    run.__doc__ = (f"Device {index} lost under two full zones and a "
                   "mid-unit tail.")
    return run


for _index in range(5):
    scenario(_failed_index(_index))


@scenario
def relocation_units():
    """A worn zone: a power cycle and remount leave relocation units, the
    device holding the first of them is lost."""
    sim = Simulator()
    volume, devices = new_volume(sim)
    volume.execute(Bio.write(0, pattern(6 * STRIPE, seed=23)))
    power_cycle(devices, random.Random(41))
    volume = mount(sim, devices)
    wp = volume.zone_info(0).write_pointer
    volume.execute(Bio.write(wp, pattern(2 * STRIPE, seed=24)))
    assert volume.relocations.units()
    assert volume.zone_descs[0].has_relocations
    index = volume.relocations.units()[0].device
    volume.fail_device(index)
    return rebuilt(sim, volume, devices, index)


@scenario
def relocated_parity():
    """Stripe 0's parity healed into memory by the scrub, then a data
    device of that stripe lost."""
    sim = Simulator()
    volume, devices = two_zones_and_a_tail(sim)
    volume.execute(Bio.flush())
    layout = volume.mapper.stripe_layout(0, 0)
    devices[layout.parity_device].mark_bad(0, SU)
    run_scrub(sim, volume)
    assert (0, 0) in volume.relocated_parity
    assert not volume.zone_descs[0].has_relocations
    index = layout.data_devices[1]
    volume.fail_device(index)
    return rebuilt(sim, volume, devices, index)


def _writes_during_rebuild(where):
    def run():
        sim = Simulator()
        volume, devices = new_volume(sim)
        zcap = volume.zone_capacity
        # Zone 3's writes come after zone 0 is sealed (rebuild order
        # 0, 2, 1, 3).
        written = {0: 6 * STRIPE + 20 * KiB, 1: zcap, 2: 3 * STRIPE,
                   3: zcap}
        for zone, length in written.items():
            volume.execute(Bio.write(zone * zcap,
                                     pattern(length, seed=25 + zone)))
        lost = volume.mapper.stripe_layout(0, 6).data_devices[0]
        volume.fail_device(lost)
        more = pattern(2 * STRIPE + 24 * KiB, seed=28)
        target = 2 if where == "not_started" else 0
        zone0_extent = 6 * SU + 20 * KiB
        fired = []

        def trigger(device, bio):
            if fired or bio.op is not Op.WRITE:
                return
            zone = device.zone_index(bio.offset)
            if where == "rebuilt":
                due = 0 in volume.rebuild_state.rebuilt_zones
            elif where == "inflight_behind":
                due = zone == 0 and bio.end_offset >= zone0_extent
            else:
                due = zone == 0
            if due:
                fired.append(sim.now)
                volume.submit(Bio.write(target * zcap + written[target],
                                        more))

        result = rebuilt(sim, volume, devices, lost,
                         lambda replacement: replacement.add_hook(
                             "pre_apply", trigger))
        assert fired
        return result
    run.__name__ = f"writes_during_rebuild_{where}"
    run.__doc__ = ("Foreground writes landing while the pipeline runs "
                   f"({where}); the catch-up resumes and ends mid-unit.")
    return run


for _where in ("inflight_ahead", "inflight_behind", "not_started",
               "rebuilt"):
    scenario(_writes_during_rebuild(_where))


@scenario
def transient_fire():
    """Transient command failures on every survivor during the rebuild."""
    sim = Simulator()
    volume, devices = new_volume(sim, max_transient_retries=5)
    volume.execute(Bio.write(0, pattern(8 * STRIPE, seed=2)))
    volume.execute(Bio.flush())
    volume.fail_device(0)
    plan = FaultPlan(seed=7, num_data_zones=volume.num_data_zones,
                     stripe_unit_bytes=SU, transient_rate=0.1)
    plan.arm(devices)
    result = rebuilt(sim, volume, devices, 0)
    plan.disarm()
    assert plan.counts.transient > 0
    assert volume.health.transient_retries > 0
    return result


@scenario
def failslow_array():
    """An array that scores fail-slow health, device 1 lost."""
    sim = Simulator()
    volume, devices = two_zones_and_a_tail(sim, failslow_protection=True)
    volume.fail_device(1)
    return rebuilt(sim, volume, devices, 1)


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_rebuild_traffic_matches_golden(name):
    golden = json.loads(GOLDENS.read_text())
    assert SCENARIOS[name]() == golden[name], \
        f"{name}: the rebuild's device traffic changed"


def test_goldens_cover_the_scenarios():
    assert sorted(json.loads(GOLDENS.read_text())) == sorted(SCENARIOS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_rebuild_traffic.py --regen")
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(
        {name: SCENARIOS[name]() for name in sorted(SCENARIOS)},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(SCENARIOS)} digests to {GOLDENS}")
