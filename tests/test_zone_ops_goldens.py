"""Logical zone commands pinned against committed records: what each
member is sent, and what the volume believes afterwards.

A logical ZONE_RESET, ZONE_FINISH, ZONE_OPEN or ZONE_CLOSE (and the
auto-close a write past the logical open-zone limit causes) becomes
commands on the members' physical zones.  Each row below drives one such
command over a small fixed array — healthy, racing queued writes, with a
member failed, mid-rebuild, over a worn member with and without data, with
a member rejecting its command — and records:

* every member command a ``pre_apply`` hook saw from the moment the
  command under test was submitted, as ``device op offset`` plus whether
  the device accepted it (a rejected command never counts in the device's
  stats, so ``bio.counted`` tells);
* the outcome of each logical command (``ok``, or the exception);
* the logical zone table, the ``phys`` mirror of every member, the
  generation counters and the relocation count afterwards (zones still
  EMPTY at their start are left out of the tables).

``tests/data/zone_ops_goldens.json`` holds the records.  Regenerate with
``PYTHONPATH=src python tests/test_zone_ops_goldens.py --regen`` only when
a row is meant to move, and give its before and after in CHANGES.md.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

import pytest

from repro.block import Bio, BioFlags, Op
from repro.block.device import remove_hooks
from repro.errors import TransientCommandError, ZoneStateError
from repro.faults.devicefail import fresh_replacement
from repro.faults.powerloss import CrashPoint
from repro.harness.campaign import drain
from repro.raizn import RaiznConfig, RaiznVolume
from repro.raizn.rebuild import rebuild, rebuild_process
from repro.raizn.recovery import mount
from repro.sim import Simulator
from repro.units import KiB
from repro.zns import ZNSDevice, ZoneState

GOLDENS = pathlib.Path(__file__).resolve().parent / "data" / \
    "zone_ops_goldens.json"

NUM_DEVICES = 5
#: 17 data zones: one more than the logical open-zone limit of 12 needs.
NUM_ZONES = 20
ZONE_CAPACITY = 512 * KiB
SU = 64 * KiB
STRIPE = 4 * SU


def data(length: int, seed: int) -> bytes:
    return random.Random(seed).randbytes(length)


class Row:
    """One scenario's array and what it records."""

    def __init__(self, zone_reset_limit=None):
        self.sim = Simulator()
        self.devices = [
            ZNSDevice(self.sim, name=f"zns{i}", num_zones=NUM_ZONES,
                      zone_capacity=ZONE_CAPACITY,
                      zone_reset_limit=zone_reset_limit, seed=i)
            for i in range(NUM_DEVICES)]
        self.volume = RaiznVolume.create(
            self.sim, self.devices,
            RaiznConfig(num_data=NUM_DEVICES - 1, stripe_unit_bytes=SU),
            array_uuid=b"zone-ops-goldens")
        self.cap = self.volume.zone_capacity
        self.commands = []
        self.outcomes = []
        self.hooks = []

    # -- driving ------------------------------------------------------------

    def run(self, bio: Bio) -> Bio:
        """Set-up IO, before recording: must succeed."""
        return self.volume.execute(bio)

    def write(self, zone: int, offset: int, length: int,
              flags=BioFlags.NONE) -> None:
        self.run(Bio.write(zone * self.cap + offset,
                           data(length, zone * 1009 + offset), flags))

    def record(self) -> None:
        """From here on, every member command is recorded."""
        for dev in self.devices:
            self.watch(dev)

    def watch(self, dev) -> None:
        def tally(device, bio):
            self.commands.append((device.name, bio))
        self.hooks.append(dev.add_hook("pre_apply", tally))

    def submit(self, bio: Bio):
        """Submit a logical command; its outcome is recorded at the end."""
        event = self.volume.submit(bio)
        self.outcomes.append((bio.op.value, bio.offset, event))
        return event

    def command(self, bio: Bio) -> None:
        self.submit(bio)
        self.sim.run()

    # -- the record ---------------------------------------------------------

    def result(self, volume=None) -> dict:
        remove_hooks(self.hooks)
        volume = volume or self.volume
        outcomes = []
        for op, offset, event in self.outcomes:
            if not event.triggered:
                verdict = "pending"
            elif event.ok:
                verdict = "ok"
            else:
                verdict = f"{type(event.value).__name__}: {event.value}"
            outcomes.append(f"{op} {offset:#x} {verdict}")
        zones = [f"z{desc.zone} {desc.state.value} "
                 f"{desc.write_pointer - desc.start_lba:#x}"
                 for desc in volume.zone_descs
                 if desc.state is not ZoneState.EMPTY
                 or desc.write_pointer != desc.start_lba]
        phys = [f"d{pdesc.device} z{pdesc.zone} {pdesc.state.value} "
                f"{pdesc.write_pointer - pdesc.zone * volume.phys_zone_size:#x}"
                for row in volume.phys for pdesc in row[:volume.num_data_zones]
                if pdesc.state is not ZoneState.EMPTY
                or pdesc.write_pointer != pdesc.zone * volume.phys_zone_size]
        return {
            "commands": [f"{name} {bio.op.value} {bio.offset:#x} "
                         f"{'ok' if bio.counted else 'rejected'}"
                         for name, bio in self.commands],
            "outcomes": outcomes,
            "zones": zones,
            "phys": phys,
            "generation": list(volume.generation),
            "relocations": len(volume.relocations),
        }


# ---------------------------------------------------------------- healthy


def healthy_reset():
    row = Row()
    row.write(0, 0, STRIPE + 3 * SU)
    row.run(Bio.flush())
    row.record()
    row.command(Bio.zone_reset(0))
    return row.result()


def healthy_finish_partial_tail():
    row = Row()
    row.write(1, 0, STRIPE + SU + 8 * KiB)
    row.record()
    row.command(Bio.zone_finish(row.cap))
    return row.result()


def healthy_open_write_close():
    row = Row()
    row.record()
    row.command(Bio.zone_open(2 * row.cap))
    row.command(Bio.write(2 * row.cap, data(4 * KiB, 2)))
    row.command(Bio.zone_close(2 * row.cap))
    return row.result()


def healthy_close_after_one_write():
    """Reproducer (a): members never written are EMPTY."""
    row = Row()
    row.write(0, 0, 4 * KiB)
    row.record()
    row.command(Bio.zone_close(0))
    return row.result()


def healthy_auto_close_at_limit():
    """Reproducer (c): the 13th zone opened closes zone 0."""
    row = Row()
    for zone in range(12):
        row.write(zone, 0, 4 * KiB)
    row.record()
    row.command(Bio.write(12 * row.cap, data(4 * KiB, 12)))
    return row.result()


def reset_racing_queued_writes():
    row = Row()
    row.write(0, 0, STRIPE + 8 * KiB)
    row.record()
    row.submit(Bio.zone_reset(0))
    row.submit(Bio.write(0, data(SU, 7)))
    row.submit(Bio.write(SU, data(8 * KiB, 8), BioFlags.FUA))
    row.submit(Bio.zone_reset(0))
    row.submit(Bio.write(0, data(4 * KiB, 9)))
    row.sim.run()
    return row.result()


# ---------------------------------------------------------------- one member failed


def failed_member(index: int) -> Row:
    row = Row()
    row.write(0, 0, 2 * STRIPE)
    row.write(1, 0, STRIPE + SU + 8 * KiB)
    row.write(2, 0, 8 * KiB)
    row.run(Bio.flush())
    row.volume.fail_device(index)
    return row


def failed_member_reset():
    row = failed_member(0)
    row.record()
    row.command(Bio.zone_reset(0))
    return row.result()


def failed_member_finish():
    row = failed_member(2)
    row.record()
    row.command(Bio.zone_finish(row.cap))
    return row.result()


def failed_member_open_close():
    row = failed_member(1)
    row.record()
    row.command(Bio.zone_open(3 * row.cap))
    row.command(Bio.zone_close(2 * row.cap))
    row.command(Bio.zone_close(3 * row.cap))
    return row.result()


def failed_member_reset_rebuild_write():
    """Reproducer (e): the reset left the lost member's mirror behind."""
    row = Row()
    row.write(0, 0, 2 * STRIPE)
    row.run(Bio.flush())
    lost = row.volume.mapper.stripe_layout(0, 0).data_devices[0]
    row.volume.fail_device(lost)
    row.record()
    row.command(Bio.zone_reset(0))
    replacement = fresh_replacement(row.sim, row.devices[(lost + 1) % 5],
                                    name="new")
    row.watch(replacement)
    rebuild(row.sim, row.volume, lost, replacement)
    row.command(Bio.write(0, data(SU, 11)))
    return row.result()


def reset_mid_rebuild():
    row = Row()
    for zone in range(3):
        row.write(zone, 0, 4 * STRIPE + SU)
    row.run(Bio.flush())
    row.volume.fail_device(3)
    replacement = fresh_replacement(row.sim, row.devices[0], name="new")
    row.record()
    row.watch(replacement)
    row.sim.process(rebuild_process(row.sim, row.volume, 3, replacement))
    row.sim.run(until=row.sim.now + 200e-6)
    row.submit(Bio.zone_reset(0))
    row.submit(Bio.zone_reset(2 * row.cap))
    row.sim.run()
    return row.result()


# ---------------------------------------------------------------- worn members


def worn_member_with_data() -> Row:
    """Member 2 wore out under zones 0 and 1, and the volume noticed."""
    row = Row()
    row.write(0, 0, 2 * STRIPE + SU)
    row.write(1, 0, STRIPE + 8 * KiB)
    row.run(Bio.flush())
    for zone in (0, 1):
        row.devices[2].set_zone_read_only(zone)
        row.volume._sync_phys_desc(2, zone)
    row.record()
    return row


def worn_member_with_data_finish_reset():
    row = worn_member_with_data()
    row.command(Bio.zone_finish(row.cap))
    row.command(Bio.zone_reset(0))
    row.command(Bio.write(0, data(STRIPE, 3)))
    return row.result()


def worn_member_with_data_open_close():
    """Reproducer (b) with one worn member: OPEN and CLOSE reach it."""
    row = worn_member_with_data()
    row.command(Bio.zone_open(row.cap))
    row.command(Bio.zone_close(row.cap))
    return row.result()


def worn_member_without_data():
    """Reproducer (b): every member wore out; the zone lives in the log."""
    row = Row(zone_reset_limit=2)
    for _cycle in range(2):
        row.write(0, 0, 4 * KiB)
        row.run(Bio.zone_reset(0))
    row.write(0, 0, 4 * SU)
    row.record()
    row.command(Bio.zone_open(0))
    row.command(Bio.zone_close(0))
    row.command(Bio.zone_finish(0))
    return row.result()


def worn_member_unnoticed_reset_crash():
    """Reproducer (d): the volume has not noticed the wear; power is cut
    at the reset's first generation append, and the array mounted twice."""
    row = Row()
    row.write(0, 0, 2 * STRIPE)
    row.run(Bio.flush())
    row.devices[1].set_zone_read_only(0)
    row.record()
    crash = CrashPoint(row.devices, after=3, ops={Op.ZONE_APPEND})
    row.submit(Bio.zone_reset(0))
    drain(row.sim)
    crash.disarm()
    for dev in row.devices:
        dev.power_on()
    volume = None
    for _mount in range(2):
        try:
            volume = mount(row.sim, list(row.devices))
        except Exception as exc:      # the exception is the outcome
            row.outcomes.append(("mount", 0, _Raised(exc)))
            return row.result(row.volume)
        row.outcomes.append(("mount", 0, _Raised(None)))
    return row.result(volume)


class _Raised:
    """A finished outcome standing in for an event (mount is synchronous)."""

    triggered = True

    def __init__(self, exc):
        self.ok = exc is None
        self.value = exc


# ---------------------------------------------------------------- failing member


def reject_on(row: Row, device: int, op, exc) -> None:
    def hook(dev, bio):
        if bio.op is op:
            raise exc(f"{dev.name}: injected")
    row.devices[device].add_hook("pre_apply", hook)


def member_reset_rejected():
    row = Row()
    row.write(0, 0, STRIPE + 8 * KiB)
    row.run(Bio.flush())
    row.record()
    reject_on(row, 3, Op.ZONE_RESET, TransientCommandError)
    row.submit(Bio.zone_reset(0))
    row.submit(Bio.write(STRIPE + 8 * KiB, data(4 * KiB, 4)))
    row.sim.run()
    return row.result()


def member_finish_wear_race():
    row = Row()
    row.write(1, 0, STRIPE + SU)
    row.record()
    reject_on(row, 4, Op.ZONE_FINISH, ZoneStateError)
    row.command(Bio.zone_finish(row.cap))
    return row.result()


def member_open_rejected():
    row = Row()
    row.record()
    reject_on(row, 0, Op.ZONE_OPEN, TransientCommandError)
    row.command(Bio.zone_open(4 * row.cap))
    row.command(Bio.write(4 * row.cap, data(4 * KiB, 5)))
    return row.result()


ROWS = {fn.__name__: fn for fn in (
    healthy_reset, healthy_finish_partial_tail, healthy_open_write_close,
    healthy_close_after_one_write, healthy_auto_close_at_limit,
    reset_racing_queued_writes, failed_member_reset, failed_member_finish,
    failed_member_open_close, failed_member_reset_rebuild_write,
    reset_mid_rebuild, worn_member_with_data_finish_reset,
    worn_member_with_data_open_close, worn_member_without_data,
    worn_member_unnoticed_reset_crash, member_reset_rejected,
    member_finish_wear_race, member_open_rejected)}


def run_rows():
    return {name: fn() for name, fn in ROWS.items()}


# ------------------------------------------------------------------- tests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("name", sorted(ROWS))
def test_zone_ops_match_golden(name, golden):
    assert ROWS[name]() == golden[name], \
        f"{name}: member commands or zone tables changed"


def test_goldens_cover_the_rows_they_name(golden):
    assert sorted(golden) == sorted(ROWS)
    assert all(record["outcomes"] for record in golden.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_zone_ops_goldens.py --regen")
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(run_rows(), indent=2, sort_keys=True)
                       + "\n")
    print(f"wrote {len(ROWS)} zone-command records to {GOLDENS}")
