"""The mdraid baseline pinned against committed digests.

``MdraidVolume`` is the denominator of every §6 ratio, so what it sends
and when is pinned per scenario: full-stripe writes, a plugged 64 KiB
stream (8 jobs x QD 8), the cached read-modify-write, the uncached
subrange RMW, the reconstruct-write, degraded sub-chunk / whole-stripe /
multi-stripe reads, degraded full- and sub-stripe writes, FLUSH, DISCARD,
a resync with no foreground IO, and one member rejecting a read and a
write through a ``pre_apply`` hook.  Bios are issued by a closed loop
that submits the next one from a completion callback, so the order in
which completions are delivered feeds later submissions.

``tests/data/mdraid_goldens.json`` holds one digest per scenario over
every member command (device, op, offset, length, submit instant,
completion instant — None for a command rejected by the hook), every
logical bio's completion (callback order, instant, and a hash of the
bytes read or the error class), ``volume.stats``, the stripe cache's
counters, each member's ``DeviceStats`` and a hash of each member's
media, plus the final clock.  The command and failed-bio counts sit
beside the digest in the clear.

A moved digest means mdraid's behaviour moved — timing, ordering,
accounting or bytes.  Regenerate with
``PYTHONPATH=src python tests/test_mdraid_goldens.py --regen`` only when
that is the intent, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.block import Bio, Op
from repro.conv import ConventionalSSD
from repro.errors import MediaError
from repro.mdraid import MdraidVolume
from repro.sim import Simulator
from repro.units import KiB, MiB

from conftest import pattern

GOLDENS = pathlib.Path(__file__).resolve().parent / "data" / \
    "mdraid_goldens.json"

CHUNK = 64 * KiB
STRIPE = 4 * CHUNK
DEPTH = 8


class Array:
    """Five conventional SSDs under one ``MdraidVolume``, recorded."""

    def __init__(self, capacity: int = 4 * MiB):
        self.sim = Simulator()
        self.devices = [ConventionalSSD(self.sim, name=f"c{i}",
                                        capacity_bytes=capacity, seed=300 + i)
                        for i in range(5)]
        self.md = MdraidVolume(self.sim, self.devices)
        #: ``[device, op, offset, length, submitted, completed]`` per
        #: member command, in submission order.
        self.commands = []
        self._inflight = {}
        #: ``(tag, instant, outcome)`` per logical bio, in callback order.
        self.completions = []
        self.failed = 0
        for dev in self.devices:
            self.watch(dev)

    def watch(self, dev) -> None:
        dev.add_hook("pre_apply", self._submitted)
        dev.add_hook("completion", self._completed)

    def _submitted(self, dev, bio) -> None:
        record = [dev.name, bio.op.value, bio.offset, bio.length,
                  self.sim.now, None]
        self.commands.append(record)
        self._inflight[id(bio)] = record

    def _completed(self, dev, bio) -> None:
        self._inflight.pop(id(bio))[5] = self.sim.now

    def submit(self, bio: Bio):
        """Submit ``bio`` and log its completion."""
        tag = (bio.op.value, bio.offset, bio.length)

        def log(event):
            if event.ok:
                result = event.value.result
                outcome = hashlib.sha256(bytes(result)).hexdigest()[:16] \
                    if result is not None else "ok"
            else:
                outcome = type(event.value).__name__
                self.failed += 1
            self.completions.append((tag, self.sim.now, outcome))
        event = self.md.submit(bio)
        event.add_callback(log)
        return event

    def loop(self, *sources, depth: int = DEPTH) -> None:
        """Closed loop: each source keeps ``depth`` bios in flight."""
        def pump(source, in_flight):
            while in_flight[0] < depth:
                bio = next(source, None)
                if bio is None:
                    return
                in_flight[0] += 1
                self.submit(bio).add_callback(
                    lambda _event: retire(source, in_flight))

        def retire(source, in_flight):
            in_flight[0] -= 1
            pump(source, in_flight)
        for source in sources:
            self.sim.schedule(0.0, pump, iter(source), [0])
        self.sim.run()

    def fill(self, stripes: int, seed: int = 1) -> None:
        self.loop(Bio.write(s * STRIPE, pattern(STRIPE, seed + s))
                  for s in range(stripes))

    def record(self) -> dict:
        md = self.md
        state = {
            "commands": self.commands,
            "completions": self.completions,
            "stats": md.stats.to_dict(),
            "cache": (md.cache.hits, md.cache.misses),
            "devices": [(dev.name, dev.stats.to_dict(),
                         hashlib.sha256(dev._media).hexdigest())
                        for dev in md.devices if dev is not None],
            "now": self.sim.now,
        }
        digest = hashlib.sha256(
            json.dumps(state, sort_keys=True).encode()).hexdigest()[:32]
        return {"digest": digest, "commands": len(self.commands),
                "failed_bios": self.failed}


# ---------------------------------------------------------------- scenarios


def full_stripe(array):
    array.loop((Bio.write(s * STRIPE, pattern(STRIPE, s))
                for s in range(8)), depth=4)
    array.submit(Bio.write(8 * STRIPE, pattern(2 * STRIPE, 50)))
    array.sim.run()
    array.loop((Bio.read(s * STRIPE, STRIPE) for s in range(10)), depth=4)


def plugged_stream(array):
    """The bench's ``mdraid_overwrite`` shape: 8 jobs x 64 KiB, QD 8."""
    region = 4 * STRIPE

    def job(j):
        for lba in range(j * region, (j + 1) * region, CHUNK):
            yield Bio.write(lba, pattern(CHUNK, lba))
    array.loop(*(job(j) for j in range(8)))


def cached_rmw(array):
    array.fill(8)
    rng = random.Random(3)
    writes = []
    for _ in range(40):
        length = rng.choice((4 * KiB, 8 * KiB, 12 * KiB))
        offset = rng.randrange(0, 8 * STRIPE - length, 4 * KiB)
        writes.append(Bio.write(offset, pattern(length, offset)))
    # Crossing a chunk boundary, and a stripe boundary.
    writes.append(Bio.write(CHUNK - 4 * KiB, pattern(8 * KiB, 7)))
    writes.append(Bio.write(STRIPE - 4 * KiB, pattern(8 * KiB, 8)))
    array.loop(writes)


def uncached_rmw(array):
    array.fill(8)
    array.md.cache.invalidate()
    rng = random.Random(4)
    writes = [Bio.write(rng.randrange(0, 8 * STRIPE - 8 * KiB, 4 * KiB),
                        pattern(4 * KiB, i)) for i in range(40)]
    writes.append(Bio.write(2 * CHUNK - 4 * KiB, pattern(8 * KiB, 9)))
    array.loop(writes)


def rcw(array):
    """Uncached writes touching every data chunk but covering none."""
    array.fill(6)
    array.md.cache.invalidate()
    array.loop((Bio.write(s * STRIPE + 4 * KiB,
                          pattern(STRIPE - 8 * KiB, s))
                for s in range(6)), depth=3)


def degraded_reads(array):
    array.fill(8)
    array.md.fail_device(2, remove=False)
    reads = []
    for s in range(8):
        reads.append(Bio.read(s * STRIPE + 4 * KiB, 8 * KiB))      # sub-chunk
        reads.append(Bio.read(s * STRIPE, STRIPE))                  # stripe
    reads += [Bio.read(s * STRIPE + 8 * KiB, 3 * STRIPE - 16 * KiB)
              for s in range(0, 6, 2)]                              # multi
    array.loop(reads, depth=4)


def degraded_writes(array):
    array.fill(8)
    array.md.fail_device(1)
    writes = [Bio.write(s * STRIPE, pattern(STRIPE, 70 + s))
              for s in range(0, 8, 2)]
    writes += [Bio.write(s * STRIPE + c * CHUNK + 4 * KiB,
                         pattern(8 * KiB, 80 + s + c))
               for s in range(1, 8, 2) for c in range(4)]
    array.loop(writes)
    array.loop((Bio.read(s * STRIPE, STRIPE) for s in range(8)), depth=4)


def flush_discard(array):
    array.fill(4)
    ops = [Bio.write(STRIPE + 4 * KiB, pattern(4 * KiB, 11)), Bio.flush(),
           Bio(Op.DISCARD, offset=2 * STRIPE, length=STRIPE + 8 * KiB),
           Bio.write(8 * KiB, pattern(4 * KiB, 12)), Bio.flush(),
           Bio.read(2 * STRIPE, STRIPE), Bio.read(0, STRIPE)]
    array.loop(ops, depth=3)


def resync(array):
    array.fill(4)
    array.md.fail_device(3)
    replacement = ConventionalSSD(array.sim, name="new",
                                  capacity_bytes=4 * MiB, seed=399)
    array.watch(replacement)
    report = array.md.resync(3, replacement)
    array.completions.append(("resync", report.started_at,
                              report.finished_at, report.bytes_written))
    array.loop((Bio.read(s * STRIPE, STRIPE) for s in range(4)), depth=2)


def rejected(array):
    """Member 1 rejects one read and one write at submission; the other
    bios of the window (some to the same stripes) carry on."""
    array.fill(8)
    # Inside member 1's chunk of stripe 2 (data) and of stripe 3 (parity).
    bad = (2 * CHUNK + 32 * KiB, 3 * CHUNK + 32 * KiB)

    def reject(dev, bio):
        if bio.op in (Op.READ, Op.WRITE) and any(
                bio.offset <= at < bio.offset + bio.length for at in bad):
            raise MediaError(f"{dev.name}: injected")
    array.devices[1].add_hook("pre_apply", reject)
    stripe = 3 * STRIPE
    ops = [Bio.read(s * STRIPE, STRIPE) for s in range(2, 6)]
    ops += [Bio.write(stripe + c * CHUNK, pattern(CHUNK, 90 + c))
            for c in range(4)]
    ops += [Bio.write(s * STRIPE + 4 * KiB, pattern(4 * KiB, 95 + s))
            for s in range(2, 6)]
    array.loop(ops)


SCENARIOS = {fn.__name__: fn for fn in (
    full_stripe, plugged_stream, cached_rmw, uncached_rmw, rcw,
    degraded_reads, degraded_writes, flush_discard, resync, rejected)}


def run_scenario(name: str) -> dict:
    array = Array()
    SCENARIOS[name](array)
    return array.record()


# ------------------------------------------------------------------- tests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_mdraid_matches_golden(name, golden):
    assert run_scenario(name) == golden[name], \
        f"{name}: mdraid's commands, completions or state changed"


def test_goldens_cover_the_scenarios_they_name(golden):
    """Every scenario is pinned and reached its branch: the rejecting
    member failed bios, the others failed none."""
    assert sorted(golden) == sorted(SCENARIOS)
    assert golden["rejected"]["failed_bios"] >= 2
    assert all(record["failed_bios"] == 0 for name, record in golden.items()
               if name != "rejected")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_mdraid_goldens.py --regen")
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(
        {name: run_scenario(name) for name in sorted(SCENARIOS)},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(SCENARIOS)} mdraid records to {GOLDENS}")
