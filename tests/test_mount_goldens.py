"""Mount pinned against committed digests: what it sends, what it recovers.

``recovery.mount`` is driven over the 43 crash states of the corpus
(``tests/crash_corpus.py``) whose ``views`` name ``mount``: four
workloads crashed at completion boundaries 17/50/83 % (``script``,
``relife``), 25/55 % (``rotation``, where a metadata-zone rotation's
checkpoint → flush → reset is in flight) or 25/75 % (``reset``, the
``script`` run where a zone reset has logged its intent and not yet
emptied the zone, §5.2) of the way through the boundaries eligible for
each.  An entry's id names its variant: ``min`` / ``max`` / ``rand``
survivors (only what was flushed, the whole write cache, a draw of the
explorer's sampler); ``missing`` device ``k % 5``; ``latent``, the last
4 KiB of the last data-zone read the clean mount of that state sent;
``rewrite`` (mount and the §5.2 zone-rewrite step are one bring-up,
:func:`crash_corpus.bring_up`, in every record below); ``double``, a
power cut inside that bring-up — at its first data-zone reset if it has
one, half-way through otherwise — before bringing the array up again.

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
of their zone in between.  One scan per device reads each metadata zone
once, and one unit reader, which holds the stripe it read last, serves
every data-zone read of the stripe walk and the tail stripe buffer, so
both shares are 0 in every state but a ``latent`` one (the media around
the extent is read again) and a ``rewrite`` one (the zone rewrite reads
its zone whole, through the read path).

In the same pass every state that mounted is brought up a second time
through the campaign kernel's ``mount_and_check``, under the durability
oracle against the expectation frozen at the state's boundary, and must
recover what the first did (mount ∘ mount = mount): the same zones,
relocation units and relocated parity, the generations moved only by
§4.3's +1 on empty zones, the data-zone media untouched.

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

from crash_corpus import (Corpus, bring_up, cut_and_power_on, load,
                          mounted, recovered_fields, remount)
from repro.block import Op
from repro.block.device import remove_hooks
from repro.faults.crashpoints import array_state_fingerprint
from repro.faults.powerloss import CrashPoint
from repro.units import SECTOR_SIZE

GOLDENS = pathlib.Path(__file__).resolve().parent / "data" / \
    "mount_goldens.json"

ENTRIES = load("mount")
STATES = list(ENTRIES)


# ---------------------------------------------------------------- one mount


def recovered_state(volume, devices) -> str:
    state = dict(recovered_fields(volume), generation=volume.generation,
                 media=array_state_fingerprint(devices))
    return hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()).hexdigest()[:32]


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


def mount_record(crashed, cut=None):
    """Bring up the crash state ``crashed`` (:meth:`Corpus.enter`) —
    with ``cut``, power is cut at that command of the bring-up and the
    array brought up again.  Returns the record and what a further
    bring-up finds (:func:`crash_corpus.remount`; None if the bring-up
    raised)."""
    alive = [dev for dev in crashed.presented if dev is not None]
    commands = []
    reads = ReadTally(crashed.data_end)

    def tally(dev, bio):
        commands.append((dev.name, bio.op.value, bio.offset, bio.length,
                         int(bio.flags)))
        reads.note(dev, bio)

    hooks = [dev.add_hook("pre_apply", tally) for dev in alive]
    try:
        if cut is not None:
            cut_and_power_on(crashed, CrashPoint(alive, after=cut,
                                                 rng=random.Random(cut)))
            reads.new_mount()
        volume = bring_up(crashed.sim, crashed.presented, crashed.rewrite)
    except Exception as exc:      # the exception class is the outcome
        record, drift = {"raised": type(exc).__name__}, None
    else:
        record = {"recovered": recovered_state(volume, crashed.devices)}
    finally:
        remove_hooks(hooks)
    stream = hashlib.sha256(repr(commands).encode()).hexdigest()[:32]
    record.update(commands=len(commands), stream=stream,
                  read_bytes=reads.read, reread_bytes=reads.reread)
    if "recovered" in record:
        drift = remount(crashed, mounted(crashed, volume))
    return record, drift


def run_states():
    """Bring up every state: ``(records, remount findings by state)``."""
    corpus = Corpus(ENTRIES)
    records, drifts = {}, {}
    for name, entry in ENTRIES.items():
        records[name], drifts[name] = mount_record(corpus.enter(entry),
                                                   entry.get("cut"))
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
