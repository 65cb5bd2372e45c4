"""The eight datapath scenarios pinned against committed digests.

Each scenario runs on a fresh five-device array at the experiments'
default geometry (``arrays.DEFAULT``), driven through
``workloads.fio.issue`` at queue depth 64:

* ``seq_write`` — sequential writes across many logical zones (stripe
  fan-out, parity, partial-parity logs);
* ``multizone_write`` — writes round-robin over several open zones
  (stripe-buffer and open-zone bookkeeping);
* ``oltp_flush`` — small FUA+PREFLUSH writes with periodic standalone
  flushes (the §5.3 persistence protocol, metadata-append heavy);
* ``seq_read`` — sequential reads over a primed volume;
* ``degraded_read`` — the same reads with one device failed;
* ``scrub_overhead`` — the same reads beside a background parity scrub,
  over a sprinkling of latent media errors (verify-and-heal traffic);
* ``tail_latency`` — the same reads with fail-slow protection on and one
  gray-failing device (hedge timers, reconstruction races, health
  scoring);
* ``tracing_overhead`` — ``seq_write`` with per-bio span tracing on.  The
  tracer is inert, so its digest must be ``seq_write``'s.

``tests/data/perfbench_goldens.json`` holds, per scenario, the digest
over the simulated clock, the volume and device stats counters, every
device's media and zone write pointers, beside the simulated seconds and
bytes moved.  A digest that moves means datapath behaviour moved; look
first at which write-path or read-path golden moved with it, since those
name the branch.  Host time is measured by the repository benchmark
(``bench/run.py``), not here.  Regenerate with
``PYTHONPATH=src python tests/test_perfbench.py --regen`` only when that
is the intent, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Iterable, List, Tuple

import pytest

from repro.block.bio import Bio, BioFlags
from repro.faults.failslow import SlowDeviceSpec, SlowPlan
from repro.harness.arrays import DEFAULT, make_raizn
from repro.raizn.maintenance import scrub_process
from repro.sim import Simulator, simulation_gc
from repro.units import KiB
from repro.workloads.fio import issue

GOLDENS = pathlib.Path(__file__).resolve().parent / "data" / \
    "perfbench_goldens.json"

#: Pinned array UUID so formatted media contents are reproducible.
BENCH_UUID = bytes(range(16))
#: The seed the committed digests were taken at.
SEED = 20230403
#: Logical zones each write scenario touches.
ZONES_USED = 8
#: Outstanding IOs per scenario.
IODEPTH = 64
#: Standalone flush every N writes in the OLTP scenario.
FLUSH_INTERVAL = 32


def _payload(nbytes: int, seed: int) -> bytes:
    """Deterministic payload without consuming any shared RNG state."""
    block = hashlib.sha256(seed.to_bytes(8, "little")).digest()
    return (block * (nbytes // len(block) + 1))[:nbytes]


def drive(sim: Simulator, volume, bios: Iterable[Bio]) -> int:
    """Issue ``bios`` at ``IODEPTH`` and run to the last completion."""
    with simulation_gc():
        return sim.run_process(issue(sim, volume, bios, IODEPTH))


def _sequential(volume, block_size: int) -> List[int]:
    """Block offsets of the first ``ZONES_USED`` zones, in order."""
    return [zone * volume.zone_capacity + offset
            for zone in range(ZONES_USED)
            for offset in range(0, volume.zone_capacity, block_size)]


def _seq_write_bios(volume, block_size: int, seed: int) -> List[Bio]:
    data = _payload(block_size, seed)
    return [Bio.write(offset, data)
            for offset in _sequential(volume, block_size)]


def _read_bios(volume, block_size: int = 64 * KiB) -> List[Bio]:
    return [Bio.read(offset, block_size)
            for offset in _sequential(volume, block_size)]


def _multizone_write_bios(volume, block_size: int, seed: int) -> List[Bio]:
    """Round-robin over zones: every zone sequential, globally interleaved."""
    data = _payload(block_size, seed)
    return [Bio.write(zone * volume.zone_capacity + step * block_size, data)
            for step in range(volume.zone_capacity // block_size)
            for zone in range(ZONES_USED)]


def _oltp_bios(volume, seed: int) -> List[Bio]:
    """4 KiB FUA commits with periodic checkpoint-style flushes."""
    block_size = 4 * KiB
    data = _payload(block_size, seed)
    zones = ZONES_USED // 2
    cursors = [z * volume.zone_capacity for z in range(zones)]
    budget = volume.zone_capacity // 4 // block_size  # quarter zone each
    bios: List[Bio] = []
    for step in range(budget):
        for zone in range(zones):
            bios.append(Bio.write(cursors[zone], data,
                                  BioFlags.FUA | BioFlags.PREFLUSH))
            cursors[zone] += block_size
            if len(bios) % FLUSH_INTERVAL == 0:
                bios.append(Bio.flush())
    return bios


def _digest_state(sim: Simulator, volume, devices) -> str:
    """SHA-256 over the observable simulation outcome."""
    sha = hashlib.sha256()
    sha.update(repr(round(sim.now, 9)).encode())
    stats = volume.stats
    for counter in (stats.reads, stats.writes, stats.flushes,
                    stats.zone_mgmt, stats.bytes_read, stats.bytes_written):
        sha.update(counter.to_bytes(8, "little"))
    for dev in devices:
        dstats = dev.stats
        for counter in (dstats.reads, dstats.writes, dstats.flushes,
                        dstats.zone_mgmt, dstats.bytes_read,
                        dstats.bytes_written, dstats.media_bytes_written):
            sha.update(counter.to_bytes(8, "little"))
        sha.update(hashlib.sha256(memoryview(dev._media)).digest())
        for zone in dev.zones:
            sha.update(zone.write_pointer.to_bytes(8, "little"))
    return sha.hexdigest()


def _primed(sim: Simulator, volume, seed: int) -> List[Bio]:
    """Fill the zones the read scenarios read; return those reads."""
    drive(sim, volume, _seq_write_bios(volume, 256 * KiB, seed))
    return _read_bios(volume)


def _degraded_read(sim, volume, devices, seed) -> List[Bio]:
    reads = _primed(sim, volume, seed)
    volume.fail_device(1)
    return reads


def _scrub_overhead(sim, volume, devices, seed) -> List[Bio]:
    reads = _primed(sim, volume, seed)
    su = DEFAULT.stripe_unit_bytes
    for zone in range(ZONES_USED):
        devices[(zone + 2) % DEFAULT.num_devices].mark_bad(
            zone * volume.phys_zone_size + (zone % 4) * su, su)
    sim.process(scrub_process(sim, volume))
    return reads


def _tail_latency(sim, volume, devices, seed) -> List[Bio]:
    """A clean read pass primes the health EWMAs; then device 1 runs 3x
    slow with intermittent 5 ms stalls."""
    drive(sim, volume, _primed(sim, volume, seed))
    SlowPlan(seed=seed + 1, specs=[
        SlowDeviceSpec(device_index=1, degrade_factor=3.0,
                       stall_probability=0.1, stall_seconds=5e-3)],
             ).arm(devices)
    return _read_bios(volume)


#: name -> (``RaiznConfig`` overrides, setup).  A setup takes
#: ``(sim, volume, devices, seed)``, primes or degrades the fresh array as
#: the scenario needs and returns the bios it measures.
SCENARIOS = {
    "seq_write": ({}, lambda sim, volume, devices, seed:
                  _seq_write_bios(volume, 64 * KiB, seed)),
    "multizone_write": ({}, lambda sim, volume, devices, seed:
                        _multizone_write_bios(volume, 16 * KiB, seed)),
    "oltp_flush": ({}, lambda sim, volume, devices, seed:
                   _oltp_bios(volume, seed)),
    "seq_read": ({}, lambda sim, volume, devices, seed:
                 _primed(sim, volume, seed)),
    "degraded_read": ({}, _degraded_read),
    "scrub_overhead": ({}, _scrub_overhead),
    "tail_latency": ({"failslow_protection": True}, _tail_latency),
    "tracing_overhead": ({"tracing": True}, lambda sim, volume, devices,
                         seed: _seq_write_bios(volume, 64 * KiB, seed)),
}
SCENARIO_NAMES = tuple(SCENARIOS)


def run_scenario(name: str, seed: int = SEED) -> Tuple[str, float, int]:
    """Run one scenario; return ``(digest, sim_seconds, simulated_bytes)``.

    ``sim_seconds`` counts from the end of the scenario's setup (format,
    priming) to the last completion of its measured bios.
    """
    overrides, setup = SCENARIOS[name]
    sim = Simulator()
    volume, devices = make_raizn(sim, DEFAULT, seed, array_uuid=BENCH_UUID,
                                 **overrides)
    bios = setup(sim, volume, devices, seed)
    start = sim.now
    moved = drive(sim, volume, bios)
    return _digest_state(sim, volume, devices), sim.now - start, moved


def scenario_entry(name: str, seed: int = SEED) -> dict:
    digest, sim_seconds, moved = run_scenario(name, seed)
    return {"digest": digest, "sim_seconds": sim_seconds,
            "simulated_bytes": moved}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_matches_golden(name):
    golden = json.loads(GOLDENS.read_text())
    assert scenario_entry(name) == golden[name], \
        f"{name}: datapath behaviour changed"


def uncovered_scenarios(golden: dict) -> set:
    """Scenarios in only one of the goldens and ``SCENARIO_NAMES``."""
    return set(golden) ^ set(SCENARIO_NAMES)


def test_goldens_cover_every_scenario():
    """No scenario can drop out of the pin, and the file is not empty."""
    golden = json.loads(GOLDENS.read_text())
    assert not uncovered_scenarios(golden)
    assert len(SCENARIO_NAMES) == 8


class TestCheckDigests:
    """The coverage check above flags a shrunken goldens file."""

    def test_empty_reference_never_passes(self):
        assert uncovered_scenarios({}) == set(SCENARIO_NAMES)

    def test_scenario_missing_from_report_is_a_mismatch(self):
        golden = json.loads(GOLDENS.read_text())
        del golden["oltp_flush"]
        assert uncovered_scenarios(golden) == {"oltp_flush"}


def test_traced_seq_write_is_inert():
    """Span tracing observes and changes nothing: both runs are checked
    against their goldens above, and the goldens are the same."""
    golden = json.loads(GOLDENS.read_text())
    assert golden["tracing_overhead"] == golden["seq_write"]


class TestDeterminism:
    def test_different_seed_changes_the_digest(self):
        golden = json.loads(GOLDENS.read_text())
        digest, _sim_seconds, _moved = run_scenario("oltp_flush", seed=99)
        assert digest != golden["oltp_flush"]["digest"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_perfbench.py --regen")
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(
        {name: scenario_entry(name) for name in SCENARIO_NAMES},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(SCENARIO_NAMES)} digests to {GOLDENS}")
