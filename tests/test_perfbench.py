"""The eight perfbench scenarios pinned against committed digests.

``tests/data/perfbench_goldens.json`` holds, per scenario of
``repro.harness.perfbench``, the digest over the simulated clock, the
volume and device stats counters, every device's media and zone write
pointers, beside the simulated seconds and bytes moved.  The scenarios
drive 16–128 MiB each through a five-device array at queue depth 64,
so they witness the whole stack at the volume the figures use; the
write-path and read-path goldens witness individual branches.

A digest that moves means datapath behaviour moved; look first at which
write-path or read-path golden moved with it, since those name the
branch.  Regenerate with
``PYTHONPATH=src python tests/test_perfbench.py --regen`` only when that
is the intent, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.harness.perfbench import SCENARIO_NAMES, SEED, run_scenario

GOLDENS = pathlib.Path(__file__).resolve().parent / "data" / \
    "perfbench_goldens.json"


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
