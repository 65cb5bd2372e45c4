"""Item 1's red cells as corpus entries, and the corpus's detection power.

A red cell that is a crash state is an entry (``tests/crash_corpus.py``)
copied from its campaign's violation recipe, a strict xfail until fixed:
the replay must report exactly the campaign's violations
(:class:`StillRed`); a fix or a new symptom fails.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from crash_corpus import WORKLOADS, Corpus, CorpusError, load
from repro.harness import campaign
from repro.units import KiB

CI = pathlib.Path(__file__).resolve().parent.parent / ".github" / \
    "workflows" / "ci.yml"

RED = load("campaign")


class StillRed(AssertionError):
    """The entry reports the violations its campaign reported."""


@pytest.fixture(scope="module")
def red():
    return Corpus(RED)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=StillRed, reason=entry["xfail"]))
    for name, entry in RED.items()])
def test_red_cell(name, red):
    details = [finding["detail"] for finding in red.check(RED[name])]
    if details == RED[name]["violations"]:
        raise StillRed(f"{name}: {details}")
    assert details == []


def test_every_entry_is_replayed_by_a_view():
    assert {view for entry in load().values() for view in entry["views"]} \
        == {"mount", "mdgc", "torn-checkpoint", "campaign"}
    assert all(("xfail" in entry) == ("campaign" in entry["views"])
               and entry["workload"]["name"] in WORKLOADS
               for entry in load().values())


def test_soak_smoke_red_list_names_the_red_entries():
    """CI's soak step must see ``passed: false`` from exactly the quick
    seeds that have a red entry, so the two cannot drift."""
    step = re.search(r"Compound-fault soak smoke.*?RED: \"([^\"]*)\"",
                     CI.read_text(), re.S)
    assert {int(seed) for seed in step.group(1).split()} == {
        entry["workload"]["seed"] for entry in RED.values()
        if entry["workload"]["name"] == "soak"
        and entry["workload"]["quick"]}


@pytest.mark.parametrize("name, seed", [("script0-max", 1),
                                        ("script1-rand", 3)])
def test_a_changed_workload_fails_the_replay_loudly(name, seed):
    """Another seed's run reaches another state at the boundary, or one
    that does not admit the entry's survivors."""
    entry = dict(load("mount")[name])
    entry["workload"] = dict(entry["workload"], seed=seed)
    with pytest.raises(CorpusError) as caught:
        Corpus({name: entry}).enter(entry)
    message = str(caught.value)
    assert name in message and entry["fingerprint"] in message
    assert re.search(r"crash state [0-9a-f]{32}", message)


def test_frozen_expectations_reach_the_oracle(monkeypatch):
    """A mount that rolls every zone's write pointer back by 4 KiB
    loses acked bytes, and the oracle says so on some mount entry."""
    mount = campaign.mount

    def rolled_back(sim, devices, **overrides):
        volume = mount(sim, devices, **overrides)
        for desc in volume.zone_descs:
            if desc.write_pointer - desc.start_lba >= 4 * KiB:
                desc.write_pointer -= 4 * KiB
        return volume

    monkeypatch.setattr(campaign, "mount", rolled_back)
    entries = {name: entry for name, entry in load("mount").items()
               if "cut" not in entry}
    corpus = Corpus(entries)
    findings = [finding for entry in entries.values()
                for finding in corpus.check(entry)]
    assert any(finding["check"] == "recovered_volume"
               and "outside legal range" in finding["detail"]
               for finding in findings)
