"""The compound-fault soak campaign: quick run passes, deterministically.

One campaign composes all four fault dimensions (crash/recover cycles,
latent+transient error injection, fail-slow delays, wear/endurance) on a
single array with GC, scrub, and rebuild pressure, and checks the
integrity oracle at every phase boundary.  These tests pin the quick
profile's acceptance bar and its bit-for-bit determinism.
"""

import pytest

from repro.harness.soaktest import MECHANISMS, run_soaktest


@pytest.fixture(scope="module")
def seed0():
    """One quick seed-0 report, shared by the tests that only read it."""
    return run_soaktest(seed=0, quick=True)


#: Why quick seed 30 is red (ROADMAP item 1).  Its crash states, like
#: quick seeds 4, 22 and 28's, are crash-corpus entries
#: (``tests/test_crash_corpus.py``); no entry replays its live read-back
#: or phase 2's rebuild of the evicted device, which dies on the stripe.
SEED30_REBUILD = (
    "two unavailable devices under one stripe: a latent error on a "
    "survivor beside the evicted device fails the live read-back with "
    "DegradedModeError, and phase 2's rebuild of the evicted device dies "
    "on that stripe")


@pytest.mark.parametrize("seed", [0, 3, 5, 12, 15, pytest.param(
    30, marks=pytest.mark.xfail(strict=True, reason=SEED30_REBUILD))])
def test_quick_campaign_passes(seed, seed0, request):
    if seed in (0, 12):   # each run once, shared with other tests
        report = seed0 if seed == 0 else \
            request.getfixturevalue("soak_seed12")[0]
    else:
        report = run_soaktest(seed=seed, quick=True)
    assert report["passed"], report["violations"] or report
    assert report["violations"] == []
    assert len(report["mechanisms_exercised"]) >= 3
    assert set(report["mechanisms_exercised"]) <= set(MECHANISMS)
    assert report["injected"]["total"] > 0
    assert report["slowed_commands"] > 0
    assert report["crash_cycles"] >= 1


def test_every_enumerated_crash_state_is_mounted(seed0):
    # Every seed-0 state mounts, so the kernel counts one oracle run over
    # a mounted volume per enumerated state, and one per crash cycle.
    assert seed0["candidates"] > 0
    assert seed0["oracle_checks"]["recovered_volume"] == \
        seed0["candidates"] + seed0["crash_cycles"]


def test_quick_campaign_is_deterministic(seed0):
    again = run_soaktest(seed=0, quick=True)
    assert again["campaign_fingerprint"] == seed0["campaign_fingerprint"]
    assert again["mechanism_signatures"] == seed0["mechanism_signatures"]
    assert again["violations"] == seed0["violations"]


def test_seed_changes_the_campaign(seed0):
    other = run_soaktest(seed=1, quick=True)
    assert seed0["campaign_fingerprint"] != other["campaign_fingerprint"]
