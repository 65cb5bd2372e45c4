"""The fail-slow campaign harness: tail bound, determinism, stable digest."""

import pytest

from repro.harness.slowtest import (
    HEDGED_BOUND,
    UNHEDGED_BOUND,
    run_campaign,
    run_slowtest,
)


@pytest.fixture(scope="module")
def quick_report():
    return run_slowtest(seed=0, quick=True)


def test_quick_campaign_passes(quick_report):
    assert quick_report["passed"]
    assert quick_report["oracle_violations"] == 0
    assert quick_report["hedged_p999_over_healthy"] <= HEDGED_BOUND
    assert quick_report["unhedged_p999_over_healthy"] >= UNHEDGED_BOUND
    by_name = {c["name"]: c for c in quick_report["campaigns"]}
    assert list(by_name) == ["healthy", "hedged", "unhedged"]
    assert by_name["hedged"]["health"]["slow_hedges"] >= 1
    assert by_name["hedged"]["health"]["slow_demotions"] >= 1
    assert by_name["healthy"]["slow_counts"] == {}
    for variant in by_name.values():
        assert variant["corruptions"] == 0 and variant["violations"] == []
        assert variant["verified_bytes"] > 0
    assert quick_report["bench"]["hedged"] == by_name["hedged"]["read_latency"]


def test_same_seed_same_report(quick_report):
    again = run_slowtest(seed=0, quick=True)
    del again["elapsed_s"]
    first = {k: v for k, v in quick_report.items() if k != "elapsed_s"}
    assert again == first
    other = run_slowtest(seed=1, quick=True)
    assert [c["latency_digest"] for c in other["campaigns"]] != \
        [c["latency_digest"] for c in first["campaigns"]]


def test_digest_does_not_depend_on_percentile_queries():
    """``LatencyStats`` sorts its samples in place on the first
    percentile query; the digest must be the same on either side."""
    report = run_campaign("hedged", 0, quick=True)
    before = report.latency_digest
    assert report.latencies.p999 > 0
    assert report.latency_digest == before
    assert report.to_dict()["latency_digest"] == before
