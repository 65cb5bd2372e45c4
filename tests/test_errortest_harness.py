"""The errortest campaign harness: integrity, determinism, detection."""

import json

from repro.harness.campaign import write_report
from repro.harness.errortest import (
    detection_power,
    run_campaign,
    run_errortest,
)


def report_of(**kwargs):
    report = run_campaign(**kwargs).to_dict()
    del report["elapsed_s"]  # wall clock
    return report


class TestSmokeCampaign:
    def test_smoke_campaign_passes(self):
        result = run_errortest(seed=0, quick=True)
        assert result["passed"]
        assert result["corruptions"] == 0
        assert result["violations"] == []
        assert result["injected"]["total"] >= result["min_faults"] >= 20
        assert result["eviction"]["evicted"]
        assert result["rebuild"]["bytes_written"] > 0
        assert result["detection_power"]["caught"]

    def test_campaign_exercises_every_fault_class(self):
        report = run_campaign(seed=0, quick=True)
        injected = report.injected
        assert injected["latent"] > 0
        assert injected["transient"] > 0
        assert injected["wear"] > 0
        assert report.health["heals"] > 0
        assert report.health["transient_retries"] > 0
        # Three verification passes: post-scrub, degraded, post-rebuild.
        labels = [v["label"] for v in report.verify_passes]
        assert labels == ["post-scrub", "degraded", "post-rebuild"]
        assert all(v["corruptions"] == 0 for v in report.verify_passes)
        # No read-back runs ahead of the scrub, so it meets latent units.
        assert report.scrub["data_heals"] > 0


class TestDeterminism:
    def test_same_seed_same_report(self):
        assert report_of(seed=3, quick=True) == report_of(seed=3, quick=True)

    def test_different_seeds_diverge(self):
        first = report_of(seed=0, quick=True)
        second = report_of(seed=1, quick=True)
        assert first["injected"] != second["injected"]


class TestDetectionPower:
    def test_oracle_catches_unrepaired_corruption(self):
        result = detection_power(seed=1)
        assert result["caught"]
        assert result["corruptions"] > 0
        assert result["unrepaired_serves"] > 0


class TestReportFile:
    def test_write_report_round_trips(self, tmp_path):
        report = run_campaign(seed=2, quick=True).to_dict()
        path = tmp_path / "errortest.json"
        write_report(report, str(path))
        with open(path) as fh:
            assert json.load(fh) == report
