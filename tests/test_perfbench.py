"""The perf harness itself: fixed-seed determinism and recorded results.

The datapath optimizations (zero-delay event lane, zero-copy media,
cached stripe layouts) are only admissible if they keep fixed-seed runs
byte-identical; these tests pin that property at the harness level.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.harness.perfbench import (WRITE_PATH_SCENARIOS, check_digests,
                                     main, run_datapath_bench)

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDeterminism:
    def test_same_seed_runs_are_identical(self):
        first = run_datapath_bench(fast=True)
        second = run_datapath_bench(fast=True)
        assert first.digest == second.digest
        for a, b in zip(first.scenarios, second.scenarios):
            assert a.name == b.name
            # Simulated clock, IO volume, and the media/stats digest all
            # replay exactly; only wall time may differ.
            assert a.sim_seconds == b.sim_seconds
            assert a.simulated_bytes == b.simulated_bytes
            assert a.digest == b.digest

    def test_different_seed_changes_the_digest(self):
        base = run_datapath_bench(fast=True, only=["seq_write"])
        other = run_datapath_bench(fast=True, only=["seq_write"], seed=99)
        assert base.digest != other.digest


class TestTracingOverhead:
    def test_traced_run_is_inert_and_measured(self):
        report = run_datapath_bench(fast=True,
                                    only=["seq_write", "tracing_overhead"])
        by_name = {s.name: s for s in report.scenarios}
        # Inert: tracing changes no simulation outcome, only observes it.
        assert by_name["tracing_overhead"].digest == \
            by_name["seq_write"].digest
        assert report.tracing_overhead_pct is not None
        # CPU-time delta from interleaved best-of-N pairs.  The design
        # budget is < 3% on an idle machine; shared CI boxes show far
        # larger process-to-process variance, so this bound is only a
        # gross-regression tripwire.
        assert report.tracing_overhead_pct < 25.0

    def test_no_overhead_number_without_both_scenarios(self):
        report = run_datapath_bench(fast=True, only=["seq_write"])
        assert report.tracing_overhead_pct is None


class TestRecordedResults:
    def test_bench_file_records_baseline_and_current(self):
        recorded = json.loads(
            (_REPO_ROOT / "BENCH_datapath.json").read_text())
        macro = recorded["write_path_macro"]
        assert macro["baseline_mib_per_wall_second"] > 0
        assert macro["current_mib_per_wall_second"] > 0
        # The committed refresh re-baselines against the previous PR's
        # tree, so the recorded speedup is the latest pass alone (1.15x
        # on a loaded single-CPU box), not cumulative.
        assert macro["speedup"] >= 1.1
        names = {s["name"] for s in recorded["current"]["scenarios"]}
        assert set(WRITE_PATH_SCENARIOS) <= names
        # The optimization pass is replay-neutral by construction: every
        # scenario digest must be identical between baseline and current.
        base = {s["name"]: s["digest"]
                for s in recorded["baseline"]["scenarios"]}
        for s in recorded["current"]["scenarios"]:
            assert s["digest"] == base[s["name"]], s["name"]


class TestCheckDigests:
    """``--check`` must fail loudly on any divergence — including a
    scenario silently missing from the merged report and a reference
    whose comparison set is empty."""

    def _report(self):
        return run_datapath_bench(fast=True, only=["seq_write"],
                                  paired_tracing=False)

    def test_matching_reference_passes(self, tmp_path):
        report = self._report()
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps(report.to_json()))
        assert check_digests(report, str(ref),
                             expected_names=["seq_write"]) == []

    def test_mismatch_reported_per_scenario(self, tmp_path):
        report = self._report()
        doctored = report.to_json()
        doctored["scenarios"][0]["digest"] = "0" * 64
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps(doctored))
        problems = check_digests(report, str(ref),
                                 expected_names=["seq_write"])
        assert len(problems) == 1
        assert "seq_write" in problems[0]

    def test_scenario_missing_from_report_is_a_mismatch(self, tmp_path):
        """A worker result dropped from the merged report used to shrink
        the comparison set and pass; it must fail instead."""
        report = self._report()
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps(report.to_json()))
        gutted = dataclasses.replace(report, scenarios=[])
        problems = check_digests(gutted, str(ref))
        assert len(problems) == 1
        assert "missing from report" in problems[0]

    def test_only_subset_not_flagged_as_missing(self, tmp_path):
        """An ``--only`` run checked against the full committed report
        must only compare the scenarios it was asked to run."""
        report = self._report()
        full = report.to_json()
        full["scenarios"].append(
            dict(full["scenarios"][0], name="multizone_write"))
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps(full))
        assert check_digests(report, str(ref),
                             expected_names=["seq_write"]) == []
        problems = check_digests(report, str(ref))
        assert any("multizone_write" in p and "missing" in p
                   for p in problems)

    def test_bench_style_reference_accepted(self, tmp_path):
        """BENCH_datapath.json nests the report under ``current``; the
        checker used to see an empty scenario set there and always
        pass."""
        report = self._report()
        ref = tmp_path / "bench.json"
        ref.write_text(json.dumps({"current": report.to_json()}))
        assert check_digests(report, str(ref),
                             expected_names=["seq_write"]) == []
        doctored = report.to_json()
        doctored["scenarios"][0]["digest"] = "0" * 64
        ref.write_text(json.dumps({"current": doctored}))
        assert check_digests(report, str(ref),
                             expected_names=["seq_write"])

    def test_empty_reference_never_passes(self, tmp_path):
        report = self._report()
        ref = tmp_path / "empty.json"
        ref.write_text(json.dumps({"scenarios": []}))
        problems = check_digests(report, str(ref))
        assert problems and "no scenario digests" in problems[0]

    def test_main_exits_nonzero_on_mismatch(self, tmp_path, capsys):
        report = self._report()
        doctored = report.to_json()
        doctored["scenarios"][0]["digest"] = "0" * 64
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps(doctored))
        with pytest.raises(SystemExit) as excinfo:
            main(["--fast", "--quick", "--only", "seq_write",
                  "--check", str(ref)])
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert "DIGEST MISMATCH" in out and "seq_write" in out

    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_main_rejects_nonpositive_repeat(self, repeat, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--fast", "--only", "seq_write", "--repeat", repeat])
        assert excinfo.value.code == 2
        assert "--repeat must be >= 1" in capsys.readouterr().err


class TestParallelJobs:
    def test_jobs_merge_matches_sequential(self):
        """The by-name parallel merge reproduces the sequential report's
        digests exactly, whatever order workers finish in."""
        sequential = run_datapath_bench(
            fast=True, only=["seq_write", "oltp_flush"],
            paired_tracing=False)
        parallel = run_datapath_bench(
            fast=True, only=["seq_write", "oltp_flush"], jobs=2,
            paired_tracing=False)
        assert parallel.digest == sequential.digest
        assert [s.name for s in parallel.scenarios] == \
            [s.name for s in sequential.scenarios]
        for a, b in zip(parallel.scenarios, sequential.scenarios):
            assert a.digest == b.digest
