"""Smoke test of the benchmark itself (not part of tier-1: ``testpaths``
is ``tests``).  Run it with::

    python -m pytest bench/test_smoke.py -q

It checks the plumbing, not the numbers: every workload and every metric
named in BENCHMARK.json is emitted with its unit, no operation fails, and
everything on the simulated clock repeats exactly between two runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN = [sys.executable, os.path.join(BENCH, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _smoke_report(path) -> dict:
    done = subprocess.run(RUN + ["--smoke", "--json", str(path)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=300)
    assert done.returncode == 0, done.stdout
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    return _smoke_report(out / "a.json"), _smoke_report(out / "b.json")


def test_every_workload_and_metric_is_emitted(reports):
    report = reports[0]
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for name, record in report["workloads"].items():
        for group in ("end_to_end", "per_layer"):
            emitted = record[group]
            for entry in SPEC[group]:
                assert isinstance(emitted[entry["name"]], (int, float)), \
                    (name, entry["name"])
        for entry in SPEC["end_to_end"]:
            assert record["end_to_end"][entry["name"]] > 0, \
                (name, entry["name"])


def test_no_operation_fails(reports):
    for report in reports:
        for name, record in report["workloads"].items():
            assert record["correct"], name
            assert record["failed_op_share"] == 0, name
            assert record["attempted"] >= 1, name
            assert record["info"]["mismatches"] == 0, name


def test_simulated_clock_repeats_exactly(reports):
    first, second = reports
    for name in WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        for metric, value in a["end_to_end"].items():
            if metric.startswith("sim_"):
                assert value == b["end_to_end"][metric], (name, metric)
        assert a["info"]["setup_digest"] == b["info"]["setup_digest"], name
        assert a["info"]["window_digest"] == b["info"]["window_digest"], name


def test_reports_agree_on_everything_exact(reports, tmp_path, capsys):
    """``--compare`` finds no exact metric that differs (host seconds of a
    two-round smoke run are allowed to disagree)."""
    sys.path.insert(0, BENCH)
    import compare
    paths = []
    for index, report in enumerate(reports):
        paths.append(tmp_path / f"{index}.json")
        paths[-1].write_text(json.dumps(report))
    compare.main(str(paths[0]), str(paths[1]), SPEC)
    assert "DIFFERS" not in capsys.readouterr().out


def test_traced_rounds_are_accounted_for(reports):
    for name, record in reports[0]["workloads"].items():
        assert record["info"]["trace_coverage_min"] >= 0.9, name
        assert record["info"]["spans"] > 0, name
    md = reports[0]["workloads"]["mdraid_overwrite"]["per_layer"]
    assert md["conv.gc_pages_moved"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_contract(trace):
    """The last line is one JSON object with exactly the contract's keys,
    holding exactly the metrics BENCHMARK.json lists for that mode."""
    done = subprocess.run(
        RUN + ["--workload", "seqwrite", "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in group}
    for entry in group:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert isinstance(result["metrics"][entry["name"]]["value"],
                          (int, float))
