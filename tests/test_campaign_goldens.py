"""Campaign reports pinned against committed digests.

The four campaign harnesses (crashtest, errortest, slowtest, soaktest)
are the ground truth every refactor of the datapath and of recovery is
licensed by, so a refactor of the harnesses themselves needs a witness
outside them: ``tests/data/campaign_goldens.json`` holds one digest per
report — the four CI invocations at seeds 0 and 3 plus the cheap
full-size seed-0 runs — each computed over the whole JSON report with
the wall-clock field dropped.  The reports are produced through the CLI
(``repro.harness.cli.main``), the one surface whose spelling must not
move, so the same file checks the tree that generated the goldens and
every tree after it.

A digest that moves means campaign behaviour moved: regenerate with
``PYTHONPATH=src python tests/test_campaign_goldens.py --regen`` only
when that is the intent, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile

import pytest

from repro.harness import cli

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = REPO / "tests" / "data" / "campaign_goldens.json"
BENCH_TAIL = REPO / "BENCH_tail.json"

#: name -> CLI argv (without ``--out``).  The quick rows are the CI
#: smoke invocations verbatim; crashtest's full-size run (~15 s) is left
#: to the acceptance check of a refactoring PR.
CASES = {
    **{f"{campaign}-ci-seed{seed}": [campaign, *size, "--seed", str(seed)]
       for seed in (0, 3)
       for campaign, size in (("crashtest", ["--states", "84"]),
                              ("errortest", ["--smoke"]),
                              ("slowtest", ["--quick"]),
                              ("soaktest", ["--quick"]))},
    **{f"{campaign}-full-seed0": [campaign, "--seed", "0"]
       for campaign in ("errortest", "slowtest", "soaktest")},
}


def _without_wall_clock(value):
    if isinstance(value, dict):
        return {key: _without_wall_clock(item)
                for key, item in value.items() if key != "elapsed_s"}
    if isinstance(value, list):
        return [_without_wall_clock(item) for item in value]
    return value


def report_digest(report) -> str:
    canonical = json.dumps(_without_wall_clock(report), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def run_case(name: str, workdir: pathlib.Path, extra=()) -> dict:
    out = workdir / f"{name}.json"
    cli.main([*CASES[name], "--out", str(out), *extra])
    return json.loads(out.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    golden = json.loads(GOLDENS.read_text())
    digest = report_digest(run_case(name, tmp_path))
    capsys.readouterr()  # the CLI narrates; keep failures readable
    assert digest == golden[name], (
        f"{name}: campaign report changed (python -m repro "
        f"{' '.join(CASES[name])})")


def test_tracing_leaves_the_report_alone(tmp_path, capsys):
    """``--trace`` traces the campaign array from its construction; the
    report is the untraced run's, and the span dump is not empty."""
    spans = tmp_path / "spans.jsonl"
    untraced = run_case("errortest-ci-seed0", tmp_path)
    traced = run_case("errortest-ci-seed0", tmp_path,
                      extra=("--trace", str(spans)))
    capsys.readouterr()
    assert report_digest(traced) == report_digest(untraced)
    assert spans.read_text().splitlines()


def test_bench_tail_is_the_full_size_seed0_bench_block(tmp_path, capsys):
    bench_out = tmp_path / "bench_tail.json"
    report = run_case("slowtest-full-seed0", tmp_path,
                      extra=("--bench-out", str(bench_out)))
    capsys.readouterr()
    committed = json.loads(BENCH_TAIL.read_text())
    assert json.loads(bench_out.read_text()) == committed
    assert report["bench"] == committed


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_campaign_goldens.py --regen")
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: report_digest(run_case(name, pathlib.Path(tmp)))
                   for name in sorted(CASES)}
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDENS}")
