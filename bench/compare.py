"""``bench/run.py --compare A.json B.json``: do two reports agree?

A is the base, B the candidate.  One row per workload x metric with both
values, the ratio B/A and a verdict:

``same``        simulated-clock metrics and exact counters: identical
                (two runs of one seed repeat exactly, so any difference
                is a behaviour change, however small);
``ok``          host metrics: B is not worse than A by more than the
                metric's bound in BENCHMARK.json;
``WORSE``       a host metric is worse by more than its bound;
``DIFFERS``     an exact metric differs;
``unresolved``  the spread inside either report exceeds the bound, so the
                data cannot tell: ``bench.round_iqr_pct`` for
                ``host_mib_per_s``, (max - min) / median of the three
                set-ups for ``setup_s``;
``info``        per-layer seconds and ladder rungs: shown, never judged.

Exit status is non-zero when any row is WORSE or DIFFERS, when either
report has failed operations, or when the reports do not cover the same
workloads.  Reports from different seeds have different inputs: exact
rows are then judged by the BENCHMARK.json bound (or shown as info).
"""

from __future__ import annotations

import json

#: Per-layer metrics read from counters of the deterministic window.
EXACT_COUNTERS = frozenset((
    "zns.cmds_per_bio", "zns.zone_mgmt_cmds", "block.sim_cmd_latency_us",
    "raizn.dev_bytes_per_user_byte", "raizn.md_bytes_per_user_byte",
    "raizn.mdzone_gc_cycles", "raizn.read_dev_bytes_per_user_byte",
    "raizn.write_sim_p999_us", "raizn.read_sim_p999_us",
    "raizn.degraded_read_sim_mib_per_s", "raizn.rebuild_sim_mib_per_s",
    "mdraid.dev_bytes_per_user_byte", "conv.gc_pages_moved",
    "conv.write_amp", "paper.raizn_over_mdraid_sim_tput",
    "paper.raizn_over_mdraid_sim_p999",
))


def _worse_by(a: float, b: float, better: str) -> float:
    """Share of A by which B is worse (negative when B is better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (a - b) / a if better == "higher" else (b - a) / a


def _rows(name: str, a: dict, b: dict, spec: dict, same_seed: bool):
    noise = {
        "host_mib_per_s": max(
            r["per_layer"].get("bench.round_iqr_pct", 0.0) / 100.0
            for r in (a, b)),
        "setup_s": max(
            (max(times) - min(times)) / r["end_to_end"]["setup_s"]
            for r in (a, b) for times in [r["info"]["setup_s_all"]]),
    }
    for entry in spec["end_to_end"]:
        metric = entry["name"]
        va, vb = a["end_to_end"][metric], b["end_to_end"][metric]
        worse = _worse_by(va, vb, entry["better"])
        if metric.startswith("sim_") and same_seed:
            verdict = "same" if va == vb else "DIFFERS"
        elif noise.get(metric, 0.0) > entry["bound"]:
            verdict = "unresolved"
        elif worse > entry["bound"]:
            verdict = "WORSE"
        else:
            verdict = "ok"
        yield metric, entry["unit"], va, vb, verdict
    for entry in spec["per_layer"]:
        metric = entry["name"]
        va, vb = a["per_layer"].get(metric), b["per_layer"].get(metric)
        if va is None or vb is None:
            continue
        if metric in EXACT_COUNTERS and same_seed:
            verdict = "same" if va == vb else "DIFFERS"
        else:
            verdict = "info"
        yield metric, entry["unit"], va, vb, verdict
    share_a, share_b = a["failed_op_share"], b["failed_op_share"]
    yield ("failed_op_share", "share", share_a, share_b,
           "same" if share_a == share_b == 0 else "DIFFERS")
    for key in ("setup_digest", "window_digest"):
        if same_seed:
            yield (key, "sha256", a["info"][key][:12], b["info"][key][:12],
                   "same" if a["info"][key] == b["info"][key] else "DIFFERS")


def main(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as handle:
        report_a = json.load(handle)
    with open(path_b) as handle:
        report_b = json.load(handle)
    same_seed = report_a["seed"] == report_b["seed"]
    print(f"base A = {path_a} (seed {report_a['seed']})   "
          f"candidate B = {path_b} (seed {report_b['seed']})")
    if not same_seed:
        print("seeds differ: simulated metrics judged by bound, "
              "counters shown as info")
    bad = 0
    names_a, names_b = set(report_a["workloads"]), set(report_b["workloads"])
    if names_a != names_b:
        print(f"workloads differ: only in A {sorted(names_a - names_b)}, "
              f"only in B {sorted(names_b - names_a)}")
        bad += 1
    print(f"{'workload':18s} {'metric':38s} {'A (base)':>16s} {'B':>16s} "
          f"{'B/A':>9s}  verdict")
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in names_a or name not in names_b:
            continue
        for metric, unit, va, vb, verdict in _rows(
                name, report_a["workloads"][name],
                report_b["workloads"][name], spec, same_seed):
            if isinstance(va, str):
                cells = f"{va:>16s} {vb:>16s} {'':>9s}"
            else:
                ratio = f"{vb / va:9.4f}" if va else f"{'-':>9s}"
                cells = f"{va:16.6g} {vb:16.6g} {ratio}"
            print(f"{name:18s} {metric:38s} {cells}  {verdict} [{unit}]")
            bad += verdict in ("WORSE", "DIFFERS")
    print(f"{bad} disagreement(s)" if bad else "reports agree")
    return 1 if bad else 0
