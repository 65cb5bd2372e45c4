#!/usr/bin/env python3
"""The repository benchmark: one command, five workloads, two clocks.

    python bench/run.py                          # every workload, untraced
    python bench/run.py --trace                  # ... plus the traced runs
    python bench/run.py --workload seqwrite --seed 7 --seconds 8 --trace 0
    python bench/run.py --ladder                 # isolated-layer rungs
    python bench/run.py --compare A.json B.json  # do two reports agree?
    python bench/run.py --smoke                  # 1 warm-up + 2 rounds each

With ``--workload`` the process *is* the measurement (fresh interpreter,
one array); it prints every metric by name with its unit and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` each workload runs in its own
subprocess, one after the other.  Names, units, directions and bounds
live in BENCHMARK.json; bench/README.md explains every choice.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import List, NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("bench/run.py: no src/repro next to bench/ — the benchmark "
             "drives the simulator in this checkout and cannot run alone")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro.sim import simulation_gc  # noqa: E402

import ladder  # noqa: E402
from driver import Job  # noqa: E402
from tracer import ROUND, SpanTracer  # noqa: E402
from workloads import MiB, WORKLOADS  # noqa: E402

DEFAULT_SEED = 20230403
WARMUP_ROUNDS = 2
SETUPS = 3

#: Span names of the traced run: one per layer entry point, plus the
#: benchmark's own driver callbacks.
LAYER_SITES = ("sim.run", "zns.submit", "raizn.submit", "raizn.mdappend",
               "mdraid.submit", "conv.submit", "bench.driver")

_clock = time.perf_counter


class MachineSpeed:
    """A fixed reference kernel (interpreter work plus 64 KiB copies, none
    of it repository code), timed right before and after every round.

    This VM's speed drifts by +-12 % over tens of seconds (noisy
    neighbours), which no amount of rounds in one process averages out.
    ``host_mib_per_s`` is therefore the round's wall-clock rate scaled to
    the speed the machine had *during that round*: MiB per second of a
    machine that runs this kernel ``NOMINAL`` times a second.  The raw
    wall-clock rate is reported beside it (``bench.host_mib_per_wall_s``).
    """

    #: Kernel runs per second of this box on a quiet day.
    NOMINAL = 400.0

    def __init__(self) -> None:
        self._src = bytes(64 * 1024)
        self._dst = bytearray(4 * MiB)

    def measure(self) -> float:
        """Kernel runs per second, from one run (about 2.5 ms)."""
        start = _clock()
        acc, table, log = 0, {}, []
        for i in range(12000):
            acc += i
            table[i & 63] = acc
            log.append(i)
            if not i & 15:
                log.clear()
        src, dst = self._src, self._dst
        for _ in range(2):
            for at in range(0, len(dst), len(src)):
                dst[at:at + len(src)] = src
        return 1.0 / (_clock() - start)


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _iqr_pct(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return 100.0 * (q3 - q1) / statistics.median(values)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_us(samples, pct: float) -> float:
    return float(np.percentile(samples, pct)) * 1e6 if len(samples) else 0.0


class PlainRound(NamedTuple):
    """One untraced timed round."""

    index: int
    moved: int          # payload bytes
    wall: float         # host seconds
    cpu: float          # process CPU seconds
    speed: float        # reference-kernel runs per second around the round

    @property
    def wall_rate(self) -> float:
        return self.moved / MiB / self.wall

    @property
    def rate(self) -> float:
        """Wall-clock MiB/s scaled to the machine's nominal speed."""
        return self.wall_rate * MachineSpeed.NOMINAL / self.speed


class Measurement:
    """Everything one workload process observed, before it becomes metrics."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.setup_digests: List[str] = []
        self.plain: List[PlainRound] = []
        self.traced_walls: List[float] = []
        self.timed_rounds = 0
        #: The simulated-clock window (first ``sim_rounds`` timed rounds).
        self.window: dict = {}
        self.recorder = None



def measure(wl, seconds: float, tracer, smoke: bool) -> Measurement:
    """Set up, warm, run the timed rounds, verify."""
    m = Measurement()
    sim_rounds = 2 if smoke else wl.sim_rounds
    warmups = 1 if smoke else WARMUP_ROUNDS

    # Set-up: three times back to back, the third array is the one used.
    for attempt in range(1 if (tracer or smoke) else SETUPS):
        if attempt:
            wl.teardown()
        start = _clock()
        with simulation_gc():
            wl.setup()
        m.setup_s.append(_clock() - start)
        m.setup_digests.append(wl.digest())

    # Warm-up rounds on the same array.
    for r in range(warmups):
        if tracer and r == warmups - 1:
            # The ladder replays this round's device-level stream.
            m.recorder = ladder.record_stream(wl, r)
        else:
            wl.prepare(r)
            with simulation_gc():
                wl.round(r)

    # Timed rounds: at least the window, then until ``seconds`` are over.
    sites = wl.trace_sites() + [("bench.driver", Job, "pump"),
                                ("bench.driver", Job, "done")]
    tally = wl.tally
    tally.read_lat.clear()
    tally.write_lat.clear()
    before, attempted0, sim0 = wl.counters(), tally.attempted, wl.sim.now
    machine = MachineSpeed()
    window_bytes = 0
    deadline = _clock() + seconds
    i, r = 0, warmups
    while i < sim_rounds or (not smoke and _clock() < deadline):
        wl.prepare(r)
        traced = bool(tracer) and i % 2 == 1
        with simulation_gc():
            if traced:
                tracer.install(sites)
                tracer.begin_round()
            else:
                speed = machine.measure()
            cpu0, start = time.process_time(), _clock()
            moved = wl.round(r)
            wall, cpu1 = _clock() - start, time.process_time()
            if traced:
                tracer.end_round()
                tracer.uninstall()
            else:
                speed = (speed + machine.measure()) / 2
        if traced:
            m.traced_walls.append(wall)
        else:
            m.plain.append(PlainRound(r, moved, wall, cpu1 - cpu0, speed))
        i, r = i + 1, r + 1
        if i <= sim_rounds:
            window_bytes += moved
        if i == sim_rounds:
            m.window = {
                "bytes": window_bytes,
                "sim_s": wl.sim.now - sim0,
                "counters": collections.Counter(
                    {key: value - before[key]
                     for key, value in wl.counters().items()}),
                "bios": tally.attempted - attempted0,
                "read_lat": np.array(tally.read_lat),
                "write_lat": np.array(tally.write_lat),
                "rounds": list(range(warmups, r)),
            }
    m.timed_rounds = i

    with simulation_gc():
        wl.verify()
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """One workload, start to finish; returns its full record."""
    wl = WORKLOADS[name](seed)
    tracer = SpanTracer(LAYER_SITES) if trace else None
    m = measure(wl, seconds, tracer, smoke)
    window, tally = m.window, wl.tally

    digests_agree = len(set(m.setup_digests)) == 1
    failed = tally.failed + wl.mismatches + (0 if digests_agree else 1)
    window_digest = hashlib.sha256(
        repr((window["sim_s"], sorted(window["counters"].items()),
              window["bios"])).encode()
        + window["read_lat"].tobytes() + window["write_lat"].tobytes()
    ).hexdigest()

    c = window["counters"]
    lat = np.concatenate([window["read_lat"], window["write_lat"]])
    rates = [p.rate for p in m.plain]
    wall_rates = [p.wall_rate for p in m.plain]
    end_to_end = {
        "host_mib_per_s": statistics.median(rates),
        "sim_mib_per_s": window["bytes"] / MiB / window["sim_s"],
        "sim_p50_us": _percentile_us(lat, 50),
        "sim_p999_us": _percentile_us(lat, 99.9),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(m.setup_s),
    }
    raizn = name != "mdraid_overwrite"
    user_w, user_r = c["user_bytes_written"], c["user_bytes_read"]
    per_layer = {
        "zns.cmds_per_bio": _ratio(c["zns_cmds"], window["bios"]),
        "zns.zone_mgmt_cmds": c["dev_zone_mgmt"],
        "block.sim_cmd_latency_us":
            _ratio(c["dev_io_seconds"], c["dev_cmds"]) * 1e6,
        "raizn.dev_bytes_per_user_byte":
            _ratio(c["dev_bytes_written"], user_w) if raizn else 0.0,
        "raizn.md_bytes_per_user_byte": _ratio(c["md_bytes"], user_w),
        "raizn.mdzone_gc_cycles": c["md_gc_cycles"],
        "raizn.read_dev_bytes_per_user_byte":
            _ratio(c["dev_bytes_read"], user_r) if raizn else 0.0,
        "raizn.write_sim_p999_us":
            _percentile_us(window["write_lat"], 99.9) if raizn else 0.0,
        "raizn.read_sim_p999_us":
            _percentile_us(window["read_lat"], 99.9) if raizn else 0.0,
        "mdraid.dev_bytes_per_user_byte":
            0.0 if raizn else _ratio(c["dev_bytes_written"], user_w),
        "conv.gc_pages_moved": c["ftl_gc_pages"],
        "conv.write_amp": _ratio(c["ftl_host_pages"] + c["ftl_gc_pages"],
                                 c["ftl_host_pages"]),
        # Ratios across two workloads exist only in the all-workload report.
        "paper.raizn_over_mdraid_sim_tput": 0.0,
        "paper.raizn_over_mdraid_sim_p999": 0.0,
        "bench.round_iqr_pct": _iqr_pct(rates),
        "bench.host_mib_per_wall_s": statistics.median(wall_rates),
        "bench.ref_kernel_per_s": statistics.median(p.speed for p in m.plain),
        "bench.host_mib_per_cpu_s": _ratio(
            sum(p.moved for p in m.plain) / MiB,
            sum(p.cpu for p in m.plain)),
    }
    per_layer.update(_phase_metrics(
        wl, [p.index for p in m.plain], window["rounds"]))

    info = {
        "seed": seed, "seconds": seconds, "timed_rounds": m.timed_rounds,
        "sim_rounds": len(window["rounds"]),
        "latency_samples": int(len(lat)),
        "samples_beyond_p999": int(len(lat) // 1000),
        "checked_reads": wl.checked, "mismatches": wl.mismatches,
        "setup_s_all": m.setup_s, "setup_digest": m.setup_digests[0],
        "setup_digests_agree": digests_agree,
        "window_digest": window_digest,
        "round_mib_per_s": rates, "round_mib_per_wall_s": wall_rates,
    }

    if trace:
        per_layer.update(_trace_metrics(
            tracer, m.traced_walls, [p.wall for p in m.plain], info))
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"spans-{name}.npz"))
        rung_s, repeats = (0.01, 1) if smoke else (0.1, 7)
        per_layer.update(ladder.kernel_rungs(seed, rung_s, repeats))
        per_layer["zns.replay_us_per_cmd"] = ladder.replay_us_per_cmd(
            m.recorder, wl.sim, wl.devices, rung_s, repeats)

    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "failed_op_share": failed / tally.attempted,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "info": info,
    }


def _phase_metrics(wl, plain_rounds, window_rounds) -> dict:
    """degraded_rebuild's two phases, each on both clocks (0 elsewhere)."""
    rounds = getattr(wl, "phases", None)
    out = {}
    for phase in ("degraded_read", "rebuild"):
        host, sim = 0.0, 0.0
        if rounds:
            host = statistics.median(
                rounds[r][phase][0] / MiB / rounds[r][phase][1]
                for r in plain_rounds)
            sim = _ratio(sum(rounds[r][phase][0] for r in window_rounds) / MiB,
                         sum(rounds[r][phase][2] for r in window_rounds))
        out[f"raizn.{phase}_host_mib_per_s"] = host
        out[f"raizn.{phase}_sim_mib_per_s"] = sim
    return out


def _trace_metrics(tracer, traced_walls, plain_walls, info) -> dict:
    self_s = tracer.self_seconds()

    round_s = [(tracer.end[i] - tracer.start[i]) / 1e9
               for i in tracer.round_start]
    info["traced_rounds"] = len(round_s)
    info["spans"] = len(tracer.start)
    # Share of each traced round's wall that lies in a named layer or in
    # the driver's callbacks (the rest is round preparation in bench code).
    info["trace_coverage_min"] = min(
        1.0 - own / total for own, total in zip(self_s[ROUND], round_s))
    metrics = {f"{site}_self_s": statistics.median(self_s[site])
               for site in LAYER_SITES}
    metrics["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(traced_walls) / statistics.median(plain_walls)
        - 1.0)
    return metrics


# -- output -------------------------------------------------------------------


def print_record(record: dict, spec: dict, trace: bool) -> None:
    name = record["workload"]
    info = record["info"]
    print(f"== {name}  seed={info['seed']}  rounds={info['timed_rounds']} "
          f"(sim window {info['sim_rounds']})  "
          f"latency samples={info['latency_samples']} "
          f"({info['samples_beyond_p999']} beyond p99.9)")
    groups = [("end_to_end", spec["end_to_end"])]
    if trace:
        groups.append(("per_layer", spec["per_layer"]))
    for group, specs in groups:
        for entry in specs:
            print(f"{name:18s} {entry['name']:40s} "
                  f"{record[group][entry['name']]:16.6f} {entry['unit']}")
    print(f"{name:18s} {'failed_op_share':40s} "
          f"{record['failed_op_share']:16.6f} share "
          f"({record['failed']} of {record['attempted']} attempted)")


def result_line(record: dict, spec: dict, trace: bool) -> str:
    group, specs = ("per_layer", spec["per_layer"]) if trace \
        else ("end_to_end", spec["end_to_end"])
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {entry["name"]: {"value": record[group][entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in specs}})


def run_all(args, spec: dict) -> int:
    """Every workload in its own fresh subprocess, sequentially."""
    os.makedirs(OUT_DIR, exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in names:
        merged = None
        # A smoke run does both kinds of round in one process.
        for trace in [1] if args.smoke else [0, 1] if args.trace else [0]:
            path = os.path.join(OUT_DIR, f"record-{name}-{trace}.json")
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--json", path] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            sys.stdout.flush()
            status = status or done.returncode
            if not os.path.exists(path):
                continue
            with open(path) as handle:
                record = json.load(handle)
            os.remove(path)
            if merged is None:
                merged = record
            else:  # traced run: only its per-layer half is kept
                merged["per_layer"] = record["per_layer"]
                merged["info"]["traced"] = record["info"]
                merged["correct"] &= record["correct"]
                merged["failed"] += record["failed"]
                merged["attempted"] += record["attempted"]
        if merged is not None:
            report["workloads"][name] = merged
    _paper_ratios(report)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    return status


def _paper_ratios(report: dict) -> None:
    """RAIZN / mdraid on the same logical stream (unvalidated: no
    reference run of the paper's hardware is held in this repo)."""
    workloads = report["workloads"]
    raizn, md = workloads.get("seqwrite"), workloads.get("mdraid_overwrite")
    if not raizn or not md:
        return
    ratios = {
        "paper.raizn_over_mdraid_sim_tput":
            raizn["end_to_end"]["sim_mib_per_s"]
            / md["end_to_end"]["sim_mib_per_s"],
        "paper.raizn_over_mdraid_sim_p999":
            raizn["end_to_end"]["sim_p999_us"]
            / md["end_to_end"]["sim_p999_us"],
    }
    for record in (raizn, md):
        record["per_layer"].update(ratios)
    for key, value in ratios.items():
        print(f"{'seqwrite/mdraid':18s} {key:40s} {value:16.6f} ratio")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="timed rounds keep going for this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--smoke", action="store_true",
                        help="1 warm-up + 2 rounds, one set-up, tiny ladder")
    parser.add_argument("--ladder", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(args.compare[0], args.compare[1], spec)
    if args.ladder:
        return ladder.main(args.workload, args.seed)
    if not args.workload:
        return run_all(args, spec)

    trace = bool(args.trace) or args.smoke
    record = run_workload(args.workload, args.seed, args.seconds, trace,
                          args.smoke)
    print_record(record, spec, trace)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    if not record["correct"]:
        print(f"{args.workload}: {record['failed']} failed operations or "
              "digest mismatches", file=sys.stderr)
    print(result_line(record, spec, bool(args.trace)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
