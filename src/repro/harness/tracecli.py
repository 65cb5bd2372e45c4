"""``python -m repro trace``: run a traced workload, report, and dump.

Runs a mixed workload (sequential writes, FUA commits with flushes, a
read-back pass) on an array with ``RaiznConfig.tracing`` enabled, then:

* prints the per-layer time-attribution report (text flamegraph);
* verifies the per-device span totals reconcile with the
  :class:`~repro.trace.MetricsRegistry` counters (exit status 1 if any
  device drifts past the 1% tolerance);
* dumps the span ring buffer as JSON Lines for external tooling.

The span dump schema (one JSON object per line)::

    {"id": 17, "parent": 12, "layer": "zns", "name": "write",
     "device": "zns2", "start": 0.001020, "mark": 0.001020,
     "end": 0.001364, "bytes": 65536}

``parent`` links a sub-span to the logical bio's root ``volume`` span
when the fan-out was synchronous; ``mark`` is the channel-grant instant
of device spans (``start→mark`` is queue wait, ``mark→end`` service).
Times are simulated seconds.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..block.bio import Bio, BioFlags
from ..raizn.volume import RaiznVolume
from ..sim import Simulator
from ..trace import MetricsRegistry, format_trace_report, reconcile
from ..units import KiB, MiB
from ..zns.device import ZNSDevice
from .arrays import ArrayScale, make_raizn
from .perfbench import _drive, _payload

#: Pinned array UUID: trace runs are deterministic per seed.
TRACE_UUID = bytes(reversed(range(16)))


def _build(seed: int, quick: bool) -> Tuple[Simulator, RaiznVolume,
                                            List[ZNSDevice]]:
    scale = ArrayScale(num_zones=8 if quick else 16,
                       zone_capacity=(1 if quick else 2) * MiB)
    sim = Simulator()
    volume, devices = make_raizn(sim, scale, seed, array_uuid=TRACE_UUID,
                                 tracing=True)
    return sim, volume, devices


def _workload(volume: RaiznVolume, seed: int, quick: bool) -> List[Bio]:
    """Sequential writes + FUA commits with flushes + a read-back pass."""
    bios: List[Bio] = []
    zones = 2 if quick else 4
    block = 64 * KiB
    data = _payload(block, seed)
    for zone in range(zones):
        start = zone * volume.zone_capacity
        for off in range(0, volume.zone_capacity // 2, block):
            bios.append(Bio.write(start + off, data))
    commit = _payload(4 * KiB, seed + 1)
    cursor = zones * volume.zone_capacity
    for step in range(32 if quick else 128):
        bios.append(Bio.write(cursor, commit,
                              BioFlags.FUA | BioFlags.PREFLUSH))
        cursor += len(commit)
        if (step + 1) % 16 == 0:
            bios.append(Bio.flush())
    for zone in range(zones):
        start = zone * volume.zone_capacity
        for off in range(0, volume.zone_capacity // 2, block):
            bios.append(Bio.read(start + off, block))
    return bios


def run_trace(quick: bool = False, seed: int = 0,
              out: str = "trace_spans.jsonl") -> int:
    """Entry point for ``python -m repro trace``; returns exit status."""
    sim, volume, devices = _build(seed, quick)
    bios = _workload(volume, seed, quick)
    moved = _drive(sim, volume, bios, iodepth=32)
    registry = MetricsRegistry.for_volume(volume)
    sink = volume.tracer.sink
    print(f"workload: {len(bios)} bios, {moved / MiB:.1f} MiB moved, "
          f"{sim.now * 1e3:.3f} ms simulated")
    print(f"device flushes: {volume.writepath.flushes_issued} issued, "
          f"{volume.writepath.flushes_elided} elided; "
          f"{volume.writepath.units_sealed} stripe units sealed by their "
          "FUA write (registry: writepath.flushes_issued / flushes_elided "
          "/ units_sealed)")
    print()
    print(format_trace_report(sink, registry))
    with open(out, "w") as fh:
        written = sink.dump_jsonl(fh)
    print()
    print(f"span dump: {written} spans written to {out}")
    rows = reconcile(sink, registry)
    bad = [row for row in rows if not row.ok]
    if bad:
        print(f"trace FAILED: {len(bad)} device(s) off by more than 1%")
        return 1
    print("trace PASSED: all device span totals reconcile within 1%")
    return 0


def dump_spans(volume: RaiznVolume, path: str) -> int:
    """Dump a traced volume's span ring as JSONL; returns spans written.

    Helper for the harness ``--trace`` flags: no-op (returns 0) when the
    volume was built without tracing.
    """
    if volume.tracer is None:
        return 0
    with open(path, "w") as fh:
        return volume.tracer.sink.dump_jsonl(fh)


def spans_summary(volume: RaiznVolume) -> Dict[str, int]:
    """Small JSON-able summary of a traced volume's sink (for reports)."""
    if volume.tracer is None:
        return {}
    sink = volume.tracer.sink
    return {"recorded": sink.total_recorded, "evicted": sink.evicted}


def main(argv=None) -> int:  # pragma: no cover - thin CLI shim
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="trace_spans.jsonl")
    args = parser.parse_args(argv)
    return run_trace(quick=args.quick, seed=args.seed, out=args.out)


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
