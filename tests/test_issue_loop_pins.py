"""Exact outputs of the windowed issue loops behind fio and the overwrite benchmark.

``run_fio`` (paper §6.1's jobs × iodepth) and ``run_overwrite`` (Fig 10)
each keep ``iodepth`` bios in flight and drain.  Their tests elsewhere
check shapes (bytes moved, a positive phase-2 start); these pin the
numbers themselves at a small fixed-seed scale, so a change to how the
window is kept — which slot a completion frees, when a zone reset is
ordered behind the writes before it — shows as a moved value:

* ``run_fio``: a two-job sequential write and a two-job random read, each
  as ``(total_bytes, elapsed, latency count, latency p999)``;
* ``run_overwrite``: RAIZN (zoned: every logical zone reset before its
  phase-2 rewrite) and mdraid (unzoned, conventional-SSD GC live), each as
  the exact ``phase2_start`` and a SHA-256 over ``repr`` of
  ``(phase2_start, series.series(), latency_series)``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.harness.arrays import ArrayScale, make_mdraid, make_raizn
from repro.sim import Simulator
from repro.units import KiB, MiB
from repro.workloads import FioJobSpec, prime_volume, run_fio, run_overwrite

SCALE = ArrayScale(num_zones=8, zone_capacity=1 * MiB)

FIO_PINS = {
    "write": (4194304, 0.002196035287166363, 64, 0.0005661186156340924),
    "randread": (2097152, 0.00038932084029266604, 128,
                 0.00020108203890142537),
}

OVERWRITE_PINS = {
    "raizn": (0.007316265828269681, 47, 35,
              "5724c5b7846d6596a4ea75b1759590a4"
              "ad3c16f166f658350e494a3c02664a1f"),
    "mdraid": (0.004995634299036644, 113, 56,
               "7ef987687eed61f51511cc4b5fff93e1"
               "a1a71cd3f6d90418d505a8001c5f8c3f"),
}


def fio_outcome(rw: str):
    sim = Simulator()
    volume, _devices = make_raizn(sim, SCALE, seed=5)
    if rw == "write":
        spec = FioJobSpec(rw="write", block_size=64 * KiB, iodepth=8,
                          numjobs=2, size_per_job=2 * MiB,
                          align=volume.zone_capacity, seed=5)
    else:
        prime_volume(sim, volume, 4 * MiB)
        spec = FioJobSpec(rw="randread", block_size=16 * KiB, iodepth=32,
                          numjobs=2, size_per_job=1 * MiB,
                          region=(0, 4 * MiB), seed=5)
    result = run_fio(sim, volume, spec)
    return (result.total_bytes, result.elapsed, result.latency.count,
            result.latency.p999)


def overwrite_outcome(system: str):
    sim = Simulator()
    if system == "raizn":
        volume, _devices = make_raizn(sim, SCALE, seed=3)
    else:
        volume, _devices = make_mdraid(sim, SCALE, seed=3)
    result = run_overwrite(sim, volume, block_size=128 * KiB, iodepth=8,
                           threads=5, zoned=system == "raizn", seed=3,
                           bucket_seconds=0.0005)
    series = result.series.series()
    digest = hashlib.sha256(repr(
        (result.phase2_start, series, result.latency_series)).encode())
    return (result.phase2_start, len(series), len(result.latency_series),
            digest.hexdigest())


@pytest.mark.parametrize("rw", sorted(FIO_PINS))
def test_fio_outcome_is_pinned(rw):
    assert fio_outcome(rw) == FIO_PINS[rw]


@pytest.mark.parametrize("system", sorted(OVERWRITE_PINS))
def test_overwrite_outcome_is_pinned(system):
    assert overwrite_outcome(system) == OVERWRITE_PINS[system]
