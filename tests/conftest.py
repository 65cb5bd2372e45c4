"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.raizn.config import RaiznConfig
from repro.raizn.volume import RaiznVolume
from repro.sim import Simulator
from repro.units import KiB, MiB
from repro.zns.device import ZNSDevice

#: Small but structurally interesting geometry used across tests:
#: 5 devices, D=4 + P=1, 1 MiB zones => 4 MiB logical zones, 16 stripes
#: per zone at the 64 KiB stripe unit.
TEST_NUM_DEVICES = 5
TEST_NUM_ZONES = 12
TEST_ZONE_CAPACITY = 1 * MiB
TEST_STRIPE_UNIT = 64 * KiB


def make_zns_devices(sim: Simulator, n: int = TEST_NUM_DEVICES,
                     num_zones: int = TEST_NUM_ZONES,
                     zone_capacity: int = TEST_ZONE_CAPACITY,
                     seed: int = 0):
    """A uniform batch of simulated ZNS devices."""
    return [ZNSDevice(sim, name=f"zns{i}", num_zones=num_zones,
                      zone_capacity=zone_capacity, seed=seed + i)
            for i in range(n)]


def make_volume(sim: Simulator, **kwargs):
    """A freshly formatted RAIZN volume plus its devices."""
    devices = make_zns_devices(sim, **kwargs)
    config = RaiznConfig(num_data=len(devices) - 1,
                         stripe_unit_bytes=TEST_STRIPE_UNIT)
    volume = RaiznVolume.create(sim, devices, config)
    return volume, devices


def pattern(length: int, seed: int = 0) -> bytes:
    """Deterministic pseudo-random payload for data-integrity checks."""
    return random.Random(seed).randbytes(length)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def zns(sim) -> ZNSDevice:
    return ZNSDevice(sim, num_zones=8, zone_capacity=1 * MiB)


@pytest.fixture
def volume_and_devices(sim):
    return make_volume(sim)


@pytest.fixture
def volume(volume_and_devices):
    return volume_and_devices[0]


def noting_errors(inner, errors):
    """``yield from inner``, appending to ``errors`` every bio handed
    back with an error status."""
    value, thrown = None, None
    while True:
        try:
            event = inner.send(value) if thrown is None else \
                inner.throw(thrown)
        except StopIteration as stop:
            return stop.value
        try:
            value, thrown = (yield event), None
        except Exception as exc:
            value, thrown = None, exc
        else:
            if getattr(value, "error", None) is not None:
                errors.append(value.error)


def record_reconstructions(monkeypatch):
    """(degraded mount, predicted reach, bytes returned) of every
    ``_ZoneContent._reconstruct_su`` call that heard no error status,
    from now until ``monkeypatch`` is undone."""
    from repro.raizn.recovery import _ZoneContent

    calls = []
    original = _ZoneContent._reconstruct_su

    def checked(self, stripe, layout, su_index):
        reach = self._rebuild_reach(stripe, layout, su_index)[0]
        errors = []
        rebuilt = yield from noting_errors(
            original(self, stripe, layout, su_index), errors)
        if not errors:
            calls.append((self._missing_device() is not None, reach,
                          len(rebuilt)))
        return rebuilt

    monkeypatch.setattr(_ZoneContent, "_reconstruct_su", checked)
    return calls


@pytest.fixture(scope="session")
def soak_seed12():
    """Quick soak seed 12, run once: ``(report, reconstructions)`` with
    the reconstructions recorded by :func:`record_reconstructions`."""
    from repro.harness.soaktest import run_soaktest

    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = record_reconstructions(monkeypatch)
        report = run_soaktest(seed=12, quick=True)
    return report, calls
