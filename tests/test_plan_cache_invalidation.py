"""Write-plan cache vs array-membership transitions (soak regression).

Cached write plans are pure geometry, but they are consumed under
emit-time availability checks that assume the membership they were built
under.  Every eviction, rebuild start (rejoin), and rebuild completion
must invalidate the cache so no plan crosses a membership epoch.
"""

import pytest

from repro.block import Bio
from repro.faults.devicefail import fresh_replacement
from repro.raizn import RaiznVolume
from repro.raizn.rebuild import rebuild

from conftest import TEST_STRIPE_UNIT, make_volume, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


@pytest.fixture
def invalidations(monkeypatch):
    """Count calls of ``RaiznVolume.invalidate_write_plans``."""
    calls = []
    original = RaiznVolume.invalidate_write_plans

    def counted(volume):
        calls.append(volume)
        original(volume)
    monkeypatch.setattr(RaiznVolume, "invalidate_write_plans", counted)
    return calls


def test_eviction_clears_cached_plans(sim, invalidations):
    volume, devices = make_volume(sim)
    volume.execute(Bio.write(0, pattern(STRIPE, seed=1)))
    assert volume.writepath._plan_cache, "steady-state writes should cache plans"
    before = len(invalidations)
    volume.fail_device(2)
    assert not volume.writepath._plan_cache
    assert len(invalidations) == before + 1


def test_rebuild_rejoin_and_completion_bump_epoch(sim, invalidations):
    volume, devices = make_volume(sim)
    volume.execute(Bio.write(0, pattern(2 * STRIPE, seed=2)))
    volume.execute(Bio.flush())
    volume.fail_device(1)
    before = len(invalidations)
    replacement = fresh_replacement(sim, devices[0], "zns1b", seed=99)
    rebuild(sim, volume, 1, replacement)
    # One transition when the replacement rejoins (rebuilt_zones gating
    # starts), one when the rebuild completes (gating lifted).
    assert len(invalidations) == before + 2
    assert not volume.writepath._plan_cache


def test_mid_workload_eviction_keeps_data_consistent(sim):
    volume, devices = make_volume(sim)
    first = pattern(STRIPE, seed=3)
    volume.execute(Bio.write(0, first))          # caches the zone-0 plan
    volume.fail_device(3)                        # membership transition
    more = pattern(2 * STRIPE, seed=4)
    volume.execute(Bio.write(STRIPE, more))      # same zone, degraded
    assert volume.execute(Bio.read(0, STRIPE)).result == first
    assert volume.execute(Bio.read(STRIPE, len(more))).result == more
