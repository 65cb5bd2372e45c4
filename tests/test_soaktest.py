"""The compound-fault soak campaign: quick run passes, deterministically.

One campaign composes all four fault dimensions (crash/recover cycles,
latent+transient error injection, fail-slow delays, wear/endurance) on a
single array with GC, scrub, and rebuild pressure, and checks the
integrity oracle at every phase boundary.  These tests pin the quick
profile's acceptance bar and its bit-for-bit determinism.
"""

from repro.harness.soaktest import (MECHANISMS, candidate_mechanism_key,
                                    run_soaktest)

from conftest import TEST_STRIPE_UNIT, make_volume


def test_quick_campaign_passes():
    report = run_soaktest(seed=0, quick=True)
    assert report["passed"], report["violations"] or report
    assert report["violations"] == []
    assert report["pruning"]["escapes"] == []
    assert report["pruning"]["ratio"] >= 0.3
    assert report["pruning"]["verified_sample"] > 0
    assert len(report["mechanisms_exercised"]) >= 3
    assert set(report["mechanisms_exercised"]) <= set(MECHANISMS)
    assert report["injected"]["total"] > 0
    assert report["slowed_commands"] > 0
    assert report["crash_cycles"] >= 1


def test_quick_campaign_is_deterministic():
    first = run_soaktest(seed=0, quick=True)
    second = run_soaktest(seed=0, quick=True)
    assert first["campaign_fingerprint"] == second["campaign_fingerprint"]
    assert first["mechanism_signatures"] == second["mechanism_signatures"]
    assert first["pruning"] == second["pruning"]
    assert first["violations"] == second["violations"]


def test_seed_changes_the_campaign():
    base = run_soaktest(seed=0, quick=True)
    other = run_soaktest(seed=1, quick=True)
    assert base["campaign_fingerprint"] != other["campaign_fingerprint"]


def test_key_tells_a_torn_parity_unit_from_a_torn_data_unit(sim):
    """A survivor that ends mid-unit sends the mount down the relocated-
    parity path only when its device holds that unit's parity, so the
    pruner must not let one state stand in for the other."""
    volume, devices = make_volume(sim)
    snaps = [device.crash_snapshot() for device in devices]
    layout = volume.mapper.stripe_layout(0, 0)
    su = TEST_STRIPE_UNIT

    def key(device, survivor):
        spaces = [{} for _ in devices]
        assignment = [{} for _ in devices]
        spaces[device] = {0: [0, survivor, su]}
        assignment[device] = {0: survivor}
        return candidate_mechanism_key(snaps, spaces, assignment,
                                       volume.mapper)

    torn_parity = key(layout.parity_device, su // 2)
    torn_data = key(layout.data_devices[0], su // 2)
    assert torn_parity[-1] and not torn_data[-1]
    assert torn_parity[:-1] == torn_data[:-1]
    assert not key(layout.parity_device, su)[-1]
