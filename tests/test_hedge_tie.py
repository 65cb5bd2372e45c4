"""Hedge-race accounting: the winner of the race is exclusive.

When a hedged reconstruction and the straggling primary read complete
in the same simulated tick, the hedge already owns the serve and its
win counters; charging the primary's completion to the latency EWMA as
well would double-count one event and skew the slow-score.  A genuine
straggler — completing in a *later* tick — must still feed the score.
"""

import pytest

from repro.block import Bio
from repro.raizn import volume as volume_module
from repro.raizn.config import RaiznConfig
from repro.raizn.readpath import _Piece, _ReadJoin
from repro.raizn.volume import RaiznVolume, _LatencyEwma
from repro.sim import Event, Simulator

from conftest import TEST_STRIPE_UNIT, make_zns_devices


@pytest.fixture
def failslow_volume(sim):
    devices = make_zns_devices(sim)
    config = RaiznConfig(num_data=len(devices) - 1,
                         stripe_unit_bytes=TEST_STRIPE_UNIT,
                         failslow_protection=True)
    return RaiznVolume.create(sim, devices, config)


def _hedged_piece(sim: Simulator, volume: RaiznVolume, length: int = 4096):
    """The only piece of a logical read, hedged, its first attempt in
    flight (the fan-out's own hold on the join already released)."""
    join = _ReadJoin(volume, Bio.read(0, length), Event(sim))
    piece = _Piece(join, 0, 0, 0, length, volume.zone_descs[0], -1)
    piece.hedged = True
    join.pending -= 1
    return piece


def _attempt_completion(sim: Simulator, volume: RaiznVolume, piece):
    """Drive ``_read_attempted`` directly with a crafted completion."""
    bio = Bio.read(piece.pba, piece.length)
    bio.errors_as_status = True
    bio.wctx = piece
    bio.submit_time = sim.now - 0.004  # the primary took 4 ms
    bio.result = b"\xab" * piece.length
    volume.readpath._read_attempted(bio)
    return piece.join.chunks, piece.join.done


class TestHedgeTie:
    def test_tied_primary_not_charged(self, sim, failslow_volume):
        """Same-tick completion: the hedge won, the primary's sample is
        dropped and the already-served outcome is left alone."""
        piece = _hedged_piece(sim, failslow_volume)
        piece.served_at = sim.now  # reconstruction served this tick
        health = failslow_volume.device_health[0]
        before = health.read.samples
        chunks, done = _attempt_completion(sim, failslow_volume, piece)
        assert health.read.samples == before
        assert chunks == [None]  # hedge delivered the piece, not us
        assert not done.triggered

    def test_late_straggler_still_charged(self, sim, failslow_volume):
        """The primary limped in a tick after the hedge served: that is
        exactly the signal the health score exists for."""
        piece = _hedged_piece(sim, failslow_volume)
        piece.served_at = sim.now - 1e-3  # hedge won a full tick earlier
        health = failslow_volume.device_health[0]
        before = health.read.samples
        chunks, done = _attempt_completion(sim, failslow_volume, piece)
        assert health.read.samples == before + 1
        assert chunks == [None]
        assert not done.triggered

    def test_unhedged_completion_serves_and_charges(self, sim,
                                                    failslow_volume):
        piece = _hedged_piece(sim, failslow_volume)
        piece.hedged = False
        health = failslow_volume.device_health[0]
        before = health.read.samples
        chunks, done = _attempt_completion(sim, failslow_volume, piece)
        assert health.read.samples == before + 1
        assert chunks[0] == b"\xab" * 4096
        assert done.triggered and done.ok
        assert done.value.result == b"\xab" * 4096

    def test_hedge_state_starts_unserved(self, sim, failslow_volume):
        join = _ReadJoin(failslow_volume, Bio.read(0, 4096), Event(sim))
        piece = _Piece(join, 0, 0, 0, 4096, failslow_volume.zone_descs[0], -1)
        assert not piece.hedged
        assert piece.served_at is None


class TestLatencyEwma:
    def test_no_threshold_before_min_samples(self):
        ewma = _LatencyEwma()
        for _ in range(volume_module.HEDGE_MIN_SAMPLES):
            assert ewma.threshold() is None
            ewma.observe(1e-3)
        # A steady 1 ms device has no deviation: the multiplier sets it.
        multiplier = volume_module.HEDGE_LATENCY_MULTIPLIER
        assert ewma.threshold() == 1e-3 * multiplier

    def test_every_sample_counted_even_outliers(self, monkeypatch):
        """`samples` counts observations, not just healthy ones — the
        tie fix relies on dropped ties being the *only* uncounted
        completions."""
        monkeypatch.setattr(volume_module, "HEDGE_MIN_SAMPLES", 2)
        ewma = _LatencyEwma()
        for _ in range(8):
            ewma.observe(1e-3)
        assert ewma.observe(1.0)  # a gross outlier
        assert ewma.samples == 9
        assert ewma.mean < 2e-3  # outlier excluded from the mean
