"""Pool-poisoning audit mode (stripe-buffer recycling contract).

Recycled stripe-buffer backing arrays are reused WITHOUT re-zeroing;
every accessor must bound itself by ``fill_end``.  Poison mode fills
released arrays with 0xA5 so a stale read produces loud garbage instead
of coincidental zeroes.  These tests check the mechanics of the mode
itself plus the contract it audits: a buffer built on a poisoned pooled
array is observationally identical to a fresh zero-backed one.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.raizn import stripebuf
from repro.raizn.config import RaiznConfig
from repro.raizn.stripebuf import StripeBuffer, enable_pool_poisoning
from repro.raizn.volume import RaiznVolume
from repro.sim import Simulator

from conftest import make_zns_devices


def pool_poisoning_enabled() -> bool:
    """The process-wide poisoning switch, as the stripe buffers read it."""
    return stripebuf._poison


@pytest.fixture
def poison():
    """Enable poisoning for the test, restoring the prior global state."""
    prior = pool_poisoning_enabled()
    enable_pool_poisoning(True)
    # Drain the free-array pool so entries poisoned (or not) by earlier
    # tests cannot leak into this one.
    stripebuf._free_arrays.clear()
    yield
    enable_pool_poisoning(prior)
    stripebuf._free_arrays.clear()


def _drain_pool():
    stripebuf._free_arrays.clear()


class TestPoisonMechanics:
    def test_recycle_poisons_pooled_array(self, poison):
        buffer = StripeBuffer(0, 0, num_data=2, su=16)
        buffer.absorb(0, b"x" * 32)
        data = buffer.data
        buffer.recycle()
        assert bytes(data) == b"\xa5" * 32

    def test_recycle_without_poison_leaves_bytes(self):
        prior = pool_poisoning_enabled()
        enable_pool_poisoning(False)
        _drain_pool()
        try:
            buffer = StripeBuffer(0, 0, num_data=2, su=16)
            buffer.absorb(0, b"x" * 32)
            data = buffer.data
            buffer.recycle()
            assert bytes(data) == b"x" * 32
        finally:
            enable_pool_poisoning(prior)
            _drain_pool()

    def test_reacquired_buffer_reuses_poisoned_array(self, poison):
        StripeBuffer(0, 0, num_data=2, su=16).recycle()
        buffer = StripeBuffer(0, 1, num_data=2, su=16)
        # The backing array is the recycled, poisoned one...
        assert bytes(buffer.data) == b"\xa5" * 32
        # ...but no accessor may observe the poison.
        assert buffer.fill_end == 0
        assert buffer.full_parity() == bytes(16)
        assert buffer.data_unit(0) == bytes(16)
        assert buffer.data_unit(1) == bytes(16)

    def test_partial_fill_accessors_ignore_poison(self, poison):
        StripeBuffer(0, 0, num_data=2, su=16).recycle()
        buffer = StripeBuffer(0, 1, num_data=2, su=16)
        buffer.absorb(0, b"\x0f" * 20)  # one full SU + a 4-byte tail
        parity = buffer.full_parity()
        assert parity == bytes(a ^ b for a, b in zip(
            b"\x0f" * 16, b"\x0f" * 4 + bytes(12)))
        assert buffer.data_unit(0) == b"\x0f" * 16
        assert buffer.data_unit(1) == b"\x0f" * 4 + bytes(12)

    @pytest.mark.parametrize("value, enabled", [("1", True), ("0", False),
                                                ("", False)])
    def test_env_var_enables_poisoning(self, value, enabled):
        """``REPRO_POISON_POOLS`` is read once, at import."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, REPRO_POISON_POOLS=value, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.raizn import stripebuf; print(stripebuf._poison)"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip() == str(enabled)

    def test_config_default_leaves_poisoning_alone(self):
        prior = pool_poisoning_enabled()
        enable_pool_poisoning(False)
        try:
            sim = Simulator()
            devices = make_zns_devices(sim)
            config = RaiznConfig(num_data=len(devices) - 1)
            RaiznVolume.create(sim, devices, config)
            assert not pool_poisoning_enabled()
        finally:
            enable_pool_poisoning(prior)
            _drain_pool()


@settings(max_examples=60, deadline=None)
@given(
    num_data=st.integers(min_value=2, max_value=4),
    su=st.integers(min_value=4, max_value=48),
    data=st.data(),
)
def test_pooled_poisoned_buffer_matches_fresh(num_data, su, data):
    """Property (satellite of the audit): a buffer whose backing array
    came back poisoned from the pool produces byte-identical
    ``full_parity``/``data_unit``/``delta_parity`` outputs to a fresh
    zero-backed buffer absorbing the same chunks."""
    width = num_data * su
    fill = data.draw(st.integers(min_value=0, max_value=width))
    payload = data.draw(st.binary(min_size=fill, max_size=fill))
    # Split the payload into sequential chunks.
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=fill), max_size=4)))
    bounds = [0] + cuts + [fill]
    chunks = [payload[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]

    prior = pool_poisoning_enabled()
    enable_pool_poisoning(True)
    stripebuf._free_arrays.clear()
    try:
        # Fresh buffer: empty pool forces a brand-new zeroed bytearray.
        fresh = StripeBuffer(0, 0, num_data=num_data, su=su)
        for chunk in chunks:
            fresh.absorb(fresh.fill_end, chunk)

        # Pooled buffer: recycle a dummy first so the backing array comes
        # back from the pool fully poisoned.
        StripeBuffer(0, 1, num_data=num_data, su=su).recycle()
        pooled = StripeBuffer(0, 2, num_data=num_data, su=su)
        assert bytes(pooled.data) == b"\xa5" * width
        for chunk in chunks:
            pooled.absorb(pooled.fill_end, chunk)

        assert pooled.fill_end == fresh.fill_end == fill
        assert pooled.full_parity() == fresh.full_parity()
        for i in range(num_data):
            assert pooled.data_unit(i) == fresh.data_unit(i)
        offset = 0
        for chunk in chunks:
            lo_f, delta_f = StripeBuffer.delta_parity(offset, chunk, su)
            lo_p, delta_p = StripeBuffer.delta_parity(offset, chunk, su)
            assert lo_f == lo_p
            assert bytes(delta_f) == bytes(delta_p)
            offset += len(chunk)
    finally:
        enable_pool_poisoning(prior)
        stripebuf._free_arrays.clear()
