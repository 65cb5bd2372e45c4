"""Stripe buffers: in-memory caches of partially written stripes (§5.1).

A stripe buffer lets RAIZN recompute parity for a growing stripe without
reading the devices.  The paper pre-allocates 8 per open logical zone and
blocks write processing when all are occupied; here a zone's writes are
accepted one at a time at its write pointer, so only its tail stripe is
ever incomplete and each zone holds at most one buffer
(``LogicalZoneDesc.tail``).  Nothing ever waits for a buffer.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

from ..errors import RaiznError
from .parity import full_stripe_parity, xor_into

#: Recycled stripe-width backing arrays, keyed by width.  Zeroing a fresh
#: multi-hundred-KiB bytearray per stripe dominated buffer cost, so arrays
#: are reused WITHOUT re-zeroing: every read of a buffer (``full_parity``,
#: ``data_unit``, and the volume's tail-stripe read paths, which only
#: serve written LBAs) is bounded by ``fill_end``, so stale bytes past the
#: fill can never be observed.  Process-wide on purpose — arrays carry no
#: identity beyond their size.
_free_arrays: Dict[int, List[bytearray]] = {}
_FREE_ARRAYS_MAX = 64

#: Pool poisoning (the audit mode for the no-re-zeroing contract above):
#: when enabled, every array is filled with 0xA5 as it returns to the
#: pool, so any accessor that reads past ``fill_end`` of a recycled
#: buffer produces loud garbage instead of silently-zero bytes that
#: happen to match the §5.1 zero-padding rule.  Enabled process-wide via
#: the ``REPRO_POISON_POOLS`` environment variable or
#: :func:`enable_pool_poisoning`.
_POISON_BYTE = 0xA5
_poison = os.environ.get("REPRO_POISON_POOLS", "") not in ("", "0")


def enable_pool_poisoning(enabled: bool = True) -> None:
    """Turn 0xA5 poisoning of recycled arrays on (or off) process-wide."""
    global _poison
    _poison = enabled


class StripeBuffer:
    """Data of one in-flight stripe, filled strictly left to right.

    Bytes at and past ``fill_end`` are unspecified (the backing array is
    pooled); every accessor treats them as zeroes, preserving the §5.1
    zero-padding rule.
    """

    __slots__ = ("zone", "stripe", "num_data", "su", "width", "data",
                 "fill_end")

    def __init__(self, zone: int, stripe: int, num_data: int, su: int):
        self.zone = zone
        self.stripe = stripe
        self.num_data = num_data
        self.su = su
        #: Data bytes per stripe.
        self.width = num_data * su
        free = _free_arrays.get(num_data * su)
        self.data = free.pop() if free else bytearray(num_data * su)
        #: Bytes filled from the start of the stripe (writes are sequential).
        self.fill_end = 0

    def recycle(self) -> None:
        """Return the backing array to the pool; the buffer dies here."""
        data = self.data
        free = _free_arrays.setdefault(len(data), [])
        if len(free) < _FREE_ARRAYS_MAX:
            if _poison:
                # Audit mode: fill the released array with 0xA5 so stale
                # reads of the next owner are unmistakable.
                data[:] = bytes([_POISON_BYTE]) * len(data)
            free.append(data)
        self.data = b""

    @property
    def full(self) -> bool:
        return self.fill_end == self.width

    def absorb(self, offset: int, chunk: bytes) -> None:
        """Copy ``chunk`` at stripe-relative ``offset`` into the buffer."""
        if offset != self.fill_end:
            raise RaiznError(
                f"non-sequential stripe fill: offset {offset} != fill "
                f"end {self.fill_end} (zone {self.zone} stripe {self.stripe})")
        end = offset + len(chunk)
        if end > self.width:
            raise RaiznError("stripe buffer overflow")
        # A view: a bytearray slice store copies a non-bytearray source.
        memoryview(self.data)[offset:end] = chunk
        self.fill_end = end

    def full_parity(self) -> bytes:
        """Parity SU over the (zero-padded) current contents."""
        su = self.su
        fill_end = self.fill_end
        if fill_end == self.num_data * su:
            return full_stripe_parity(self.data, self.num_data)
        # Partial stripe: only bytes below the fill end exist; the pooled
        # backing array is NOT zeroed past it, so fold exactly the filled
        # units and the tail fragment into a zero accumulator.
        view = np.frombuffer(self.data, dtype=np.uint8)
        full_units = fill_end // su
        if full_units:
            acc = np.bitwise_xor.reduce(
                view[:full_units * su].reshape(full_units, su), axis=0)
        else:
            acc = np.zeros(su, dtype=np.uint8)
        tail = fill_end - full_units * su
        if tail:
            acc[:tail] ^= view[full_units * su:fill_end]
        return acc.tobytes()

    def data_unit(self, su_index: int) -> bytes:
        """Contents of data SU ``su_index`` (zero-padded past the fill end)."""
        su = self.su
        start = su_index * su
        fill_end = self.fill_end
        if start + su <= fill_end:
            return bytes(self.data[start:start + su])
        if start >= fill_end:
            return bytes(su)
        return bytes(self.data[start:fill_end]) + bytes(start + su - fill_end)

    @staticmethod
    def delta_parity(offset: int, chunk: bytes, su: int) -> Tuple[int, bytes]:
        """Parity contribution of one chunk, as ``(parity_offset, delta)``.

        The chunk occupies stripe-relative ``[offset, offset+len)`` and may
        span stripe units; its contribution folds each covered unit into
        SU-relative parity positions.  The returned delta is trimmed to the
        affected interval, minimizing the log footprint ("RAIZN only logs
        the subset of parity that is affected by the write", §5.1).

        The delta may be any readable buffer: the single-unit fast path
        returns ``chunk`` itself (often a memoryview slice of the logical
        bio's payload), borrowed with the same no-mutation-while-in-flight
        contract as :meth:`Bio.write`.
        """
        if not chunk:
            raise RaiznError("empty chunk has no parity contribution")
        in_su = offset % su
        if in_su + len(chunk) <= su:
            # The common case: the chunk sits inside one stripe unit, so
            # its parity contribution is the chunk itself — no copy and no
            # SU-sized accumulator to XOR against zeroes.
            return in_su, chunk
        acc = bytearray(su)
        lo, hi = su, 0
        position = 0
        while position < len(chunk):
            in_su = (offset + position) % su
            take = min(len(chunk) - position, su - in_su)
            xor_into(acc, chunk[position:position + take], in_su)
            lo = min(lo, in_su)
            hi = max(hi, in_su + take)
            position += take
        return lo, bytes(acc[lo:hi])

