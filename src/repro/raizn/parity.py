"""XOR parity arithmetic over real byte buffers.

All parity in RAIZN is single-parity XOR (RAID-5 style).  numpy is used so
the 64 KiB stripe-unit XORs that dominate the write path stay cheap in the
simulator.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np


def xor_into(accumulator: bytearray, data: bytes, offset: int = 0) -> None:
    """``accumulator[offset:offset+len(data)] ^= data`` in place."""
    end = offset + len(data)
    if end > len(accumulator):
        raise ValueError(
            f"xor range [{offset}, {end}) exceeds buffer of {len(accumulator)}")
    acc_view = np.frombuffer(accumulator, dtype=np.uint8, count=len(data),
                             offset=offset)
    src = np.frombuffer(data, dtype=np.uint8)
    np.bitwise_xor(acc_view, src, out=acc_view)


def xor_buffers(buffers: Sequence[bytes]) -> bytes:
    """XOR of equal-length buffers; with one buffer, a copy of it."""
    if not buffers:
        raise ValueError("xor_buffers requires at least one buffer")
    length = len(buffers[0])
    for buf in buffers:
        if len(buf) != length:
            raise ValueError("xor_buffers requires equal-length buffers")
    if len(buffers) == 1:
        # bytes(b) returns b itself for a bytes instance; force the
        # documented copy so callers may mutate their input afterwards.
        return bytes(memoryview(buffers[0]))
    # One vectorized reduction over a (n, length) view instead of n-1
    # pairwise passes: a single C loop touches every source byte once.
    stack = np.empty((len(buffers), length), dtype=np.uint8)
    for i, buf in enumerate(buffers):
        stack[i] = np.frombuffer(buf, dtype=np.uint8)
    return np.bitwise_xor.reduce(stack, axis=0).tobytes()


def full_stripe_parity(stripe, num_units: int) -> bytes:
    """Parity of a whole stripe held in one buffer: one reduction over it
    seen as ``(num_units, unit)``, with no copy of the units."""
    units = np.frombuffer(stripe, dtype=np.uint8).reshape(num_units, -1)
    return np.bitwise_xor.reduce(units, axis=0).tobytes()


def stripe_parity(data_units: Iterable[bytes], unit_size: int) -> bytes:
    """Full parity stripe unit for a stripe's data units.

    Units shorter than ``unit_size`` are zero-padded — the rule §5.1 uses
    when computing parity for stripes whose tail is unwritten ("data after
    this address is treated as zeroes").
    """
    units = list(data_units)
    for unit in units:
        if len(unit) > unit_size:
            raise ValueError("data unit longer than the stripe unit size")
    # Zero-pad into one (n, unit_size) matrix and reduce in a single
    # vectorized pass; rows default to zeroes, which IS the padding rule.
    stack = np.zeros((max(len(units), 1), unit_size), dtype=np.uint8)
    for i, unit in enumerate(units):
        if unit:
            stack[i, :len(unit)] = np.frombuffer(unit, dtype=np.uint8)
    return np.bitwise_xor.reduce(stack, axis=0).tobytes()


def fold(accumulator: Optional[np.ndarray], data, into=None) -> np.ndarray:
    """XOR ``data`` into ``accumulator`` in place and return it; the first
    fold (``accumulator`` None) copies ``data``, into the writable buffer
    ``into`` of its length if one is given.  A fold reads ``data`` once,
    so a device read's view need not outlive its completion."""
    source = np.frombuffer(data, dtype=np.uint8)
    if accumulator is None:
        if into is None:
            return source.copy()
        accumulator = np.frombuffer(into, dtype=np.uint8)
        accumulator[:] = source
        return accumulator
    return np.bitwise_xor(accumulator, source, out=accumulator)
