"""Systematic crash-state enumeration at bio-completion boundaries.

Random power-cut testing (``power_cycle`` + a seeded RNG) samples one
survivor state per crash instant; bugs that need a *specific* combination
of per-zone durable prefixes stay hidden.  This module instead treats a
crash as two explicit choices:

1. **When** — a bio-completion boundary.  Completions are the instants at
   which the set of acknowledged IOs changes, so crashing "after the k-th
   completion" covers every distinct acked-set the workload can observe.
   :class:`CompletionBoundaries` counts completions array-wide and can
   snapshot the full device state at chosen boundaries without perturbing
   the run (snapshots are pure copies; no events are scheduled).

2. **What survives** — one legal survivor state per dirty zone, drawn
   from :meth:`ZNSDevice.survivor_state_space` (the per-zone durable
   prefixes the ZNS persistence contract admits).  The cross-zone product
   is usually astronomical, so :func:`enumerate_survivor_assignments`
   samples it under a budget while always including the two corners that
   most often break recovery: all-min (only flushed data survives) and
   all-max (the entire write cache survives).

The explorer in :mod:`repro.harness.crashtest` glues these to the
durability oracle in :mod:`repro.faults.oracle`.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..block.bio import Bio
from ..block.device import BlockDevice, remove_hooks
from ..zns.device import ZNSDevice


class CompletionBoundaries:
    """Array-wide completion counter with snapshot and crash triggers.

    Adds a ``completion`` hook to every device.  The hook runs right
    after a bio's completion event fires, so boundary ``k`` means
    "completions 1..k were acknowledged, nothing later was".

    ``snapshot_at`` names boundaries at which to capture a
    :meth:`~repro.zns.device.ZNSDevice.crash_snapshot` of every device
    (the run continues undisturbed — this is how one trace pass collects
    many crash candidates).  ``crash_after`` cuts power on all devices at
    that boundary instead, for direct fault injection.  ``aux_state`` is
    an optional zero-argument callable whose return value is stored next
    to each snapshot — the crash-test harness uses it to freeze the
    workload's expectation model at the same instant.

    ``completion`` hooks run in install order, so arming the counter
    after a :class:`~repro.faults.errinject.FaultPlan` makes a snapshot
    at boundary ``k`` capture the device after every effect of the k-th
    completion, injected faults included.
    """

    def __init__(self, devices: Sequence[BlockDevice],
                 snapshot_at: Iterable[int] = (),
                 crash_after: Optional[int] = None,
                 aux_state=None):
        self.devices = list(devices)
        self.snapshot_at = set(snapshot_at)
        self.crash_after = crash_after
        self.aux_state = aux_state
        self.count = 0
        self.fired = False
        #: boundary -> (per-device snapshots, aux_state() result)
        self.snapshots: Dict[int, Tuple[List[Tuple], object]] = {}
        self._hooks = [dev.add_hook("completion", self._on_complete)
                       for dev in self.devices]

    def _on_complete(self, device: BlockDevice, bio: Bio) -> None:
        if self.fired:
            return
        self.count += 1
        k = self.count
        if k in self.snapshot_at:
            snaps = [dev.crash_snapshot() for dev in self.devices]
            aux = self.aux_state() if self.aux_state is not None else None
            self.snapshots[k] = (snaps, aux)
        if self.crash_after is not None and k >= self.crash_after:
            self.fired = True
            for dev in self.devices:
                dev.power_off()

    def disarm(self) -> None:
        """Stop counting: remove the counter's hooks."""
        remove_hooks(self._hooks)


# -- array-wide snapshot helpers --------------------------------------------------


def array_crash_snapshot(devices: Iterable[ZNSDevice]) -> List[Tuple]:
    """Snapshot every device (event loop must be quiescent)."""
    return [dev.crash_snapshot() for dev in devices]


def array_restore_crash_snapshot(devices: Iterable[ZNSDevice],
                                 snapshots: Sequence[Tuple]) -> None:
    """Restore every device from :func:`array_crash_snapshot` output."""
    for dev, snapshot in zip(devices, snapshots):
        dev.restore_crash_snapshot(snapshot)


def apply_survivor_assignment(devices: Sequence[ZNSDevice],
                              assignment: Sequence[Dict[int, int]]) -> None:
    """Crash the array into one chosen survivor state.

    ``assignment`` holds one ``{zone_index: survivor_wp}`` mapping per
    device (see :func:`enumerate_survivor_assignments`); unnamed zones
    keep only their durable prefix.  Power is restored afterwards,
    leaving the array ready to mount.
    """
    for dev, survivors in zip(devices, assignment):
        dev.power_fail_to(survivors)
    for dev in devices:
        dev.power_on()


def array_state_fingerprint(devices: Iterable[ZNSDevice]) -> str:
    """Stable hash of the array's durable state, for distinctness counts.

    Covers each zone's state, pointers, and written media prefix, so two
    crash states that differ in any recoverable way hash differently
    while re-explorations of the same state collapse to one entry in the
    coverage report.
    """
    digest = hashlib.blake2b(digest_size=16)
    for dev in devices:
        for zone in dev.zones:
            digest.update(
                f"{zone.index},{zone.state.value},{zone.write_pointer},"
                f"{zone.durable_pointer},{int(zone.finished_by_command)};"
                .encode())
            digest.update(dev._media[zone.start:zone.write_pointer])
    return digest.hexdigest()


# -- survivor-state products ------------------------------------------------------


def survivor_product_size(spaces: Sequence[Dict[int, List[int]]]) -> int:
    """Number of distinct crash states the per-zone choices span."""
    product = 1
    for space in spaces:
        for states in space.values():
            product *= len(states)
    return product


def enumerate_survivor_assignments(
    spaces: Sequence[Dict[int, List[int]]],
    budget: int,
    rng: random.Random,
) -> Tuple[List[List[Dict[int, int]]], int]:
    """Sample survivor assignments from the cross-zone product.

    ``spaces`` is one :meth:`ZNSDevice.survivor_state_space` mapping per
    device.  Returns ``(assignments, product_size)`` where each
    assignment lists, per device, the survivor write pointer chosen for
    each dirty zone.  The all-min and all-max corners are always
    included; the rest are drawn uniformly at random, deduplicated, and
    bounded by ``budget``.
    """
    choices = [(d, zone, states)
               for d, space in enumerate(spaces)
               for zone, states in sorted(space.items())]
    product = survivor_product_size(spaces)

    def build(pick) -> List[Dict[int, int]]:
        out: List[Dict[int, int]] = [dict() for _ in spaces]
        for d, zone, states in choices:
            out[d][zone] = pick(states)
        return out

    def key(assignment) -> Tuple:
        return tuple(tuple(sorted(m.items())) for m in assignment)

    assignments: List[List[Dict[int, int]]] = []
    seen = set()
    for corner in (build(lambda s: s[0]), build(lambda s: s[-1])):
        corner_key = key(corner)
        if corner_key not in seen:
            seen.add(corner_key)
            assignments.append(corner)
    target = min(budget, product)
    attempts = 0
    # Rejection sampling with a bounded number of draws: near-exhausted
    # products would otherwise loop forever re-drawing duplicates.
    while len(assignments) < target and attempts < 20 * budget:
        attempts += 1
        candidate = build(rng.choice)
        candidate_key = key(candidate)
        if candidate_key not in seen:
            seen.add(candidate_key)
            assignments.append(candidate)
    return assignments, product
