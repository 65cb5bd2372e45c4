"""Seeded latent/transient/wear-out error injection on live devices.

A :class:`FaultPlan` arms three classes of storage faults onto the ZNS
devices under a mounted volume, drawing every decision from one seeded
RNG so a campaign is reproducible bit-for-bit:

* **Latent (UNC) errors**: after a write completes, its just-programmed
  media extent is silently corrupted; the error surfaces only when the
  extent is next read, as a ``MediaError`` — the classic latent sector
  error a scrubber exists to find.
* **Transient command errors**: a command fails with
  ``TransientCommandError`` at submission; re-issuing the same command
  usually succeeds (each submission draws independently).
* **Wear-out**: after a configured number of writes into a victim zone,
  the zone transitions to READ_ONLY or OFFLINE (§2.1 end-of-life
  states), so the in-flight write — and everything after it — fails
  with ``ZoneStateError``.

Two safety rules keep every injected fault recoverable by single-parity
redundancy, so an integrity harness can demand zero violations:

* at most one latent error per stripe (tracked per ``(zone, stripe)``),
  and per-device caps so error-threshold eviction cannot strand a
  second device's unhealed errors;
* latent errors never land in a wear-victim zone — an OFFLINE zone
  already costs that stripe one unit, and a second loss would exceed
  what parity can reconstruct.

Faults target data zones only.  Metadata zones carry the partial-parity
and relocation logs that the heal machinery itself depends on; the
paper's failure model (§4.2) treats metadata loss as device loss, which
:mod:`repro.faults.devicefail` covers separately.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..block.bio import Bio, Op
from ..block.device import HookHandle, remove_hooks
from ..errors import TransientCommandError
from ..units import KiB
from ..zns.device import ZNSDevice


class FaultCounts:
    """Injected-fault tally, by class."""

    def __init__(self) -> None:
        self.latent = 0
        self.transient = 0
        self.wear = 0

    @property
    def total(self) -> int:
        return self.latent + self.transient + self.wear

    def to_dict(self) -> dict:
        return dict(vars(self), total=self.total)


class FaultPlan:
    """A deterministic, seeded error-injection plan over an array's devices.

    ``arm(devices)`` adds a ``pre_apply`` and a ``completion`` hook to
    each device through :meth:`BlockDevice.add_hook`; ``disarm()``
    removes exactly those.  All probability draws come from
    ``random.Random(seed)`` in command-submission order, so a fixed seed
    plus a deterministic workload reproduces the exact same fault
    sequence.

    ``wear_victims`` is a sequence of ``(device_index, zone_index,
    offline)`` triples; each victim zone wears out just before its
    ``wear_after_writes``-th write command (counted per device+zone
    while armed).
    """

    def __init__(
        self,
        seed: int = 0,
        num_data_zones: int = 0,
        stripe_unit_bytes: int = 64 * KiB,
        latent_rate: float = 0.0,
        transient_rate: float = 0.0,
        max_latent: Optional[int] = None,
        max_latent_per_device: Optional[int] = None,
        wear_victims: Sequence[Tuple[int, int, bool]] = (),
        wear_after_writes: int = 8,
    ):
        self.rng = random.Random(seed)
        self.num_data_zones = num_data_zones
        self.stripe_unit_bytes = stripe_unit_bytes
        self.latent_rate = latent_rate
        self.transient_rate = transient_rate
        self.max_latent = max_latent
        self.max_latent_per_device = max_latent_per_device
        self.wear_after_writes = wear_after_writes
        #: When set, transient faults hit only these device indices —
        #: used to drive one device over its error threshold.
        self.transient_targets: Optional[Set[int]] = None
        self.counts = FaultCounts()
        #: Stripes already carrying a latent error: (zone, stripe) keys.
        self._hit_stripes: Set[Tuple[int, int]] = set()
        #: Zones reserved for wear-out — excluded from latent injection.
        self._wear_zones: Set[int] = {zone for _d, zone, _o in wear_victims}
        self._wear_pending: Dict[Tuple[int, int], bool] = {
            (device, zone): offline for device, zone, offline in wear_victims}
        self._write_counts: Dict[Tuple[int, int], int] = {}
        self._latent_per_device: Dict[int, int] = {}
        self._devices: List[ZNSDevice] = []
        self._hooks: List[HookHandle] = []
        self.armed = False

    # -- arming ----------------------------------------------------------------

    def arm(self, devices: Sequence[ZNSDevice]) -> None:
        """Install the plan's hooks on every device (index = array slot)."""
        if self.armed:
            raise RuntimeError("fault plan is already armed")
        self._devices = list(devices)
        for index, device in enumerate(self._devices):
            self._hooks.append(device.add_hook(
                "pre_apply", functools.partial(self._pre_apply, index)))
            self._hooks.append(device.add_hook(
                "completion", functools.partial(self._on_complete, index)))
        self.armed = True

    def disarm(self) -> None:
        """Remove the plan's hooks from every device."""
        remove_hooks(self._hooks)
        self.armed = False

    # -- the hooks -------------------------------------------------------------

    def _pre_apply(self, index: int, device: ZNSDevice, bio: Bio) -> None:
        op = bio.op
        if op is not Op.READ and op is not Op.WRITE \
                and op is not Op.ZONE_APPEND:
            return
        zone = bio.offset // device.zone_size
        if zone >= self.num_data_zones:
            return
        if op is not Op.READ:
            key = (index, zone)
            if key in self._wear_pending:
                writes = self._write_counts.get(key, 0) + 1
                self._write_counts[key] = writes
                if writes >= self.wear_after_writes:
                    offline = self._wear_pending.pop(key)
                    if offline:
                        device.set_zone_offline(zone)
                    else:
                        device.set_zone_read_only(zone)
                    self.counts.wear += 1
                    # Fall through: the device's own state check now
                    # rejects this very write with ZoneStateError.
        if self.transient_targets is not None \
                and index not in self.transient_targets:
            return
        if self.transient_rate and self.rng.random() < self.transient_rate:
            self.counts.transient += 1
            raise TransientCommandError(
                f"{device.name}: injected transient failure "
                f"({bio.op.value} at {bio.offset:#x})")

    def _on_complete(self, index: int, device: ZNSDevice, bio: Bio) -> None:
        op = bio.op
        if op is not Op.WRITE and op is not Op.ZONE_APPEND:
            return
        if not self.latent_rate or bio.length == 0:
            return
        offset = bio.result if op is Op.ZONE_APPEND else bio.offset
        zone = offset // device.zone_size
        if zone >= self.num_data_zones or zone in self._wear_zones:
            return
        if self.max_latent is not None \
                and self.counts.latent >= self.max_latent:
            return
        if self.max_latent_per_device is not None \
                and self._latent_per_device.get(index, 0) \
                >= self.max_latent_per_device:
            return
        if self.rng.random() >= self.latent_rate:
            return
        stripe = (offset % device.zone_size) // self.stripe_unit_bytes
        if (zone, stripe) in self._hit_stripes:
            return
        self.inject_latent(index, offset, bio.length)

    # -- explicit injection ------------------------------------------------------

    def inject_latent(self, index: int, offset: int, length: int) -> None:
        """Corrupt ``length`` media bytes of device ``index`` at ``offset``.

        Used by the hooks and directly by campaigns that need a
        deterministic burst (e.g. driving one device over its error
        threshold).  Counted and stripe-tracked like any latent fault.
        """
        device = self._devices[index]
        device.mark_bad(offset, length)
        zone = offset // device.zone_size
        stripe = (offset % device.zone_size) // self.stripe_unit_bytes
        self._hit_stripes.add((zone, stripe))
        self._latent_per_device[index] = \
            self._latent_per_device.get(index, 0) + 1
        self.counts.latent += 1
