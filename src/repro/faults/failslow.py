"""Seeded fail-slow (gray-failure) injection on live devices.

Fail-stop faults are the easy case: a dead device stops answering and
the array reacts immediately.  Real ZNS deployments degrade long before
they die — per-device latency varies by orders of magnitude with zone
state and internal housekeeping, and a single fail-slow device stalls
every stripe it participates in while still answering "healthy".

A :class:`SlowPlan` arms four composable degradation shapes onto chosen
devices, drawing every probabilistic decision from one seeded RNG so a
campaign is reproducible bit-for-bit:

* **Persistent degradation** (``degrade_factor``): every command's
  nominal channel occupancy is multiplied — the device is uniformly
  N× slower, the classic worn-controller gray failure.
* **Intermittent stalls** (``stall_probability`` / ``stall_seconds``): a
  fraction of commands hit a multi-millisecond internal stall, the
  tail-latency signature of background housekeeping.
* **Ramping latency** (``ramp_per_second``): extra delay grows linearly
  with simulated time from the fault's onset, modelling slow decline.
* **Zone-state coupling** (``zone_fill_seconds``): extra delay scales
  with the target zone's fill fraction, following the ZNS
  characterization result that per-command cost climbs as a zone
  approaches capacity.

The plan injects through the ``service_delay`` hook slot (see
:data:`~repro.block.device.HOOK_SLOTS`), a separate slot from the
error-injection ones, so it composes freely with a
:class:`~repro.faults.errinject.FaultPlan` armed on the same devices:
a campaign can make one device slow *and* error-prone at once.  The
injected delay extends channel occupancy, so a gray-failing device also
inflicts queueing delay on the commands stuck behind the slow one — the
collateral damage that makes fail-slow faults so expensive in practice.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Dict, List, Sequence

from ..block.bio import Bio, Op
from ..block.device import HookHandle, remove_hooks
from ..zns.device import ZNSDevice


@dataclasses.dataclass(frozen=True)
class SlowDeviceSpec:
    """Degradation shape for one device in a :class:`SlowPlan`.

    All shapes are additive: the injected delay for a command is the sum
    of every enabled term.  A spec with the defaults injects nothing.
    """

    #: Array slot of the victim device.
    device_index: int
    #: Persistent multiplier on the command's nominal (jitter-free)
    #: channel occupancy; ``1.0`` means no persistent degradation, ``4.0``
    #: makes every command take roughly 4x its healthy occupancy.
    degrade_factor: float = 1.0
    #: Probability that a command hits an internal stall.
    stall_probability: float = 0.0
    #: Stall duration in seconds (typically multi-millisecond).
    stall_seconds: float = 0.0
    #: Extra delay per command, growing linearly with simulated seconds
    #: elapsed since ``onset_s`` (slowly ramping decline).
    ramp_per_second: float = 0.0
    #: Extra delay per command, scaled by the target zone's fill
    #: fraction (ZNS zone-state-coupled housekeeping cost).
    zone_fill_seconds: float = 0.0
    #: Simulated seconds after arming before any degradation applies.
    onset_s: float = 0.0
    #: Restrict injection to reads (hedging experiments isolate the read
    #: path this way); by default writes and appends are slowed too.
    reads_only: bool = False


class SlowCounts:
    """Injected-delay tally, per device index."""

    def __init__(self) -> None:
        #: Commands that received any injected delay, per device.
        self.slowed_commands: Dict[int, int] = {}
        #: Intermittent stalls that fired, per device.
        self.stalls: Dict[int, int] = {}
        #: Total injected delay in seconds, per device.
        self.delay_seconds: Dict[int, float] = {}

    def note(self, index: int, delay: float, stalled: bool) -> None:
        self.slowed_commands[index] = self.slowed_commands.get(index, 0) + 1
        if stalled:
            self.stalls[index] = self.stalls.get(index, 0) + 1
        self.delay_seconds[index] = \
            self.delay_seconds.get(index, 0.0) + delay

    def to_dict(self) -> dict:
        return {
            "slowed_commands": dict(self.slowed_commands),
            "stalls": dict(self.stalls),
            "delay_seconds": {index: round(seconds, 6) for index, seconds
                              in self.delay_seconds.items()},
        }


class SlowPlan:
    """A deterministic, seeded fail-slow plan over an array's devices.

    ``arm(devices)`` adds a ``service_delay`` hook to every device named
    by a :class:`SlowDeviceSpec`; ``disarm()`` removes exactly those (the
    delays of several armed plans add up).  All probability draws come
    from ``random.Random(seed)`` in channel-grant order, so a fixed seed
    plus a deterministic workload reproduces the exact same delay
    sequence.
    """

    def __init__(self, seed: int = 0,
                 specs: Sequence[SlowDeviceSpec] = ()):
        self.rng = random.Random(seed)
        self.specs: Dict[int, SlowDeviceSpec] = {
            spec.device_index: spec for spec in specs}
        if len(self.specs) != len(specs):
            raise ValueError("one SlowDeviceSpec per device index")
        self.counts = SlowCounts()
        self._hooks: List[HookHandle] = []
        self._armed_at = 0.0
        self.armed = False

    # -- arming ----------------------------------------------------------------

    def arm(self, devices: Sequence[ZNSDevice]) -> None:
        """Install the delay hook on every spec'd device (index = slot)."""
        if self.armed:
            raise RuntimeError("slow plan is already armed")
        self._armed_at = devices[0].sim.now if devices else 0.0
        for index, device in enumerate(devices):
            if index in self.specs:
                self._hooks.append(device.add_hook(
                    "service_delay", functools.partial(self._delay, index)))
        self.armed = True

    def disarm(self) -> None:
        """Remove the plan's delay hooks."""
        remove_hooks(self._hooks)
        self.armed = False

    # -- the hook --------------------------------------------------------------

    def _delay(self, index: int, device: ZNSDevice, bio: Bio) -> float:
        spec = self.specs[index]
        now = device.sim.now
        onset = self._armed_at + spec.onset_s
        if now < onset:
            return 0.0
        op = bio.op
        if spec.reads_only and op is not Op.READ:
            return 0.0
        delay = 0.0
        stalled = False
        if spec.degrade_factor > 1.0:
            nominal = device.model.occupancy_time(op, bio.length, None)
            delay += (spec.degrade_factor - 1.0) * nominal
        if spec.stall_probability > 0.0 and \
                self.rng.random() < spec.stall_probability:
            delay += spec.stall_seconds
            stalled = True
        if spec.ramp_per_second > 0.0:
            delay += spec.ramp_per_second * (now - onset)
        if spec.zone_fill_seconds > 0.0 and isinstance(device, ZNSDevice):
            zone = bio.offset // device.zone_size
            if 0 <= zone < device.num_zones:
                delay += spec.zone_fill_seconds * \
                    device.zone_fill_fraction(zone)
        if delay > 0.0:
            self.counts.note(index, delay, stalled)
        return delay


def degraded_device(device_index: int, factor: float = 4.0,
                    onset_s: float = 0.0) -> SlowDeviceSpec:
    """Spec for a persistently ``factor``-times-slower device."""
    return SlowDeviceSpec(device_index=device_index, degrade_factor=factor,
                          onset_s=onset_s)


def stalling_device(device_index: int, probability: float = 0.2,
                    stall_seconds: float = 5e-3,
                    onset_s: float = 0.0) -> SlowDeviceSpec:
    """Spec for a device with intermittent multi-millisecond stalls."""
    return SlowDeviceSpec(device_index=device_index,
                          stall_probability=probability,
                          stall_seconds=stall_seconds, onset_s=onset_s)


def ramping_device(device_index: int, ramp_per_second: float,
                   onset_s: float = 0.0) -> SlowDeviceSpec:
    """Spec for a device whose latency climbs linearly after onset."""
    return SlowDeviceSpec(device_index=device_index,
                          ramp_per_second=ramp_per_second, onset_s=onset_s)
