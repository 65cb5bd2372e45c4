"""Power-loss fault injection.

The ZNS device already models the physics (an arbitrary whole number of
atomic write units of each zone's unflushed tail survives a power cut,
per-zone prefix order preserved); this module provides the orchestration:
cutting power across a whole array at a chosen moment — wall-clock or
"after the Nth write" — running a workload through the cut, and cycling
power back for recovery testing.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional

from ..block.bio import Bio, Op
from ..block.device import BlockDevice, remove_hooks
from ..errors import ReproError
from ..sim import Process, Simulator
from ..zns.device import ZNSDevice


def power_fail_array(devices: Iterable[BlockDevice],
                     rng: Optional[random.Random] = None) -> None:
    """Cut power on every device; unflushed write-cache contents are lost."""
    rng = rng or random.Random(0)
    for dev in devices:
        if isinstance(dev, ZNSDevice):
            dev.power_fail(rng)
        else:
            dev.power_off()


def power_restore_array(devices: Iterable[BlockDevice]) -> None:
    """Power every device back on."""
    for dev in devices:
        dev.power_on()


def power_cycle(devices: Iterable[BlockDevice],
                rng: Optional[random.Random] = None) -> None:
    """Cut and immediately restore power (the remount comes separately)."""
    devices = list(devices)
    power_fail_array(devices, rng)
    power_restore_array(devices)


def tolerate_power_loss(gen):
    """Wrap a process generator so a power cut ends it instead of raising.

    Returns the generator's value, or None if the workload died to the
    injected fault.
    """
    try:
        result = yield from gen
    except ReproError:
        return None
    return result


def crash_during(sim: Simulator, devices: Iterable[BlockDevice],
                 workload, crash_time: float,
                 rng: Optional[random.Random] = None) -> Process:
    """Run ``workload`` (a generator), cutting array power at ``crash_time``.

    Returns the (completed or fault-terminated) workload process; the
    devices are left powered on, ready for a recovery mount.
    """
    devices = list(devices)
    proc = sim.process(tolerate_power_loss(workload))
    sim.run(until=crash_time)
    power_fail_array(devices, rng)
    sim.run()  # drain: in-flight IO fails into the tolerant wrapper
    power_restore_array(devices)
    return proc


class CrashPoint:
    """Deterministic crash trigger: cut array power on the Nth command.

    Adds a ``pre_apply`` hook to every device and counts matching
    commands across the whole array; when the count reaches ``after``,
    power drops on all devices *before* that command applies —
    reproducing "the system lost power after only a subset of the
    sub-IOs reached the devices".

    ``pre_apply`` hooks run in install order and a rejection stops the
    ones after it, so a command that an earlier-armed
    :class:`~repro.faults.errinject.FaultPlan` rejects never applies and
    is not counted as a crash candidate either.
    """

    def __init__(self, devices: List[BlockDevice], after: int,
                 ops: Optional[Iterable[Op]] = None,
                 rng: Optional[random.Random] = None):
        self.devices = devices
        self.remaining = after
        self.ops = set(ops) if ops is not None else None
        self.rng = rng or random.Random(0)
        self.fired = False
        self._hooks = [dev.add_hook("pre_apply", self._count)
                       for dev in devices]

    def _count(self, device: BlockDevice, bio: Bio) -> None:
        if self.fired:
            return
        if self.ops is not None and bio.op not in self.ops:
            return
        self.remaining -= 1
        if self.remaining <= 0:
            self.fired = True
            power_fail_array(self.devices, self.rng)

    def disarm(self) -> None:
        """Stop counting: remove the trigger's hooks."""
        remove_hooks(self._hooks)
