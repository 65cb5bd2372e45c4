"""Unified metrics registry: one snapshot/export API over every counter.

The repository grew its counters organically — ``DeviceStats`` on every
device and on the volume, ``HealthStats`` and per-device
``DeviceHealth`` on the volume, append/GC counters on each device's
metadata zones, ``LatencyStats`` in the harnesses.  Each harness used to
reach into whichever objects it knew about.  The registry consolidates
them: sources register once under a dotted name, and ``snapshot()`` /
``flat()`` / ``to_json()`` export everything uniformly.  The trace
report reconciles its per-device span totals against the same snapshot,
so a disagreement between the two accounting systems is loud.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Mapping, Optional


class MetricsRegistry:
    """Named metric sources with a uniform snapshot API.

    A source is any zero-argument callable returning a (possibly
    nested) mapping of counter name → value.  Objects exposing
    ``to_dict()`` or ``summary()`` may be registered directly.
    """

    def __init__(self) -> None:
        self._sources: Dict[str, Callable[[], Mapping]] = {}

    def register(self, name: str, source) -> None:
        """Register ``source`` under ``name`` (dotted names group output).

        ``source`` may be a callable, or an object with ``to_dict()`` or
        ``summary()``.  Re-registering a name replaces the old source.
        """
        if callable(source):
            fn = source
        elif hasattr(source, "to_dict"):
            fn = source.to_dict
        elif hasattr(source, "summary"):
            fn = source.summary
        else:
            raise TypeError(
                f"metric source {name!r} is neither callable nor has "
                "to_dict()/summary()")
        self._sources[name] = fn

    def names(self):
        """Registered source names, in registration order."""
        return list(self._sources)

    def snapshot(self) -> Dict[str, Dict]:
        """Evaluate every source: ``{source_name: {counter: value}}``."""
        return {name: dict(fn()) for name, fn in self._sources.items()}

    def flat(self) -> Dict[str, float]:
        """Flattened snapshot with dotted keys (nested dicts unrolled)."""
        out: Dict[str, float] = {}

        def walk(prefix: str, mapping: Mapping) -> None:
            for key, value in mapping.items():
                path = f"{prefix}.{key}"
                if isinstance(value, Mapping):
                    walk(path, value)
                else:
                    out[path] = value

        for name, fn in self._sources.items():
            walk(name, fn())
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    # -- canned wiring -----------------------------------------------------------

    @classmethod
    def for_volume(cls, volume) -> "MetricsRegistry":
        """Registry covering a :class:`~repro.raizn.volume.RaiznVolume`:
        volume-level IO stats, per-device IO stats (each with the count
        of volatile writes that flush elision reads), volume health, the
        device reads the degraded read path saved by joining a command in
        flight, the device flushes the write path sent and those an
        ``Op.FLUSH`` did not, the stripe units its FUA writes sealed,
        the per-device latency-health scores,
        metadata-zone counters and — on a traced volume — rebuild
        progress."""
        registry = cls()
        registry.register("volume", volume.stats)
        registry.register("health", volume.health)
        registry.register(
            "readpath",
            lambda: {"joined_reads": volume.readpath.joined_reads})
        registry.register(
            "writepath",
            lambda: {"flushes_issued": volume.writepath.flushes_issued,
                     "flushes_elided": volume.writepath.flushes_elided,
                     "units_sealed": volume.writepath.units_sealed})
        if volume.rebuild_counters is not None:
            registry.register("rebuild", lambda: volume.rebuild_counters)
        for index, device in enumerate(volume.devices):
            if device is None:
                continue
            registry.register(
                f"device.{device.name}",
                lambda d=device: {**d.stats.to_dict(),
                                  "volatile_writes": d.volatile_writes})
            registry.register(f"device_health.{device.name}",
                              volume.device_health[index])
        for index, mdz in enumerate(volume.mdzones):
            if mdz is None:
                continue
            registry.register(
                f"mdzone.{volume.devices[index].name}",
                lambda m=mdz: {"appended_bytes": m.appended_bytes,
                               "gc_cycles": m.gc_cycles,
                               "swap_waits": m.swap_waits,
                               "lock_wait_s": m.lock_wait_s})
        return registry
