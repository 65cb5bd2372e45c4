"""Device service-time model.

Devices are modelled as a pool of parallel command channels, each serving
one IO at a time in arrival order (``BlockDevice`` keeps their busy-until
instants).  An IO occupies a channel for::

    command_overhead + transfer_bytes / per_channel_bandwidth (+ jitter)

and completes a pipelined ``base_latency(op)`` after leaving the channel,
so a single queued IO sees overhead + transfer + media latency, while a
deep queue saturates all channels and reaches the device's aggregate
bandwidth (or its IOPS ceiling for small commands) — reproducing the
queue-depth behaviour fio measures.

Default numbers are calibrated to the paper's §6.1 measurements:
the ZN540 ZNS SSD sustains 1052 MiB/s writes and 3265 MiB/s reads, and the
conventional SSD of the same platform is 2% / 4% faster respectively.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from ..units import MiB, USEC
from .bio import Op


@dataclasses.dataclass(frozen=True)
class ServiceTimeModel:
    """Timing parameters for one simulated device.

    Commands occupy a channel for their *occupancy* time (command
    processing overhead + data transfer); the fixed media/setup latency
    is pipelined — it delays the command's completion but does not block
    the channel, matching how NVMe devices overlap command setup with
    the data path.  Small sequential IOs therefore approach full
    bandwidth (bounded by the per-command overhead, i.e. the device's
    IOPS ceiling) instead of being serialized behind setup latency.
    """

    #: Aggregate sequential read bandwidth, bytes/second.
    read_bandwidth: float
    #: Aggregate write bandwidth, bytes/second.
    write_bandwidth: float
    #: Number of parallel command channels.
    channels: int = 8
    #: Channel-occupying per-command processing overhead, seconds.
    #: 20 us x 8 channels ~ 400K IOPS ceiling, in the ZN540's class.
    command_overhead: float = 20 * USEC
    #: Pipelined media latency for reads, seconds.
    read_base_latency: float = 80 * USEC
    #: Pipelined ack latency for writes (cache hit), seconds.
    write_base_latency: float = 15 * USEC
    #: Cost of a cache flush, seconds.
    flush_latency: float = 120 * USEC
    #: Cost of zone management commands (reset/finish/open/close), seconds.
    zone_mgmt_latency: float = 1000 * USEC
    #: Relative jitter amplitude (uniform, +/- fraction of service time).
    jitter: float = 0.05

    def __post_init__(self) -> None:
        # Precomputed per-channel transfer rates: occupancy_time runs once
        # per simulated command, so the two divisions per call add up.
        # (The dataclass is frozen; __setattr__ must be bypassed.)
        object.__setattr__(self, "_read_rate",
                           self.read_bandwidth / self.channels)
        object.__setattr__(self, "_write_rate",
                           self.write_bandwidth / self.channels)
        # Jitter constants for the inlined uniform draw below.
        # ``random.Random.uniform(a, b)`` computes ``a + (b - a) * random()``;
        # with a = -jitter, b = jitter the span b - a is exactly
        # jitter + jitter in IEEE arithmetic, so the expansion reproduces
        # the library call bit for bit while skipping its Python frame.
        object.__setattr__(self, "_jitter_span", self.jitter + self.jitter)

    @property
    def saturating_depth(self) -> int:
        """Commands to keep in flight so that no channel idles: one in
        service per channel plus one queued behind it.  Background
        streams (RAIZN rebuild, mdraid resync) size their windows from
        this rather than from a setting — fewer starves channels, more
        only holds memory."""
        return 2 * self.channels

    def occupancy_time(self, op: Op, nbytes: int,
                       rng: Optional[random.Random] = None) -> float:
        """Time one command holds a channel."""
        if op is Op.READ:
            transfer = nbytes / self._read_rate
        elif op is Op.WRITE or op is Op.ZONE_APPEND:
            transfer = nbytes / self._write_rate
        elif op is Op.FLUSH:
            transfer = self.flush_latency
        elif op is Op.DISCARD:
            transfer = self.zone_mgmt_latency / 4
        else:  # zone management
            transfer = self.zone_mgmt_latency
        total = self.command_overhead + transfer
        jitter = self.jitter
        if rng is not None and jitter > 0:
            total *= 1.0 + (-jitter + self._jitter_span * rng.random())
        return total

    def pipeline_latency(self, op: Op) -> float:
        """Completion delay beyond channel occupancy (pipelined)."""
        if op is Op.READ:
            return self.read_base_latency
        if op is Op.WRITE or op is Op.ZONE_APPEND:
            return self.write_base_latency
        return 0.0

    def service_time(self, op: Op, nbytes: int,
                     rng: Optional[random.Random] = None) -> float:
        """Total unloaded service time (occupancy + pipeline latency)."""
        return self.occupancy_time(op, nbytes, rng) + \
            self.pipeline_latency(op)


def zns_zn540_model() -> ServiceTimeModel:
    """Timing of the paper's WD Ultrastar DC ZN540 ZNS SSD (§6.1)."""
    return ServiceTimeModel(
        read_bandwidth=3265 * MiB,
        write_bandwidth=1052 * MiB,
    )


def conventional_ssd_model() -> ServiceTimeModel:
    """Timing of the paper's conventional SSD: 2%/4% faster write/read."""
    return ServiceTimeModel(
        read_bandwidth=3265 * MiB / 0.96,
        write_bandwidth=1052 * MiB / 0.98,
    )
