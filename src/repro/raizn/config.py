"""RAIZN array configuration (paper §4).

An array is ``D`` data stripe units plus ``P`` parity stripe units per
stripe, over ``D + P`` identical ZNS devices.  Each device reserves
``num_metadata_zones`` physical zones at the top of its address space:
one for partial parity, one for general metadata, and at least one swap
zone for metadata garbage collection (§4.3, minimum of 3).
"""

from __future__ import annotations

import dataclasses

from ..errors import RaiznError
from ..units import KiB, SECTOR_SIZE

#: Simulated delay between transient-error retries, in seconds, on the
#: read and the write path alike.
TRANSIENT_BACKOFF_S = 100e-6


@dataclasses.dataclass(frozen=True)
class RaiznConfig:
    """Static parameters of a RAIZN array."""

    #: Data stripe units per stripe (D).
    num_data: int = 4
    #: Parity stripe units per stripe (P); this implementation is RAID-5
    #: style, so P must be 1.
    num_parity: int = 1
    #: Stripe unit ("chunk") size in bytes; the paper settles on 64 KiB.
    stripe_unit_bytes: int = 64 * KiB
    #: Metadata zones reserved per device (>= 3: partial parity, general,
    #: and at least one swap zone, §4.3).
    num_metadata_zones: int = 3
    #: Relocated-stripe-unit count per physical zone beyond which the zone
    #: is rewritten during initialization (§5.2, "user-modifiable
    #: threshold").
    relocation_rebuild_threshold: int = 16
    #: Retries of a device command that failed with TransientCommandError
    #: before the error escalates (the datapath counts the initial attempt
    #: separately, so ``2`` means up to 3 submissions total).
    max_transient_retries: int = 2
    #: Media/command errors charged against one device before the volume
    #: evicts it into degraded mode (error-threshold eviction).
    device_error_threshold: int = 25
    #: Heal latent media errors in the read path: reconstruct the stripe
    #: unit from redundancy and relocate it (§5.2 machinery) so the next
    #: read hits clean media.  Disabled only by harnesses measuring the
    #: detection power of their integrity oracle.
    read_repair: bool = True
    #: Gray-failure (fail-slow) defense: per-device completion-latency
    #: health scoring, hedged reconstruction reads for stragglers, and
    #: demotion/eviction escalation.  Off by default — hedging perturbs
    #: IO timing and stats, so only fail-slow campaigns and tail-latency
    #: benchmarks opt in.
    failslow_protection: bool = False
    #: Outlier-EWMA above which a demoted device is evicted into
    #: degraded mode via the standard eviction flow (only while parity
    #: tolerance remains).
    slow_evict_score: float = 0.85
    #: Per-bio span tracing (see :mod:`repro.trace`): the volume creates
    #: a :class:`~repro.trace.Tracer` shared with every array device,
    #: recording spans at the volume boundary, stripe assembly, parity
    #: compute, metadata appends, and each device command.  Off by
    #: default; the disabled datapath pays one attribute test per site.
    tracing: bool = False

    def __post_init__(self) -> None:
        if self.num_parity != 1:
            raise RaiznError("only P=1 (RAID-5 style) parity is supported")
        if self.num_data < 2:
            raise RaiznError("need at least 2 data stripe units per stripe")
        if self.stripe_unit_bytes <= 0 or self.stripe_unit_bytes % SECTOR_SIZE:
            raise RaiznError(
                "stripe unit must be a positive multiple of the sector size")
        if self.num_metadata_zones < 3:
            raise RaiznError(
                "need >= 3 metadata zones per device "
                "(partial parity + general + swap)")
        if self.max_transient_retries < 0:
            raise RaiznError("max_transient_retries must be >= 0")
        if self.device_error_threshold < 1:
            raise RaiznError("device_error_threshold must be >= 1")
        if self.relocation_rebuild_threshold < 0:
            raise RaiznError("relocation_rebuild_threshold must be >= 0")

    @property
    def num_devices(self) -> int:
        """Total array width, D + P."""
        return self.num_data + self.num_parity

    @property
    def stripe_width_bytes(self) -> int:
        """User data bytes per stripe (parity excluded)."""
        return self.num_data * self.stripe_unit_bytes

    def logical_zone_capacity(self, physical_zone_capacity: int) -> int:
        """User-visible capacity of one logical zone (§4.1: D physical zones)."""
        if physical_zone_capacity % self.stripe_unit_bytes:
            raise RaiznError(
                "physical zone capacity must be a multiple of the stripe unit")
        return self.num_data * physical_zone_capacity

    def stripes_per_zone(self, physical_zone_capacity: int) -> int:
        """Number of stripes that fit in one logical zone."""
        return physical_zone_capacity // self.stripe_unit_bytes
