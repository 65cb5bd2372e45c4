"""Simulated conventional (block-interface, FTL-backed) SSD.

Supports arbitrary reads, writes, and overwrites, with the on-device
garbage collection of :mod:`repro.conv.ftl` charging copy-back work to the
host writes that trigger it — reproducing the throughput collapse mdraid
suffers in the paper's Figure 10.
"""

from __future__ import annotations

from typing import Optional

from ..block.bio import Bio, Op
from ..block.device import BlockDevice
from ..block.timing import ServiceTimeModel, conventional_ssd_model
from ..errors import InvalidAddressError, ZoneStateError
from ..sim import Simulator
from ..units import MSEC, SECTOR_SIZE
from .ftl import FTLConfig, GCResult, PageMappedFTL

#: Channel time one flash block erase costs during GC.
ERASE_LATENCY = 2 * MSEC


class ConventionalSSD(BlockDevice):
    """A block-interface SSD with page-mapped FTL and on-device GC."""

    trace_layer = "conv"

    def __init__(
        self,
        sim: Simulator,
        name: str = "nvme0",
        capacity_bytes: int = 256 * 1024 * 1024,
        model: Optional[ServiceTimeModel] = None,
        op_ratio: float = 0.07,
        pages_per_block: int = 256,
        seed: int = 0,
    ):
        if capacity_bytes % SECTOR_SIZE:
            raise InvalidAddressError("capacity must be sector aligned")
        super().__init__(sim, name, capacity_bytes,
                         model or conventional_ssd_model(), seed=seed)
        self.ftl = PageMappedFTL(FTLConfig(
            logical_pages=capacity_bytes // SECTOR_SIZE,
            page_size=SECTOR_SIZE,
            pages_per_block=pages_per_block,
            op_ratio=op_ratio,
        ))

    # -- command application -----------------------------------------------------

    def _apply(self, bio: Bio) -> float:
        if bio.op == Op.READ:
            return self._apply_read(bio)
        if bio.op == Op.WRITE:
            return self._apply_write(bio)
        if bio.op == Op.FLUSH:
            return 0.0
        if bio.op == Op.DISCARD:
            return self._apply_discard(bio)
        raise ZoneStateError(
            f"{self.name}: conventional SSD does not support {bio.op}")

    def _check_range(self, bio: Bio) -> None:
        if bio.end_offset > self.size_bytes:
            raise InvalidAddressError(
                f"{self.name}: access [{bio.offset:#x},{bio.end_offset:#x}) "
                f"beyond capacity {self.size_bytes:#x}")

    def _apply_read(self, bio: Bio) -> float:
        self._check_range(bio)
        # A copy (slicing the mapping gives ``bytes``).  Unlike the ZNS
        # device this must stay one: conventional media is overwritable in
        # place, so a borrowed view would alias whatever a later write puts
        # at the same offset.
        bio.result = self._media[bio.offset:bio.end_offset]
        return 0.0

    def _apply_write(self, bio: Bio) -> float:
        self._check_range(bio)
        assert bio.data is not None
        self._media[bio.offset:bio.end_offset] = bio.data
        gc = self.ftl.write(bio.offset // SECTOR_SIZE,
                            bio.length // SECTOR_SIZE)
        return self._gc_time(gc)

    def _apply_discard(self, bio: Bio) -> float:
        self._check_range(bio)
        self._media[bio.offset:bio.end_offset] = bytes(bio.length)
        self.ftl.trim(bio.offset // SECTOR_SIZE, bio.length // SECTOR_SIZE)
        return 0.0

    def _gc_time(self, gc: GCResult) -> float:
        """Channel time consumed by GC copy-back and erases.

        Moved pages are read and re-programmed through the same flash
        channels the host write is using, so the cost is charged at
        per-channel bandwidth — aggregate throughput then degrades by
        exactly the write-amplification factor.
        """
        if gc.pages_moved == 0 and gc.blocks_erased == 0:
            return 0.0
        moved_bytes = gc.pages_moved * self.ftl.config.page_size
        per_channel_write = self.model.write_bandwidth / self.model.channels
        per_channel_read = self.model.read_bandwidth / self.model.channels
        copy_time = moved_bytes / per_channel_write + \
            moved_bytes / per_channel_read
        return copy_time + gc.blocks_erased * ERASE_LATENCY

    def _persist(self, bio: Bio) -> None:
        # The conventional device's durability model is simple: data is
        # durable at completion.  The paper's crash experiments target the
        # ZNS array; mdraid runs journal-less ("ensuring maximum
        # performance", §6) and is never crash-tested.
        return

    @property
    def write_amplification(self) -> float:
        """Current media write amplification reported by the FTL."""
        return self.ftl.write_amplification
