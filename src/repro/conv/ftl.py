"""Page-mapped flash translation layer with on-device garbage collection.

This is the mechanism behind the paper's headline contrast (Figure 10,
Observation 3): conventional SSDs must garbage-collect internally, and once
overprovisioned blocks are exhausted, valid-page copy-back traffic steals
bandwidth from the host.  ZNS SSDs have no FTL GC, which is why RAIZN's
throughput stays flat.

The FTL here is deliberately classical: logical-to-physical page mapping,
one active write frontier, greedy (min-valid-count) victim selection, and
low/high free-block watermarks.  It tracks *accounting* (which physical
page holds which logical page, how many pages GC moved); user data bytes
are stored logically by the owning device, since physical placement does
not change read results.

Mapping is extent-at-a-time.  ``write`` walks its extent in *runs*, each
the longest stretch that fits in the active erase block.  Only a run's
first page can need a fresh block, and that page alone is unmapped before
GC reads ``valid_count`` (greedy victim choice depends on it); no GC
starts inside a run; and relocation — the same walk, bounded by the GC
frontier block — never re-enters host allocation.  So slice operations
over a run end in exactly the state of a page-at-a-time walk
(``tests/ftl_reference.py``, held equal after every operation).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..errors import InvalidAddressError


@dataclasses.dataclass
class FTLConfig:
    """Geometry and GC policy of the simulated FTL."""

    #: Exported logical capacity in pages.
    logical_pages: int
    #: Flash page size in bytes (equals the sector size upstack).
    page_size: int = 4096
    #: Pages per erase block.
    pages_per_block: int = 256
    #: Overprovisioning ratio: physical = logical * (1 + op_ratio).
    op_ratio: float = 0.07
    #: Start GC when free blocks drop to this count.
    gc_low_watermark: int = 4
    #: Stop GC when free blocks reach this count.
    gc_high_watermark: int = 8

    def __post_init__(self) -> None:
        if min(self.logical_pages, self.page_size, self.pages_per_block) <= 0:
            raise InvalidAddressError(f"FTL geometry must be positive: {self}")
        if self.op_ratio < 0 or \
                not 0 <= self.gc_low_watermark < self.gc_high_watermark:
            raise ValueError("need op_ratio >= 0 and 0 <= gc_low_watermark "
                             f"< gc_high_watermark: {self}")

    @property
    def physical_blocks(self) -> int:
        physical_pages = int(self.logical_pages * (1.0 + self.op_ratio))
        blocks = -(-physical_pages // self.pages_per_block)
        # Leave room for the watermarks to function at all.
        return max(blocks, self.gc_high_watermark + 2)


@dataclasses.dataclass
class GCResult:
    """What one allocation round cost in garbage collection work."""

    pages_moved: int = 0
    blocks_erased: int = 0

    def add(self, other: "GCResult") -> None:
        self.pages_moved += other.pages_moved
        self.blocks_erased += other.blocks_erased


class PageMappedFTL:
    """Logical→physical page mapping with greedy garbage collection."""

    UNMAPPED = -1

    def __init__(self, config: FTLConfig):
        self.config = config
        nblocks = config.physical_blocks
        ppb = config.pages_per_block
        self.num_blocks = nblocks
        self.l2p = np.full(config.logical_pages, self.UNMAPPED, dtype=np.int64)
        self.p2l = np.full(nblocks * ppb, self.UNMAPPED, dtype=np.int64)
        self.valid_count = np.zeros(nblocks, dtype=np.int64)
        self.free_blocks: List[int] = list(range(nblocks - 1, -1, -1))
        # Separate write frontiers for host data and GC relocation (hot /
        # cold separation): mixing them would re-pollute freshly cleaned
        # blocks with long-lived relocated pages.
        self.active_block: Optional[int] = None
        self.active_offset = 0
        self.gc_block: Optional[int] = None
        self.gc_offset = 0
        # Lifetime counters.
        self.host_pages_written = 0
        self.gc_pages_moved = 0
        self.blocks_erased = 0

    # -- bookkeeping helpers -----------------------------------------------------

    def mapped(self, lpn: int) -> bool:
        """True if logical page ``lpn`` currently maps to flash."""
        return bool(self.l2p[lpn] != self.UNMAPPED)

    def _check_extent(self, first_lpn: int, npages: int) -> None:
        """An empty extent is valid wherever its first page is."""
        if npages < 0:
            raise InvalidAddressError(f"negative extent length {npages}")
        for page in (first_lpn, first_lpn + max(npages, 1) - 1):
            if not 0 <= page < self.config.logical_pages:
                raise InvalidAddressError(f"logical page {page} out of range")

    def _invalidate(self, lo: int, hi: int) -> None:
        """Unmap the logical pages ``[lo, hi)``."""
        old = self.l2p[lo:hi]
        old = old[old != self.UNMAPPED]
        if old.size:
            self.p2l[old] = self.UNMAPPED
            self.valid_count -= np.bincount(
                old // self.config.pages_per_block, minlength=self.num_blocks)
            self.l2p[lo:hi] = self.UNMAPPED

    # -- garbage collection --------------------------------------------------------

    def _maybe_collect(self, gc: GCResult) -> None:
        while len(self.free_blocks) <= self.config.gc_low_watermark:
            if not self._collect_one(gc):
                break
            if len(self.free_blocks) >= self.config.gc_high_watermark:
                break

    def _collect_one(self, gc: GCResult) -> bool:
        """Erase the fullest-of-garbage block, relocating its valid pages."""
        ppb = self.config.pages_per_block
        victim = self._pick_victim()
        if victim is None:
            return False
        base = victim * ppb
        src = base + np.flatnonzero(self.p2l[base:base + ppb] != self.UNMAPPED)
        lpns = self.p2l[src]
        moved = 0
        while moved < src.size:
            if self.gc_block is None:
                if not self.free_blocks:
                    # As in write(): unmapped before the allocation fails.
                    self._invalidate(lpns[moved], lpns[moved] + 1)
                    raise RuntimeError("FTL out of free blocks during GC")
                self.gc_block = self.free_blocks.pop()
                self.gc_offset = 0
            take = min(src.size - moved, ppb - self.gc_offset)
            ppn = self.gc_block * ppb + self.gc_offset
            run = lpns[moved:moved + take]
            self.p2l[src[moved:moved + take]] = self.UNMAPPED
            self.valid_count[victim] -= take
            self.l2p[run] = np.arange(ppn, ppn + take)
            self.p2l[ppn:ppn + take] = run
            self.valid_count[self.gc_block] += take
            self.gc_offset += take
            if self.gc_offset == ppb:
                self.gc_block = None
            moved += take
            gc.pages_moved += take
            self.gc_pages_moved += take
        self.free_blocks.insert(0, victim)
        gc.blocks_erased += 1
        self.blocks_erased += 1
        return True

    def _pick_victim(self) -> Optional[int]:
        """Greedy policy: the non-free, non-active block with fewest valid pages."""
        ppb = self.config.pages_per_block
        counts = self.valid_count.copy()
        counts[self.free_blocks] = ppb + 1
        if self.active_block is not None:
            counts[self.active_block] = ppb + 1
        if self.gc_block is not None:
            counts[self.gc_block] = ppb + 1
        victim = int(np.argmin(counts))
        if counts[victim] > ppb:
            return None
        if counts[victim] == ppb:
            # Nothing reclaimable: every candidate block is fully valid.
            return None
        return victim

    # -- host operations -------------------------------------------------------------

    def write(self, first_lpn: int, npages: int) -> GCResult:
        """Map ``npages`` starting at ``first_lpn``; returns the GC work done."""
        self._check_extent(first_lpn, npages)
        ppb = self.config.pages_per_block
        gc = GCResult()
        lpn, end = first_lpn, first_lpn + npages
        while lpn < end:
            if self.active_block is None:
                # Unmap the page that needs the block, and only that page,
                # before GC picks victims by valid_count.
                self._invalidate(lpn, lpn + 1)
                self._maybe_collect(gc)
                if not self.free_blocks:
                    raise RuntimeError(
                        "FTL out of free blocks: GC could not reclaim space "
                        "(device overfilled?)")
                self.active_block = self.free_blocks.pop()
                self.active_offset = 0
            take = min(end - lpn, ppb - self.active_offset)
            ppn = self.active_block * ppb + self.active_offset
            if take == 1:
                # Scalar stores: below a few pages the slice machinery
                # costs more than the pages it maps.
                old = self.l2p[lpn]
                if old != self.UNMAPPED:
                    self.p2l[old] = self.UNMAPPED
                    self.valid_count[old // ppb] -= 1
                self.l2p[lpn] = ppn
                self.p2l[ppn] = lpn
            else:
                self._invalidate(lpn, lpn + take)
                self.l2p[lpn:lpn + take] = np.arange(ppn, ppn + take)
                self.p2l[ppn:ppn + take] = np.arange(lpn, lpn + take)
            self.valid_count[self.active_block] += take
            self.active_offset += take
            if self.active_offset == ppb:
                self.active_block = None
            lpn += take
            self.host_pages_written += take
        return gc

    def trim(self, first_lpn: int, npages: int) -> None:
        """Deallocate (TRIM) a logical page range."""
        self._check_extent(first_lpn, npages)
        self._invalidate(first_lpn, first_lpn + npages)

    @property
    def write_amplification(self) -> float:
        """(host + GC) pages programmed per host page written."""
        if self.host_pages_written == 0:
            return 1.0
        return (self.host_pages_written + self.gc_pages_moved) / \
            self.host_pages_written
