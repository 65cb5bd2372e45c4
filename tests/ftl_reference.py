"""Reference model: the page-at-a-time ``PageMappedFTL``.

A verbatim copy of ``src/repro/conv/ftl.py``'s class as it stood at commit
db583c7, before the mapping kernel went extent-at-a-time.  It maps ONE
page per loop iteration (``_map`` -> ``_invalidate`` ->
``_next_physical_page``), which makes its ordering trivially readable:
each page is unmapped, then — if it needs a fresh erase block — GC runs,
then the page is mapped.  ``tests/test_ftl_extent_equivalence.py`` holds
the production FTL to this model's state after every operation.  Do not
optimise it; it is only ever compared against.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.conv.ftl import FTLConfig, GCResult
from repro.errors import InvalidAddressError


class ReferencePageMappedFTL:
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

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.config.logical_pages:
            raise InvalidAddressError(f"logical page {lpn} out of range")

    def _invalidate(self, lpn: int) -> None:
        ppn = self.l2p[lpn]
        if ppn != self.UNMAPPED:
            self.p2l[ppn] = self.UNMAPPED
            self.valid_count[ppn // self.config.pages_per_block] -= 1
            self.l2p[lpn] = self.UNMAPPED

    def _next_physical_page(self, gc: GCResult, for_gc: bool = False) -> int:
        ppb = self.config.pages_per_block
        if for_gc:
            if self.gc_block is None or self.gc_offset == ppb:
                if not self.free_blocks:
                    raise RuntimeError("FTL out of free blocks during GC")
                self.gc_block = self.free_blocks.pop()
                self.gc_offset = 0
            ppn = self.gc_block * ppb + self.gc_offset
            self.gc_offset += 1
            if self.gc_offset == ppb:
                self.gc_block = None
            return ppn
        if self.active_block is None or self.active_offset == ppb:
            self._maybe_collect(gc)
            if not self.free_blocks:
                raise RuntimeError(
                    "FTL out of free blocks: GC could not reclaim space "
                    "(device overfilled?)")
            self.active_block = self.free_blocks.pop()
            self.active_offset = 0
        ppn = self.active_block * ppb + self.active_offset
        self.active_offset += 1
        if self.active_offset == ppb:
            self.active_block = None
        return ppn

    def _map(self, lpn: int, gc: GCResult, for_gc: bool = False) -> None:
        self._invalidate(lpn)
        ppn = self._next_physical_page(gc, for_gc=for_gc)
        self.l2p[lpn] = ppn
        self.p2l[ppn] = lpn
        self.valid_count[ppn // self.config.pages_per_block] += 1

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
        victims = [int(lpn) for lpn in self.p2l[base:base + ppb]
                   if lpn != self.UNMAPPED]
        for lpn in victims:
            self._map(lpn, gc, for_gc=True)
            gc.pages_moved += 1
            self.gc_pages_moved += 1
        self.p2l[base:base + ppb] = self.UNMAPPED
        self.valid_count[victim] = 0
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
        self._check_lpn(first_lpn)
        self._check_lpn(first_lpn + npages - 1)
        gc = GCResult()
        for lpn in range(first_lpn, first_lpn + npages):
            self._map(lpn, gc)
            self.host_pages_written += 1
        return gc

    def trim(self, first_lpn: int, npages: int) -> None:
        """Deallocate (TRIM) a logical page range."""
        self._check_lpn(first_lpn)
        self._check_lpn(first_lpn + npages - 1)
        for lpn in range(first_lpn, first_lpn + npages):
            self._invalidate(lpn)

    @property
    def write_amplification(self) -> float:
        """(host + GC) pages programmed per host page written."""
        if self.host_pages_written == 0:
            return 1.0
        return (self.host_pages_written + self.gc_pages_moved) / \
            self.host_pages_written
