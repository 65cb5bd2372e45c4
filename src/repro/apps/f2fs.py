"""A simplified F2FS: log-structured filesystem over zoned or block volumes.

The paper's application benchmarks (§6.3) run RocksDB and MySQL on F2FS,
which supports both ZNS and conventional block devices.  This module
reproduces the aspects of F2FS that shape the array-level IO pattern:

* log-structured allocation in large segments, with separate *node*
  (metadata) and *data* logs — two active write streams;
* on zoned volumes, segments are logical zones: strictly sequential
  writes, zone resets when a segment is cleaned, and no in-place updates
  (threaded logging is disabled on ZNS, matching [14]);
* on block volumes, cleaned segments are discarded and reused in place,
  leaving garbage collection to the device FTL;
* segment cleaning (filesystem GC) that migrates live extents from the
  dirtiest victim segments when free space runs low;
* fsync = node block write + device cache flush.

Files are byte streams identified by path; the in-memory inode table maps
each file to its extent list.  (Real F2FS persists inodes in the node
log; here node-log *writes* are modelled for their IO cost, and recovery
of the filesystem itself is out of scope — RAIZN below it is the system
under test.)
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..block.bio import Bio, BioFlags, Op
from ..errors import ReproError
from ..sim import Lock, Simulator
from ..units import MiB, SECTOR_SIZE


class F2FSError(ReproError):
    """Filesystem-level error (no space, unknown file, ...)."""


@dataclasses.dataclass
class Extent:
    """One contiguous run of file bytes on the volume."""

    lba: int
    length: int


class Segment:
    """Allocation unit of the log; on zoned volumes, one logical zone."""

    __slots__ = ("index", "start", "size", "write_offset", "valid_bytes")

    def __init__(self, index: int, start: int, size: int):
        self.index = index
        self.start = start
        self.size = size
        self.write_offset = 0  # bytes appended so far
        self.valid_bytes = 0   # bytes still referenced by live files

    @property
    def free_bytes(self) -> int:
        return self.size - self.write_offset

    @property
    def garbage_bytes(self) -> int:
        return self.write_offset - self.valid_bytes


class File:
    """In-memory inode: ordered extents plus total size."""

    __slots__ = ("path", "extents", "size")

    def __init__(self, path: str):
        self.path = path
        self.extents: List[Extent] = []
        self.size = 0


class F2FS:
    """The filesystem object; all IO methods are process-style generators."""

    #: Stream identifiers (F2FS temperature classes, reduced to two).
    NODE, DATA = 0, 1

    def __init__(self, sim: Simulator, volume,
                 segment_bytes: Optional[int] = None,
                 reserved_segments: int = 4):
        self.sim = sim
        self.volume = volume
        self.zoned = hasattr(volume, "report_zones")
        if self.zoned:
            segment_bytes = volume.zone_capacity
        elif segment_bytes is None:
            segment_bytes = 2 * MiB
        if volume.capacity // segment_bytes < reserved_segments + 4:
            raise F2FSError("volume too small for the segment configuration")
        self.segment_bytes = segment_bytes
        self.reserved_segments = reserved_segments
        num_segments = volume.capacity // segment_bytes
        self.segments = [Segment(i, i * segment_bytes, segment_bytes)
                         for i in range(num_segments)]
        self.free_segments: List[int] = list(range(num_segments))
        self.files: Dict[str, File] = {}
        #: lba -> (path, file offset) for every live block, used by cleaning.
        self._owners: Dict[int, Tuple[str, int]] = {}
        self.active: Dict[int, Optional[Segment]] = {
            self.NODE: None, self.DATA: None}
        #: Where cleaning writes the blocks it migrates: a log head of its
        #: own, kept from one cleaning to the next until it is full (a
        #: fresh segment per victim strands the rest of the last one).
        self._cleaned: Optional[Segment] = None
        #: Serializes segment rotation and cleaning across concurrent
        #: writers; the fast append path never takes it.
        self._alloc_lock = Lock(sim)
        self.gc_migrated_bytes = 0
        self.fsync_count = 0

    # -- namespace ----------------------------------------------------------------

    def create(self, path: str) -> File:
        """Create an empty file (no IO)."""
        if path in self.files:
            raise F2FSError(f"file exists: {path}")
        self.files[path] = File(path)
        return self.files[path]

    def exists(self, path: str) -> bool:
        return path in self.files

    def _get(self, path: str) -> File:
        try:
            return self.files[path]
        except KeyError:
            raise F2FSError(f"no such file: {path}") from None

    # -- data path ------------------------------------------------------------------

    def append(self, path: str, data: bytes):
        """Process-style append of ``data`` to ``path``.

        Data lands in the active data segment, sector-padded like any
        filesystem block allocation; large appends may span segments.
        Safe for concurrent writers: the target range is reserved (and
        the extent map updated) *before* waiting on the device, so a
        second appender sees the advanced log position.
        """
        file = self._get(path)
        if len(data) % SECTOR_SIZE:
            data = data + bytes(SECTOR_SIZE - len(data) % SECTOR_SIZE)
        position = 0
        while position < len(data):
            segment = self.active[self.DATA]
            if segment is None or segment.free_bytes == 0:
                yield from self._rotate_active(self.DATA)
                continue
            take = min(len(data) - position, segment.free_bytes)
            lba = segment.start + segment.write_offset
            event = self.volume.submit(
                Bio.write(lba, data[position:position + take]))
            self._record_extent(file, segment, lba, take)
            position += take
            yield event
        return file.size

    def _record_extent(self, file: File, segment: Segment, lba: int,
                       length: int) -> None:
        if file.extents and \
                file.extents[-1].lba + file.extents[-1].length == lba:
            file.extents[-1].length += length
        else:
            file.extents.append(Extent(lba, length))
        for offset in range(0, length, SECTOR_SIZE):
            self._owners[lba + offset] = (file.path, file.size + offset)
        segment.write_offset += length
        segment.valid_bytes += length
        file.size += length

    def read(self, path: str, offset: int, length: int):
        """Process-style read of ``[offset, offset+length)`` from ``path``.

        Device reads are issued at sector granularity (as a real
        filesystem's block layer does) and trimmed to the requested range.
        """
        file = self._get(path)
        if offset + length > file.size:
            raise F2FSError(
                f"read past EOF of {path}: {offset + length} > {file.size}")
        head = offset % SECTOR_SIZE
        aligned_offset = offset - head
        aligned_length = length + head
        if aligned_length % SECTOR_SIZE:
            aligned_length += SECTOR_SIZE - aligned_length % SECTOR_SIZE
        aligned_length = min(aligned_length, file.size - aligned_offset)
        events = []
        position = aligned_offset
        remaining = aligned_length
        # Walk extents tracking the file offset they cover (file order).
        covered = 0
        for extent in file.extents:
            if remaining == 0:
                break
            extent_end = covered + extent.length
            if position < extent_end:
                inner = position - covered
                take = min(remaining, extent.length - inner)
                events.append(self.volume.submit(
                    Bio.read(extent.lba + inner, take)))
                position += take
                remaining -= take
            covered = extent_end
        results = yield self.sim.all_of(events)
        data = b"".join(bio.result for bio in results)
        return data[head:head + length]

    def delete(self, path: str):
        """Process-style delete: drops extents and discards dead segments."""
        file = self._get(path)
        del self.files[path]
        touched = set()
        for extent in file.extents:
            segment = self.segments[extent.lba // self.segment_bytes]
            segment.valid_bytes -= extent.length
            touched.add(segment.index)
            for offset in range(0, extent.length, SECTOR_SIZE):
                self._owners.pop(extent.lba + offset, None)
        for index in sorted(touched):
            yield from self._maybe_reclaim(self.segments[index])
        return None

    def fsync(self, path: str):
        """Node block write + full cache flush (F2FS fsync path)."""
        self._get(path)
        while True:
            segment = self.active[self.NODE]
            if segment is not None and segment.free_bytes > 0:
                break
            yield from self._rotate_active(self.NODE)
        lba = segment.start + segment.write_offset
        segment.write_offset += SECTOR_SIZE
        # Node blocks are superseded by the next checkpoint, so they count
        # as garbage immediately; a full node segment is reclaimed whole.
        event = self.volume.submit(Bio.write(lba, bytes(SECTOR_SIZE),
                                             BioFlags.FUA))
        yield event
        yield self.volume.submit(Bio.flush())
        self.fsync_count += 1

    # -- allocation ----------------------------------------------------------------------

    def _rotate_active(self, stream: int):
        """Replace a full active segment, cleaning if space is low.

        Serialized by the allocation lock; re-checks state after
        acquiring it because another writer may have rotated already.
        """
        yield self._alloc_lock.request()
        try:
            segment = self.active[stream]
            if segment is not None and segment.free_bytes > 0:
                return  # someone else already rotated
            if segment is not None and segment.valid_bytes == 0 and \
                    segment.free_bytes == 0:
                yield from self._reclaim(segment)
            if len(self.free_segments) <= self.reserved_segments:
                yield from self._clean()
            if not self.free_segments:
                raise F2FSError("filesystem out of space")
            self.active[stream] = self.segments[self.free_segments.pop(0)]
        finally:
            self._alloc_lock.release()

    def _maybe_reclaim(self, segment: Segment):
        """Free a fully-dead, fully-written segment."""
        if segment.valid_bytes == 0 and segment.free_bytes == 0 and \
                segment is not self.active[self.NODE] and \
                segment is not self.active[self.DATA]:
            yield from self._reclaim(segment)

    def _reclaim(self, segment: Segment):
        if self.zoned:
            yield self.volume.submit(Bio.zone_reset(segment.start))
        else:
            yield self.volume.submit(
                Bio(Op.DISCARD, offset=segment.start, length=segment.size))
        segment.write_offset = 0
        segment.valid_bytes = 0
        if segment.index not in self.free_segments:
            self.free_segments.append(segment.index)

    # -- cleaning (filesystem GC) ------------------------------------------------------------

    def _clean(self):
        """Migrate live data out of the dirtiest segments (F2FS cleaning)."""
        candidates = [s for s in self.segments
                      if s.free_bytes == 0 and s.garbage_bytes > 0
                      and s is not self.active[self.NODE]
                      and s is not self.active[self.DATA]]
        candidates.sort(key=lambda s: s.valid_bytes)
        for victim in candidates[:2]:
            yield from self._migrate(victim)

    def _migrate(self, victim: Segment):
        """Move every live block of ``victim`` to the cleaning log head.

        Runs under the allocation lock, so it takes a new head directly
        from the free list (the reserved segments guarantee availability)
        instead of recursing into rotation.
        """
        live = [(lba, self._owners[lba])
                for lba in range(victim.start, victim.start + victim.size,
                                 SECTOR_SIZE)
                if lba in self._owners]
        for lba, (path, file_offset) in live:
            if self._cleaned is None:
                if not self.free_segments:
                    raise F2FSError("no free segment for cleaning")
                self._cleaned = self.segments[self.free_segments.pop(0)]
            destination = self._cleaned
            bio = yield self.volume.submit(Bio.read(lba, SECTOR_SIZE))
            new_lba = destination.start + destination.write_offset
            destination.write_offset += SECTOR_SIZE
            destination.valid_bytes += SECTOR_SIZE
            if destination.free_bytes == 0:
                self._cleaned = None
            yield self.volume.submit(Bio.write(new_lba, bio.result))
            victim.valid_bytes -= SECTOR_SIZE
            self.gc_migrated_bytes += SECTOR_SIZE
            del self._owners[lba]
            self._owners[new_lba] = (path, file_offset)
            self._repoint(path, file_offset, new_lba)
        yield from self._reclaim(victim)

    def _repoint(self, path: str, file_offset: int, new_lba: int) -> None:
        """Split/update the owning file's extent map for one moved block."""
        file = self.files.get(path)
        if file is None:
            return
        covered = 0
        for i, extent in enumerate(file.extents):
            if covered <= file_offset < covered + extent.length:
                inner = file_offset - covered
                pieces = []
                if inner:
                    pieces.append(Extent(extent.lba, inner))
                pieces.append(Extent(new_lba, SECTOR_SIZE))
                tail = extent.length - inner - SECTOR_SIZE
                if tail > 0:
                    pieces.append(Extent(extent.lba + inner + SECTOR_SIZE,
                                         tail))
                file.extents[i:i + 1] = pieces
                return
            covered += extent.length
