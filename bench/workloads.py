"""The five benchmark workloads.

Every workload follows the same life cycle on ONE array:

``setup()``      build + format + prime (timed by the runner as set-up);
``prepare(r)``   untimed per-round preparation (drop a failed device and
                 allocate its replacement, so a timed round touches no
                 fresh memory);
``round(r)``     one timed round, returning the payload bytes it moved;
``verify()``     read-back of everything written, after the last round.

Inputs come from the seed alone: payload bytes and random offsets.  The
stack under test only ever sees bios.  The devices' own service-time
jitter streams are part of the modelled hardware and are pinned, so for
one seed everything on the simulated clock repeats exactly.  Reads
issued inside timed rounds are checked against the seeded payload as
they complete; mismatches and failed bios are counted, never raised.

Only the stable public API of ``repro`` is imported here (see
bench/README.md); the closed-loop driver is the benchmark's own.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import random
import time
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.block import Bio, BioFlags, Op
from repro.conv import ConventionalSSD
from repro.faults import fresh_replacement, power_cycle
from repro.mdraid import MdraidVolume
from repro.raizn import RaiznConfig, RaiznVolume, mount, rebuild
from repro.sim import Simulator
from repro.zns import ZNSDevice

from driver import BARRIER, ClosedLoop, Tally

KiB = 1024
MiB = 1024 * KiB

# Geometry (ISSUE 11): 4+1 devices, 32 zones x 4 MiB, 64 KiB stripe unit,
# 3 metadata zones -> 29 logical zones of 16 MiB, ~640 MiB of media.
NUM_DEVICES = 5
NUM_ZONES = 32
ZONE_CAPACITY = 4 * MiB
STRIPE_UNIT = 64 * KiB
MD_ZONES = 3
LZONE = (NUM_DEVICES - 1) * ZONE_CAPACITY
USABLE = (NUM_ZONES - MD_ZONES) * LZONE
SECTOR = 4 * KiB

#: Pinned so formatted media (superblocks) repeat byte for byte.
ARRAY_UUID = bytes(range(16))

FUA_PREFLUSH = BioFlags.FUA | BioFlags.PREFLUSH


class Payload:
    """Seeded, position- and version-dependent content without copies.

    Content of ``[lba, lba+n)`` at version ``v`` is a slice of one seeded
    ring whose period is coprime with the stripe geometry, so the four
    data units of a stripe differ (parity is never trivially zero) and a
    stale or misplaced block never compares equal.
    """

    PERIOD = MiB + 3 * SECTOR

    def __init__(self, seed: int):
        block = np.random.default_rng(seed).integers(
            0, 256, self.PERIOD, dtype=np.uint8).tobytes()
        # Doubled, so any slice up to one period long is contiguous.
        self._bytes = block * 2
        self._view = memoryview(self._bytes)

    def at(self, lba: int, length: int, version: int = 0) -> memoryview:
        """Write payload: a borrowed view, no copy per bio."""
        start = (lba + version * 5 * SECTOR) % self.PERIOD
        return self._view[start:start + length]

    def matches(self, data, lba: int, version: int = 0) -> bool:
        """Does ``data`` equal the content written at ``lba``?  Compared
        as bytes: a memoryview comparison walks element by element."""
        start = (lba + version * 5 * SECTOR) % self.PERIOD
        return data == self._bytes[start:start + len(data)]


class Workload:
    """Base: shared array plumbing, counters and the oracle helpers."""

    name = ""
    #: Rounds that make up the deterministic (simulated-clock) window.
    sim_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.payload = Payload(seed)
        self.tally = Tally()
        self.mismatches = 0
        self.checked = 0
        self.sim: Optional[Simulator] = None
        self.volume = None
        self.devices: list = []
        #: Counters of devices / metadata zones dropped from the array
        #: during the run (a failed device's stats leave with it).
        self._retired: collections.Counter = collections.Counter()

    # -- life cycle ---------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, r: int) -> None:
        """Untimed work before round ``r``."""

    def round(self, r: int) -> int:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop the array so its memory can be reused by the next build."""
        self.sim = self.volume = None
        self.devices = []
        gc.collect()

    # -- helpers ------------------------------------------------------------

    def _loop(self) -> ClosedLoop:
        return ClosedLoop(self.sim, self.volume.submit, self.tally)

    def _check_read(self, bio: Bio, version: int = 0) -> None:
        self.checked += 1
        if not self.payload.matches(bio.result, bio.offset, version):
            self.mismatches += 1

    def _read_back(self, start: int, length: int, version: int = 0,
                   io: int = MiB, depth: int = 8) -> None:
        """Sequentially read ``[start, start+length)`` and check it."""
        def source() -> Iterator[Bio]:
            end = start + length
            for lba in range(start, end, io):
                yield Bio.read(lba, min(io, end - lba))
        loop = self._loop()
        loop.add_job(source(), depth,
                     lambda bio: self._check_read(bio, version))
        loop.run()

    def _build_raizn(self) -> None:
        self.sim = Simulator()
        self.devices = [
            ZNSDevice(self.sim, name=f"zns{i}", num_zones=NUM_ZONES,
                      zone_capacity=ZONE_CAPACITY, seed=i)
            for i in range(NUM_DEVICES)]
        config = RaiznConfig(num_data=NUM_DEVICES - 1,
                             stripe_unit_bytes=STRIPE_UNIT,
                             num_metadata_zones=MD_ZONES)
        self.volume = RaiznVolume.create(self.sim, self.devices, config,
                                         array_uuid=ARRAY_UUID)

    def _prime(self, zones: int, io: int = 256 * KiB, depth: int = 8) -> None:
        """Fill logical zones ``0..zones-1`` with version-0 payload."""
        def source() -> Iterator[Bio]:
            for lba in range(0, zones * LZONE, io):
                yield Bio.write(lba, self.payload.at(lba, io))
        loop = self._loop()
        loop.add_job(source(), depth)
        loop.run()

    # -- counters and digests ----------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Cumulative counters read from public stats objects."""
        out = collections.Counter(self._retired)
        vstats = self.volume.stats
        out["user_reads"] += vstats.reads
        out["user_writes"] += vstats.writes
        out["user_bytes_read"] += vstats.bytes_read
        out["user_bytes_written"] += vstats.bytes_written
        for dev in filter(None, self.volume.devices):
            _count_device(out, dev)
        for mdz in filter(None, getattr(self.volume, "mdzones", ())):
            _count_mdzones(out, mdz)
        return out

    def _retire(self, index: int) -> None:
        """Keep the counters of device ``index`` before it is dropped."""
        _count_device(self._retired, self.volume.devices[index])
        _count_mdzones(self._retired, self.volume.mdzones[index])

    def digest(self) -> str:
        """Simulated clock + volume and device stats + media SHA-256.

        Media is read through the devices' own read command, so the
        digest itself is part of the deterministic history.
        """
        sha = hashlib.sha256()
        for dev in filter(None, self.volume.devices):
            for start, length in _written_extents(dev):
                sha.update(dev.execute(Bio.read(start, length)).result)
        sha.update(repr(self.sim.now).encode())
        for key, value in sorted(self.counters().items()):
            sha.update(f"{key}={value!r};".encode())
        return sha.hexdigest()

    # -- tracing ------------------------------------------------------------

    def device_slots(self) -> Dict[int, int]:
        """``id(device) -> array slot`` for the stream recorder."""
        return {id(dev): slot for slot, dev in enumerate(self.devices)
                if dev is not None}

    def trace_sites(self) -> list:
        """``(span name, class, attribute)`` of each layer's entry points,
        taken from the live objects so nothing private is imported."""
        sites = [("sim.run", type(self.sim), "run")]
        volume = self.volume
        if isinstance(volume, RaiznVolume):
            sites.append(("raizn.submit", type(volume), "submit"))
            mdz = next(m for m in volume.mdzones if m is not None)
            for attr in ("append", "append_async", "append_encoded_async"):
                sites.append(("raizn.mdappend", type(mdz), attr))
            sites.append(("zns.submit", ZNSDevice, "submit"))
        else:
            sites.append(("mdraid.submit", type(volume), "submit"))
            sites.append(("conv.submit", ConventionalSSD, "submit"))
        return sites


def _count_device(out: collections.Counter, dev) -> None:
    stats = dev.stats
    cmds = stats.reads + stats.writes + stats.flushes + stats.zone_mgmt
    out["dev_cmds"] += cmds
    out["zns_cmds" if isinstance(dev, ZNSDevice) else "conv_cmds"] += cmds
    out["dev_zone_mgmt"] += stats.zone_mgmt
    out["dev_bytes_read"] += stats.bytes_read
    out["dev_bytes_written"] += stats.bytes_written
    out["dev_io_seconds"] += stats.io_seconds
    ftl = getattr(dev, "ftl", None)
    if ftl is not None:
        out["ftl_gc_pages"] += ftl.gc_pages_moved
        out["ftl_host_pages"] += ftl.host_pages_written


def _count_mdzones(out: collections.Counter, mdz) -> None:
    out["md_bytes"] += mdz.appended_bytes
    out["md_gc_cycles"] += mdz.gc_cycles


def _written_extents(dev) -> List[tuple]:
    if isinstance(dev, ZNSDevice):
        return [(info.start, info.write_pointer - info.start)
                for info in dev.report_zones()
                if info.write_pointer > info.start]
    step = 16 * MiB
    return [(start, min(step, dev.size_bytes - start))
            for start in range(0, dev.size_bytes, step)]


# ---------------------------------------------------------------------------


class SeqWrite(Workload):
    """8 jobs x 64 KiB sequential writes, one logical zone each, QD 8 per
    job; the 8 zones are reset at the top of every round, so steady state
    is 8 resets + 2048 sub-stripe writes (128 MiB) per round and the
    last round's data is still there for the read-back."""

    name = "seqwrite"
    sim_rounds = 16
    JOBS = 8
    IO = 64 * KiB
    DEPTH = 8

    def setup(self) -> None:
        self._build_raizn()
        self.last_round = -1

    def _job(self, zone: int, r: int) -> Iterator:
        start = zone * LZONE
        yield Bio.zone_reset(start)
        yield BARRIER
        at = self.payload.at
        for lba in range(start, start + LZONE, self.IO):
            yield Bio.write(lba, at(lba, self.IO, r))

    def round(self, r: int) -> int:
        loop = self._loop()
        for zone in range(self.JOBS):
            loop.add_job(self._job(zone, r), self.DEPTH)
        loop.run()
        self.last_round = r
        return self.JOBS * LZONE

    def verify(self) -> None:
        self._read_back(0, self.JOBS * LZONE, self.last_round)


class OltpMixed(Workload):
    """4 KiB durable commits with reads beside them: per step one
    FUA|PREFLUSH write to each of 4 zones and two seeded random reads of
    LBAs whose write already completed; a standalone FLUSH every 32
    writes; all four zones are reset when full.  One job, QD 32."""

    name = "oltp_mixed"
    sim_rounds = 8
    ZONES = 4
    IO = 4 * KiB
    DEPTH = 32
    STEPS = 1024
    FLUSH_EVERY = 32

    def setup(self) -> None:
        self._build_raizn()
        self.rng = random.Random(self.seed)
        self.cursor = 0          # bytes issued into each zone
        self.generation = 0      # resets so far: the payload version
        self.safe = [0] * self.ZONES       # completed contiguous prefix
        self._done = [set() for _ in range(self.ZONES)]
        self.writes = 0
        self.moved = 0

    def _completed(self, bio: Bio) -> None:
        if bio.op is Op.READ:
            self.moved += bio.length
            self._check_read(bio, self.generation)
            return
        if bio.op is not Op.WRITE:
            return  # flush or reset
        self.moved += bio.length
        zone, offset = divmod(bio.offset, LZONE)
        done = self._done[zone]
        done.add(offset)
        safe = self.safe[zone]
        while safe in done:
            done.remove(safe)
            safe += self.IO
        self.safe[zone] = safe

    def _steps(self) -> Iterator:
        at = self.payload.at
        rng = self.rng
        for _ in range(self.STEPS):
            if self.cursor == LZONE:
                yield BARRIER
                for zone in range(self.ZONES):
                    yield Bio.zone_reset(zone * LZONE)
                yield BARRIER
                self.cursor = 0
                self.generation += 1
                self.safe = [0] * self.ZONES
            for zone in range(self.ZONES):
                lba = zone * LZONE + self.cursor
                yield Bio.write(lba, at(lba, self.IO, self.generation),
                                FUA_PREFLUSH)
                self.writes += 1
                if self.writes % self.FLUSH_EVERY == 0:
                    yield Bio.flush()
            self.cursor += self.IO
            for _ in range(2):
                zone = rng.randrange(self.ZONES)
                blocks = self.safe[zone] // self.IO
                if blocks:
                    yield Bio.read(zone * LZONE
                                   + rng.randrange(blocks) * self.IO, self.IO)

    def round(self, r: int) -> int:
        self.moved = 0
        loop = self._loop()
        loop.add_job(self._steps(), self.DEPTH, self._completed)
        loop.run()
        return self.moved

    def verify(self) -> None:
        for zone in range(self.ZONES):
            if self.safe[zone]:
                self._read_back(zone * LZONE, self.safe[zone],
                                self.generation)


class RandRead(Workload):
    """4 KiB uniform random reads, 1 job x QD 256, over 8 primed zones
    (128 MiB); healthy reads leave RAIZN a pure address mapper.  Like
    fio's default random map, a round reads no block twice."""

    name = "randread"
    sim_rounds = 8
    ZONES = 8
    IO = 4 * KiB
    DEPTH = 256
    READS = 16384

    def setup(self) -> None:
        self._build_raizn()
        self._prime(self.ZONES)

    def round(self, r: int) -> int:
        blocks = np.random.default_rng([self.seed, r]).permutation(
            self.ZONES * LZONE // self.IO)[:self.READS]
        io = self.IO
        source = (Bio.read(block * io, io) for block in blocks.tolist())
        loop = self._loop()
        loop.add_job(source, self.DEPTH, self._check_read)
        loop.run()
        return self.READS * io

    def verify(self) -> None:
        """Nothing was written after priming; timed reads were checked."""


class DegradedRebuild(Workload):
    """Fail device ``r mod 5``, read the primed range with every stripe
    reconstructing one unit from parity (64 KiB, QD 64), then rebuild
    onto a blank replacement.  After the last round: flush, power cycle,
    mount, full read-back."""

    name = "degraded_rebuild"
    sim_rounds = 5
    ZONES = 16
    IO = 64 * KiB
    DEPTH = 64

    def setup(self) -> None:
        self._build_raizn()
        self._prime(self.ZONES)
        self.replacement = None
        #: Per round and phase: (bytes, host seconds, simulated seconds).
        self.phases: List[dict] = []

    def prepare(self, r: int) -> None:
        index = r % NUM_DEVICES
        template = self.volume.devices[index]
        self._retire(index)
        self.volume.fail_device(index)
        # Drop the dead device before its replacement is allocated, so
        # the replacement reuses warm memory.
        self.devices[index] = None
        del template
        gc.collect()
        survivor = next(d for d in self.volume.devices if d is not None)
        self.replacement = fresh_replacement(
            self.sim, survivor, name=f"zns{index}r{r}",
            seed=1000 + r)

    def device_slots(self) -> Dict[int, int]:
        slots = super().device_slots()
        if self.replacement is not None:
            slots[id(self.replacement)] = self.devices.index(None)
        return slots

    def round(self, r: int) -> int:
        index = r % NUM_DEVICES
        sim = self.sim
        length = self.ZONES * LZONE
        io = self.IO
        t0, s0 = time.perf_counter(), sim.now
        loop = self._loop()
        loop.add_job((Bio.read(lba, io) for lba in range(0, length, io)),
                     self.DEPTH, self._check_read)
        loop.run()
        t1, s1 = time.perf_counter(), sim.now
        report = rebuild(sim, self.volume, index, self.replacement)
        t2 = time.perf_counter()
        self.devices[index] = self.replacement
        self.replacement = None
        self.phases.append({
            "degraded_read": (length, t1 - t0, s1 - s0),
            "rebuild": (report.bytes_written, t2 - t1, report.duration)})
        return length + report.bytes_written

    def verify(self) -> None:
        self.volume.execute(Bio.flush())
        power_cycle(self.devices)
        self.volume = mount(self.sim, self.devices)
        self._read_back(0, self.ZONES * LZONE)


class MdraidOverwrite(Workload):
    """The seqwrite logical stream (8 jobs x 64 KiB, QD 8 each) on mdraid
    RAID-5 over conventional SSDs whose whole capacity was filled in
    set-up by 5 interleaved writers, so every timed write is an
    overwrite and FTL garbage collection is live from the first round.
    Each round advances to the next 128 MiB window, wrapping."""

    name = "mdraid_overwrite"
    sim_rounds = 10
    JOBS = 8
    IO = 64 * KiB
    DEPTH = 8
    WINDOW = JOBS * LZONE
    FILLERS = 5
    FILL_IO = 256 * KiB

    def setup(self) -> None:
        self.sim = Simulator()
        self.devices = [
            ConventionalSSD(self.sim, name=f"nvme{i}",
                            capacity_bytes=USABLE // (NUM_DEVICES - 1),
                            seed=i)
            for i in range(NUM_DEVICES)]
        self.volume = MdraidVolume(self.sim, self.devices,
                                   chunk_bytes=STRIPE_UNIT)
        self.windows = USABLE // self.WINDOW
        #: Payload version of each window (0 = the set-up fill).
        self.version = [0] * self.windows
        share = USABLE // self.FILLERS // self.FILL_IO * self.FILL_IO
        loop = self._loop()
        for job in range(self.FILLERS):
            start = job * share
            end = USABLE if job == self.FILLERS - 1 else start + share
            loop.add_job(self._fill(start, end), 4)
        loop.run()

    def _fill(self, start: int, end: int) -> Iterator[Bio]:
        at = self.payload.at
        for lba in range(start, end, self.FILL_IO):
            length = min(self.FILL_IO, end - lba)
            yield Bio.write(lba, at(lba, length))

    def _job(self, start: int, version: int) -> Iterator[Bio]:
        at = self.payload.at
        for lba in range(start, start + LZONE, self.IO):
            yield Bio.write(lba, at(lba, self.IO, version))

    def round(self, r: int) -> int:
        window = r % self.windows
        version = r + 1
        loop = self._loop()
        for job in range(self.JOBS):
            loop.add_job(
                self._job(window * self.WINDOW + job * LZONE, version),
                self.DEPTH)
        loop.run()
        self.version[window] = version
        return self.WINDOW

    def verify(self) -> None:
        for window, version in enumerate(self.version):
            self._read_back(window * self.WINDOW, self.WINDOW, version)
        tail = self.windows * self.WINDOW
        if tail < USABLE:
            self._read_back(tail, USABLE - tail)


WORKLOADS = {cls.name: cls for cls in (
    SeqWrite, OltpMixed, RandRead, DegradedRebuild, MdraidOverwrite)}
