"""Fixed-seed datapath scenarios: the simulator's behaviour pin.

Eight scenarios, representative of the figures, each run on a fresh
five-device array at the experiments' default geometry
(``arrays.DEFAULT``):

* ``seq_write`` — deep-queue sequential writes across many logical zones
  (the RAID-5 write path: stripe fan-out, parity, partial-parity logs);
* ``multizone_write`` — writes interleaved round-robin over several open
  zones (stresses stripe-buffer and open-zone bookkeeping);
* ``oltp_flush`` — small FUA+PREFLUSH writes with periodic standalone
  flushes (the §5.3 persistence protocol, metadata-append heavy);
* ``seq_read`` — sequential reads over a primed volume;
* ``degraded_read`` — the same reads with one device failed, so every
  fourth stripe unit is reconstructed from parity;
* ``scrub_overhead`` — the same reads with a background parity scrub
  running and a sprinkling of latent media errors, so the foreground
  reads meet verify-and-heal traffic;
* ``tail_latency`` — the same reads with fail-slow protection enabled
  and one gray-failing (persistently slow, intermittently stalling)
  device, so hedge timers, reconstruction races and health scoring run
  (the committed tail-latency numbers themselves live in
  ``BENCH_tail.json``, produced by ``python -m repro slowtest``);
* ``tracing_overhead`` — ``seq_write`` rerun with per-bio span tracing
  (``RaiznConfig.tracing``) enabled.  The tracer is inert, so the run
  must produce the *same digest* as ``seq_write``.

:func:`run_scenario` returns a determinism digest (simulated clock,
device/volume stats counters, SHA-256 of every device's media), the
simulated seconds and the bytes moved.  ``tests/test_perfbench.py``
checks all eight against ``tests/data/perfbench_goldens.json``; a moved
digest means datapath behaviour moved.  Host time is measured by the
repository benchmark (``bench/run.py``), not here.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

from ..block.bio import Bio, BioFlags
from ..raizn.volume import RaiznVolume
from ..sim import Simulator, simulation_gc
from ..units import KiB
from ..zns.device import ZNSDevice
from .arrays import DEFAULT, make_raizn

#: Pinned array UUID so formatted media contents are reproducible.
BENCH_UUID = bytes(range(16))

#: The seed the committed digests were taken at.
SEED = 20230403
#: Logical zones each write scenario touches.
ZONES_USED = 8
#: Outstanding IOs per scenario driver.
IODEPTH = 64
#: Standalone flush every N writes in the OLTP scenario.
FLUSH_INTERVAL = 32

SCENARIO_NAMES = ("seq_write", "multizone_write", "oltp_flush",
                  "seq_read", "degraded_read", "scrub_overhead",
                  "tail_latency", "tracing_overhead")


# -- scenario plumbing ---------------------------------------------------------


def _fresh_array(seed: int,
                 **overrides) -> Tuple[Simulator, RaiznVolume, List[ZNSDevice]]:
    sim = Simulator()
    volume, devices = make_raizn(sim, DEFAULT, seed, array_uuid=BENCH_UUID,
                                 **overrides)
    return sim, volume, devices


def _payload(nbytes: int, seed: int) -> bytes:
    """Deterministic payload without consuming any shared RNG state."""
    block = hashlib.sha256(seed.to_bytes(8, "little")).digest()
    return (block * (nbytes // len(block) + 1))[:nbytes]


class _Driver:
    """Callback-style issue loop: ``iodepth`` bios in flight, FIFO order.

    A transliteration of the former generator driver (``yield
    window.request()`` per bio, then drain) without a generator frame,
    resource object, or grant event per IO.  Every now-queue hop of the
    process version is preserved 1:1 — grant hops land in the same slots,
    waiter wake-ups ride the same single-callback dispatch — so fixed-seed
    digests are unchanged while the per-bio process machinery (generator
    send, resume trampoline, request-event allocation) is gone.
    """

    __slots__ = ("sim", "volume", "requests", "in_flight", "iodepth",
                 "index", "drain_index", "completions", "failures", "waiting")

    def __init__(self, sim: Simulator, volume: RaiznVolume,
                 requests: List[Bio], iodepth: int):
        self.sim = sim
        self.volume = volume
        self.requests = requests
        self.iodepth = iodepth
        self.in_flight = 0
        self.index = 0
        self.drain_index = 0
        self.completions: List = []
        self.failures: List[BaseException] = []
        #: True while the issue loop is parked on a full window; at most
        #: one step ever waits (the loop is sequential), so this replaces
        #: the resource's waiter queue.
        self.waiting = False

    def _start(self) -> None:
        """Process-start hop: request the first window slot (no submit)."""
        if self.requests:
            self.in_flight += 1
            self.sim._now_queue.append((self._step, ()))

    def _step(self) -> None:
        event = self.volume.submit(self.requests[self.index])
        self.index += 1
        # ``add_callback`` inlined for the untriggered, no-callback event
        # ``submit`` returns in non-traced runs; anything else (tracer
        # callback already attached) takes the general method.
        if event.callback is None and not event.triggered:
            event.callback = self._on_done
        else:
            event.add_callback(self._on_done)
        self.completions.append(event)
        if self.failures:
            raise self.failures[0]
        if self.index < len(self.requests):
            if self.in_flight < self.iodepth:
                # Slot free: queue the next issue step exactly where the
                # pre-triggered request event's continuation hop used to
                # land.
                self.in_flight += 1
                self.sim._now_queue.append((self._step, ()))
            else:
                self.waiting = True
        else:
            self._drain()

    def _on_done(self, event) -> None:
        if self.waiting:
            # Hand the slot straight to the parked issue step (in-flight
            # count unchanged), in the dispatch slot the released request
            # event's wake-up used to occupy.
            self.waiting = False
            self.sim._now_queue.append((self._step, ()))
        else:
            self.in_flight -= 1
        if not event.ok:
            self.failures.append(event.value)

    def _drain(self) -> None:
        completions = self.completions
        index = self.drain_index
        while index < len(completions):
            event = completions[index]
            index += 1
            if not event.triggered:
                self.drain_index = index
                event.add_callback(self._drained)
                return
        if self.failures:
            raise self.failures[0]

    def _drained(self, event) -> None:
        if not event.ok:
            raise event.value
        self._drain()


def _drive(sim: Simulator, volume: RaiznVolume,
           requests: List[Bio], iodepth: int) -> int:
    """Issue ``requests`` in order with ``iodepth`` in flight; drain all."""
    driver = _Driver(sim, volume, requests, iodepth)
    sim.schedule(0.0, driver._start)
    with simulation_gc():
        sim.run()
    if driver.index < len(requests) or \
            not all(e.triggered for e in driver.completions):
        raise RuntimeError("driver stalled before draining all requests")
    moved = 0
    for bio in requests:
        moved += bio.length
    return moved


def _seq_write_bios(volume: RaiznVolume, block_size: int,
                    seed: int) -> List[Bio]:
    data = _payload(block_size, seed)
    bios = []
    for zone in range(ZONES_USED):
        start = zone * volume.zone_capacity
        for off in range(0, volume.zone_capacity, block_size):
            bios.append(Bio.write(start + off, data))
    return bios


def _multizone_write_bios(volume: RaiznVolume, block_size: int,
                          seed: int) -> List[Bio]:
    """Round-robin over zones: every zone sequential, globally interleaved."""
    data = _payload(block_size, seed)
    cursors = [z * volume.zone_capacity for z in range(ZONES_USED)]
    per_zone = volume.zone_capacity // block_size
    bios = []
    for step in range(per_zone):
        for zone in range(ZONES_USED):
            bios.append(Bio.write(cursors[zone], data))
            cursors[zone] += block_size
    return bios


def _oltp_bios(volume: RaiznVolume, seed: int) -> List[Bio]:
    """4 KiB FUA commits with periodic checkpoint-style flushes."""
    block_size = 4 * KiB
    data = _payload(block_size, seed)
    zones = ZONES_USED // 2
    cursors = [z * volume.zone_capacity for z in range(zones)]
    budget = volume.zone_capacity // 4 // block_size  # quarter zone each
    bios: List[Bio] = []
    for step in range(budget):
        for zone in range(zones):
            bios.append(Bio.write(cursors[zone], data,
                                  BioFlags.FUA | BioFlags.PREFLUSH))
            cursors[zone] += block_size
            if len(bios) % FLUSH_INTERVAL == 0:
                bios.append(Bio.flush())
    return bios


def _read_bios(volume: RaiznVolume, block_size: int) -> List[Bio]:
    bios = []
    for zone in range(ZONES_USED):
        start = zone * volume.zone_capacity
        for off in range(0, volume.zone_capacity, block_size):
            bios.append(Bio.read(start + off, block_size))
    return bios


def _digest_state(sim: Simulator, volume: RaiznVolume,
                  devices: List[ZNSDevice]) -> str:
    """SHA-256 over the observable simulation outcome."""
    sha = hashlib.sha256()
    sha.update(repr(round(sim.now, 9)).encode())
    stats = volume.stats
    for counter in (stats.reads, stats.writes, stats.flushes,
                    stats.zone_mgmt, stats.bytes_read, stats.bytes_written):
        sha.update(counter.to_bytes(8, "little"))
    for dev in devices:
        dstats = dev.stats
        for counter in (dstats.reads, dstats.writes, dstats.flushes,
                        dstats.zone_mgmt, dstats.bytes_read,
                        dstats.bytes_written, dstats.media_bytes_written):
            sha.update(counter.to_bytes(8, "little"))
        sha.update(hashlib.sha256(memoryview(dev._media)).digest())
        for zone in dev.zones:
            sha.update(zone.write_pointer.to_bytes(8, "little"))
    return sha.hexdigest()


# -- scenarios ------------------------------------------------------------------


def _build_seq_write(seed: int):
    sim, volume, devices = _fresh_array(seed)
    return sim, volume, devices, _seq_write_bios(volume, 64 * KiB, seed)


def _build_multizone_write(seed: int):
    sim, volume, devices = _fresh_array(seed)
    return sim, volume, devices, _multizone_write_bios(volume, 16 * KiB, seed)


def _build_oltp(seed: int):
    sim, volume, devices = _fresh_array(seed)
    return sim, volume, devices, _oltp_bios(volume, seed)


def _prime(sim: Simulator, volume: RaiznVolume, seed: int) -> None:
    _drive(sim, volume, _seq_write_bios(volume, 256 * KiB, seed), IODEPTH)


def _build_seq_read(seed: int):
    sim, volume, devices = _fresh_array(seed)
    _prime(sim, volume, seed)
    return sim, volume, devices, _read_bios(volume, 64 * KiB)


def _build_degraded_read(seed: int):
    sim, volume, devices = _fresh_array(seed)
    _prime(sim, volume, seed)
    volume.fail_device(1)
    return sim, volume, devices, _read_bios(volume, 64 * KiB)


def _build_scrub_overhead(seed: int):
    from ..raizn.maintenance import scrub_process

    sim, volume, devices = _fresh_array(seed)
    _prime(sim, volume, seed)
    # Deterministic sprinkling of latent (UNC) errors so the scrub and
    # the foreground reads both exercise the read-repair path.
    su = DEFAULT.stripe_unit_bytes
    for zone in range(ZONES_USED):
        device = devices[(zone + 2) % DEFAULT.num_devices]
        device.mark_bad(zone * volume.phys_zone_size + (zone % 4) * su, su)
    sim.process(scrub_process(sim, volume))
    return sim, volume, devices, _read_bios(volume, 64 * KiB)


def _build_tracing_overhead(seed: int):
    """``seq_write`` with span tracing on: same bios, same seed, same
    geometry — only ``config.tracing`` differs, so the digest must match
    ``seq_write`` exactly."""
    sim, volume, devices = _fresh_array(seed, tracing=True)
    return sim, volume, devices, _seq_write_bios(volume, 64 * KiB, seed)


def _build_tail_latency(seed: int):
    """Hedged-read path under a gray failure: protection on, EWMAs
    primed by a clean read pass, then one device degraded 3x with
    intermittent 5 ms stalls — the reads meet hedge timers,
    reconstruction races, and health-score bookkeeping."""
    from ..faults.failslow import SlowDeviceSpec, SlowPlan

    sim, volume, devices = _fresh_array(seed, failslow_protection=True)
    _prime(sim, volume, seed)
    _drive(sim, volume, _read_bios(volume, 64 * KiB), IODEPTH)
    plan = SlowPlan(seed=seed + 1, specs=[
        SlowDeviceSpec(device_index=1, degrade_factor=3.0,
                       stall_probability=0.1, stall_seconds=5e-3)])
    plan.arm(devices)
    return sim, volume, devices, _read_bios(volume, 64 * KiB)


_SCENARIOS = {
    "seq_write": _build_seq_write,
    "multizone_write": _build_multizone_write,
    "oltp_flush": _build_oltp,
    "seq_read": _build_seq_read,
    "degraded_read": _build_degraded_read,
    "scrub_overhead": _build_scrub_overhead,
    "tail_latency": _build_tail_latency,
    "tracing_overhead": _build_tracing_overhead,
}


def run_scenario(name: str, seed: int = SEED) -> Tuple[str, float, int]:
    """Run one scenario; return ``(digest, sim_seconds, simulated_bytes)``.

    ``sim_seconds`` counts from the end of the scenario's setup (format,
    priming) to the last completion of its measured bios.
    """
    sim, volume, devices, bios = _SCENARIOS[name](seed)
    start = sim.now
    moved = _drive(sim, volume, bios, IODEPTH)
    return _digest_state(sim, volume, devices), sim.now - start, moved
