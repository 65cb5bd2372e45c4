"""The layer ladder: each layer driven alone through its public functions.

Rungs, bottom up (Doekemeijer et al. / Tehrany & Trivedi isolate one
layer of a ZNS stack at a time; this does the same to ours):

``sim.events_per_s``         bare ``Simulator``: callbacks per host second,
                             half ``schedule(0.0)``, half timed;
``zns.replay_us_per_cmd``    the device-level command stream one workload
                             round produced, replayed on bare devices
                             with no volume above them;
``raizn.parity_mib_per_s``   ``xor_buffers`` / ``stripe_parity`` on 4 x 64 KiB;
``raizn.stripebuf_mib_per_s`` ``StripeBuffer.absorb`` + ``full_parity``;
``raizn.plan_us_per_bio``    ``AddressMapper.split_extent`` + ``lba_to_pba``.

Every rung reports the median of ``repeats`` timed repeats of at least
``seconds`` each: 7 x 1 s under ``bench/run.py --ladder [--workload
NAME]``, 7 x 0.1 s when a traced workload run appends the ladder.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

import numpy as np

from repro.block import Bio, Op
from repro.raizn import (AddressMapper, RaiznConfig, StripeBuffer,
                         stripe_parity, xor_buffers)
from repro.sim import Simulator, simulation_gc

from driver import ClosedLoop, Tally
from tracer import StreamRecorder
from workloads import WORKLOADS

KiB = 1024
MiB = 1024 * KiB
UNIT = 64 * KiB
NUM_DATA = 4

_clock = time.perf_counter


def _median_rate(work: Callable[[], float], seconds: float,
                 repeats: int) -> float:
    """Median over repeats of (units of work done) / (host seconds).

    ``work()`` does one batch and returns how many units it did; a repeat
    keeps calling it until ``seconds`` have passed.
    """
    rates = []
    with simulation_gc():
        work()  # warm caches, pools and lazy set-up
        for _ in range(repeats):
            units, start = 0.0, _clock()
            while True:
                units += work()
                elapsed = _clock() - start
                if elapsed >= seconds:
                    break
            rates.append(units / elapsed)
    return statistics.median(rates)


def engine_events_per_s(seconds: float, repeats: int) -> float:
    """Self-rescheduling callbacks on a bare simulator."""
    batch = 20000

    def work() -> float:
        sim = Simulator()
        left = [batch]

        def tick(timed: bool) -> None:
            left[0] -= 1
            if left[0] > 0:
                sim.schedule(1e-6 if timed else 0.0, tick, not timed)

        for actor in range(8):
            sim.schedule(0.0, tick, bool(actor & 1))
        sim.run()
        return float(batch)

    return _median_rate(work, seconds, repeats)


def _units(seed: int) -> List[bytes]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, UNIT, dtype=np.uint8).tobytes()
            for _ in range(NUM_DATA)]


def parity_mib_per_s(seed: int, seconds: float, repeats: int) -> float:
    units = _units(seed)
    short = units[:3] + [units[3][:UNIT // 2]]

    def work() -> float:
        for _ in range(16):
            xor_buffers(units)
            stripe_parity(short, UNIT)
        return 16 * 2 * NUM_DATA * UNIT / MiB

    return _median_rate(work, seconds, repeats)


def stripebuf_mib_per_s(seed: int, seconds: float, repeats: int) -> float:
    units = _units(seed)

    def work() -> float:
        for stripe in range(16):
            buffer = StripeBuffer(0, stripe, NUM_DATA, UNIT)
            for index, unit in enumerate(units):
                buffer.absorb(index * UNIT, unit)
                buffer.full_parity()
            buffer.recycle()
        return 16 * NUM_DATA * UNIT / MiB

    return _median_rate(work, seconds, repeats)


def plan_us_per_bio(seconds: float, repeats: int) -> float:
    config = RaiznConfig(num_data=NUM_DATA, stripe_unit_bytes=UNIT)
    mapper = AddressMapper(config, 4 * MiB, 29)
    lbas = range(0, 8 * mapper.zone_capacity, UNIT)

    def work() -> float:
        for lba in lbas:
            mapper.split_extent(lba, UNIT)
            mapper.lba_to_pba(lba)
        return float(len(lbas))

    return 1e6 / _median_rate(work, seconds, repeats)


# -- device-stream replay -----------------------------------------------------


class Replay:
    """A recorded device-level stream on bare devices, no volume.

    The bare devices are the workload's own device objects, detached from
    their volume: building five fresh ones would fault in another 640 MiB
    (seconds of noise on this VM), and a conventional SSD that already
    went through the workload has a full, garbage-collecting FTL.
    """

    DEPTH = 64

    def __init__(self, recorder, sim, devices):
        self.commands = recorder.commands
        self.start_wp = recorder.start_wp
        self.sim = sim
        self.devices = devices
        longest = max([cmd[3] for cmd in self.commands] + [MiB])
        self.filler = memoryview(bytes(longest))
        self.failed = 0

    def restore(self) -> None:
        """Put every zone at the write pointer the stream started from."""
        for slot, wanted in self.start_wp.items():
            dev = self.devices[slot]
            for info, target in zip(dev.report_zones(), wanted):
                at = info.write_pointer
                if at > target:
                    dev.execute(Bio.zone_reset(info.start))
                    at = info.start
                while at < target:
                    take = min(MiB, target - at)
                    dev.execute(Bio.write(at, self.filler[:take]))
                    at += take

    def _bios(self):
        filler = self.filler
        for slot, op, offset, length, flags in self.commands:
            data = filler[:length] \
                if op is Op.WRITE or op is Op.ZONE_APPEND else None
            yield slot, Bio(op, offset=offset, data=data, length=length,
                            flags=flags)

    def run_once(self) -> float:
        """One timed pass over the stream; returns host seconds."""
        tally = Tally()
        devices = self.devices
        loop = ClosedLoop(
            self.sim, lambda cmd: devices[cmd[0]].submit(cmd[1]), tally)
        loop.add_job(self._bios(), self.DEPTH)
        start = _clock()
        loop.run()
        elapsed = _clock() - start
        self.failed += tally.failed
        return elapsed


def replay_us_per_cmd(recorder, sim, devices, seconds: float,
                      repeats: int) -> float:
    """Host microseconds per device command of the recorded stream."""
    replay = Replay(recorder, sim, devices)
    per_cmd = []
    with simulation_gc():
        replay.restore()
        replay.run_once()  # warm-up pass
        for _ in range(repeats):
            spent, passes = 0.0, 0
            while spent < seconds:
                replay.restore()
                spent += replay.run_once()
                passes += 1
            per_cmd.append(spent / (passes * len(replay.commands)))
    if replay.failed:
        raise RuntimeError(
            f"{replay.failed} replayed device commands failed")
    return statistics.median(per_cmd) * 1e6


def kernel_rungs(seed: int, seconds: float, repeats: int) -> Dict[str, float]:
    """The four rungs that do not depend on a workload."""
    return {
        "sim.events_per_s": engine_events_per_s(seconds, repeats),
        "raizn.parity_mib_per_s": parity_mib_per_s(seed, seconds, repeats),
        "raizn.stripebuf_mib_per_s":
            stripebuf_mib_per_s(seed, seconds, repeats),
        "raizn.plan_us_per_bio": plan_us_per_bio(seconds, repeats),
    }


def record_stream(wl, r: int) -> StreamRecorder:
    """Run round ``r`` of ``wl`` and record its device-level stream."""
    wl.prepare(r)
    recorder = StreamRecorder(wl.device_slots())
    recorder.install({type(dev) for dev in wl.devices if dev is not None})
    try:
        with simulation_gc():
            wl.round(r)
    finally:
        recorder.uninstall()
    return recorder


def main(workload, seed: int, seconds: float = 1.0, repeats: int = 7) -> int:
    """Print every rung; the replay rung once per requested workload."""
    def show(scope: str, name: str, value: float) -> None:
        print(f"{scope:18s} {name:40s} {value:16.6f}", flush=True)

    for name, value in kernel_rungs(seed, seconds, repeats).items():
        show("-", name, value)
    for name in [workload] if workload else list(WORKLOADS):
        wl = WORKLOADS[name](seed)
        with simulation_gc():
            wl.setup()
            wl.prepare(0)
            wl.round(0)
        recorder = record_stream(wl, 1)
        show(name, "zns.replay_us_per_cmd",
             replay_us_per_cmd(recorder, wl.sim, wl.devices, seconds,
                               repeats))
        wl.teardown()
    return 0
