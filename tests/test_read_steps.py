"""Deterministic step counts and seams of the callback read path.

Wall-clock speed on a shared box is noise; the number of engine entries
and ``Event`` allocations a read costs is not.  Entries are counted from
the test side — a counting ``deque`` swapped in for the simulator's
now-queue, and the heap sequence number — so the engine carries no
counter of its own.

With one waiter on the returned event and every device command queued
behind a busy channel, a healthy single-piece read is the start hop, the
channel grant and the waiter (3 now-queue entries) plus the channel and
pipeline timers (2 heap entries); the generator path it replaced took 5
and 2.  A whole-unit degraded read (4 survivor commands) is the start
hop, 4 grants and the waiter, plus 8 timers; it took 12 and 8.
"""

from collections import deque

import pytest

from repro.block import Bio
from repro.errors import DataLossError, DeviceFailedError
from repro.raizn.readpath import _ReadJoin
from repro.sim import Event

from conftest import TEST_STRIPE_UNIT, make_volume, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU
READS = 400
CHANNELS = 5 * 8  # five devices, eight channels each


class CountingQueue(deque):
    """The now-queue, counting what is appended to it."""

    appended = 0

    def append(self, item):
        self.appended += 1
        super().append(item)


def written_volume(sim, stripes=16):
    volume, devices = make_volume(sim)
    data = pattern(stripes * STRIPE, seed=1)
    volume.execute(Bio.write(0, data))
    return volume, devices, data


def run_counted(sim, volume, bios):
    """Submit ``bios`` at once, one waiter each, and drain; returns
    (now-queue entries, heap entries, completed bios)."""
    completed = []
    queue = sim._now_queue = CountingQueue()
    seq = sim._seq
    for bio in bios:
        volume.submit(bio).add_callback(
            lambda event: completed.append(event.value))
    sim.run()
    return queue.appended, sim._seq - seq, completed


class TestEngineSteps:
    def test_healthy_single_piece_read(self, sim):
        volume, _devices, data = written_volume(sim)
        bios = [Bio.read(i * 4096, 4096) for i in range(READS)]
        now_entries, heap_entries, completed = run_counted(sim, volume, bios)
        assert [bytes(bio.result) for bio in completed] == \
            [data[bio.offset:bio.offset + 4096] for bio in completed]
        assert len(completed) == READS
        # Start hop + waiter for every read, a grant for all but the
        # commands that found a free channel.
        assert 3 * READS - CHANNELS <= now_entries <= 3 * READS
        assert heap_entries == 2 * READS

    def test_whole_unit_degraded_read(self, sim):
        volume, _devices, data = written_volume(sim)
        lost = 2
        volume.fail_device(lost)
        units = []  # the stripe units the lost device held
        for stripe in range(16):
            data_devices = volume.mapper.stripe_layout(0, stripe).data_devices
            if lost in data_devices:
                units.append(stripe * STRIPE + data_devices.index(lost) * SU)
        bios = [Bio.read(units[i % len(units)], SU) for i in range(READS)]
        now_entries, heap_entries, completed = run_counted(sim, volume, bios)
        assert len(completed) == READS
        assert all(bytes(bio.result) == data[bio.offset:bio.offset + SU]
                   for bio in completed)
        assert 6 * READS - CHANNELS <= now_entries <= 6 * READS
        assert heap_entries == 8 * READS

    def test_event_allocations_per_healthy_read(self, sim, monkeypatch):
        volume, _devices, _data = written_volume(sim)
        created = [0]
        init = Event.__init__

        def counting_init(self, sim):
            created[0] += 1
            init(self, sim)
        monkeypatch.setattr(Event, "__init__", counting_init)
        bios = [Bio.read(i * 4096, 4096) for i in range(READS)]
        _now, _heap, completed = run_counted(sim, volume, bios)
        assert len(completed) == READS
        # The logical event and the device command's; the latter is
        # recycled, so in steady state one of the two is a pooled one.
        assert created[0] <= 2 * READS

    def test_read_from_memory_completes_in_the_start_hop(self, sim):
        """A read served entirely from the stripe buffer touches no
        device and takes no hop beyond the start hop and its waiter."""
        volume, devices = make_volume(sim)
        data = pattern(STRIPE + SU + 4096, seed=2)
        volume.execute(Bio.write(0, data))
        lost = volume.mapper.lba_to_pba(STRIPE)[0]
        volume.fail_device(lost)
        reads = [dev.stats.reads for dev in devices]
        now_entries, heap_entries, completed = run_counted(
            sim, volume, [Bio.read(STRIPE, SU)])
        assert bytes(completed[0].result) == data[STRIPE:STRIPE + SU]
        assert (now_entries, heap_entries) == (2, 0)
        assert [dev.stats.reads for dev in devices] == reads


class TestSeams:
    def two_dead_devices(self, sim):
        """Two devices die under the volume, which has noticed neither."""
        volume, devices, data = written_volume(sim, stripes=2)
        layout = volume.mapper.stripe_layout(0, 0)
        for slot in (1, 2):
            devices[layout.data_devices[slot]].fail_device()
        return volume, data

    def test_first_failing_piece_fails_the_read_once(self, sim):
        """Eight pieces; the first dead device is evicted and its pieces
        reconstructed (through the second dead device: more failures),
        the second is past the parity tolerance.  The read fails exactly
        once — a second ``fail`` would raise out of ``run`` — and the
        healthy stragglers that complete afterwards change nothing."""
        volume, _data = self.two_dead_devices(sim)
        outcomes = []
        bio = Bio.read(0, 2 * STRIPE)
        volume.submit(bio).add_callback(outcomes.append)
        sim.run()
        assert len(outcomes) == 1 and not outcomes[0].ok
        assert isinstance(outcomes[0].value,
                          (DataLossError, DeviceFailedError))
        assert bio.result is None and bio.complete_time is None
        assert sum(volume.failed) == 1

    def test_eviction_past_parity_tolerance_fails_the_bio(self, sim):
        """``fail_device`` raising DataLossError inside the completion
        callback fails the read instead of escaping the event loop."""
        volume, data = self.two_dead_devices(sim)
        assert volume.execute(Bio.read(0, SU)).result == data[:SU]
        with pytest.raises(DeviceFailedError):
            volume.execute(Bio.read(SU, SU))  # evicts the first
        with pytest.raises(DataLossError):
            volume.execute(Bio.read(2 * SU, SU))  # cannot evict a second
        assert sum(volume.failed) == 1

    def test_unknown_exception_in_a_piece_callback_surfaces(self, sim,
                                                            monkeypatch):
        volume, _devices, _data = written_volume(sim, stripes=1)

        def broken_account(bio):
            raise ValueError("not a device or volume error")
        monkeypatch.setattr(volume.stats, "account", broken_account)
        done = volume.submit(Bio.read(0, 4096))
        with pytest.raises(ValueError):
            sim.run()
        assert not done.triggered

    def test_join_refuses_to_swallow_unknown_errors(self, sim):
        volume, _devices, _data = written_volume(sim, stripes=1)
        join = _ReadJoin(volume, Bio.read(0, 4096), Event(sim))
        with pytest.raises(ValueError):
            join.fail(ValueError("carried as a value"))
        assert not join.done.triggered
        join.fail(DeviceFailedError("first"))
        join.fail(DataLossError("straggler"))
        assert isinstance(join.done.value, DeviceFailedError)
