"""Deterministic step counts and seams of the callback read path.

Wall-clock speed on a shared box is noise; the number of engine entries
and ``Event`` allocations a bio costs is not.  Entries are counted from
the test side — a counting ``deque`` swapped in for the simulator's
now-queue, the heap sequence number, a counting list for the event pool —
so the engine carries no counter of its own.

With one waiter on the returned event, a healthy single-piece read is the
start hop and the waiter (2 now-queue entries) plus the device command's
one completion timer (1 heap entry), however busy the channels are: the
block layer computes a command's completion instant when it arrives.  The
grant-by-grant service chain it replaced took 3 and 2 (grant hop, channel
and pipeline timers), the generator read path before that 5 and 2.  A
whole-unit degraded read (4 survivor commands) is 2 and 4; it took 6 and
8, and 12 and 8.  A full-stripe degraded read is 2 and 4 as well: its
three direct pieces ride the reconstruction's survivor commands (2 and 7
before ``ReadPath`` kept an in-flight table).  A healthy read inside one
stripe unit builds one device ``Bio`` and no ``_ReadJoin``: its command's
completion completes the logical bio, and a command that fails becomes
the read's one piece (``TestOneUnitReadFailures``).  Writes:
``TestWriteSteps``; mdraid's plugged writes: ``TestMdraidWriteSteps``.
"""

from collections import deque

import pytest

from repro.block import Bio, BioFlags, Op
from repro.conv import ConventionalSSD
from repro.errors import (DataLossError, DeviceFailedError,
                          TransientCommandError)
from repro.mdraid import MdraidVolume
from repro.raizn.readpath import _ReadJoin
from repro.sim import Event
from repro.trace import MetricsRegistry
from repro.units import MiB

from conftest import TEST_STRIPE_UNIT, make_volume, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU
READS = 400


class CountingQueue(deque):
    """The now-queue, counting what is appended to it."""

    appended = 0

    def append(self, item):
        self.appended += 1
        super().append(item)

    def extend(self, items):
        self.appended += len(items)
        super().extend(items)


def written_volume(sim, stripes=16):
    volume, devices = make_volume(sim)
    data = pattern(stripes * STRIPE, seed=1)
    volume.execute(Bio.write(0, data))
    return volume, devices, data


class CountingPool(list):
    """The simulator's event pool, counting what is taken from it."""

    pops = 0

    def pop(self, *args):
        self.pops += 1
        return super().pop(*args)


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


def counting_init(cls, created):
    """``cls.__init__``, counting into ``created[cls]``."""
    init = cls.__init__

    def counted(self, *args, **kwargs):
        created[cls] += 1
        init(self, *args, **kwargs)
    return counted


def counting_trusted(created):
    """``Bio``'s trusted constructor, which skips ``__init__``, counting
    into ``created[Bio]``."""
    build = Bio.command.__func__

    def counted(cls, *args):
        created[Bio] += 1
        return build(cls, *args)
    return classmethod(counted)


def run_counting_events(sim, volume, bios, monkeypatch):
    """``run_counted`` plus the ``Event`` objects the run obtained, fresh
    (``Event.__init__``) or pooled (``sim._event_free.pop``), and the
    ``Bio``s (through ``__init__`` or the trusted constructor) and
    ``_ReadJoin``s it built."""
    created = {Event: 0, Bio: 0, _ReadJoin: 0}
    pool = sim._event_free = CountingPool(sim._event_free)
    with monkeypatch.context() as patch:
        for cls in created:
            patch.setattr(cls, "__init__", counting_init(cls, created))
        patch.setattr(Bio, "command", counting_trusted(created))
        now_entries, heap_entries, completed = run_counted(sim, volume, bios)
    return (now_entries, heap_entries, created[Event] + pool.pops, completed,
            created[Bio], created[_ReadJoin])


class TestEngineSteps:
    def test_healthy_single_piece_read(self, sim):
        volume, _devices, data = written_volume(sim)
        bios = [Bio.read(i * 4096, 4096) for i in range(READS)]
        now_entries, heap_entries, completed = run_counted(sim, volume, bios)
        assert [bytes(bio.result) for bio in completed] == \
            [data[bio.offset:bio.offset + 4096] for bio in completed]
        assert len(completed) == READS
        # Start hop + waiter, and the command's completion timer — also
        # for the 360 commands that had to wait for a channel.
        assert (now_entries, heap_entries) == (2 * READS, READS)

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
        assert (now_entries, heap_entries) == (2 * READS, 4 * READS)

    def test_full_stripe_degraded_read(self, sim):
        """Three direct pieces and a reconstruction that wants the same
        three units plus parity: four device commands, each surviving
        byte fetched once (seven before the in-flight table)."""
        volume, devices, data = written_volume(sim)
        lost = 2
        volume.fail_device(lost)
        stripes = [stripe for stripe in range(16) if lost in
                   volume.mapper.stripe_layout(0, stripe).data_devices]
        bios = [Bio.read(stripe * STRIPE, STRIPE) for stripe in stripes]
        reads = sum(dev.stats.reads for dev in devices)
        now_entries, heap_entries, completed = run_counted(sim, volume, bios)
        assert all(bytes(bio.result) == data[bio.offset:bio.offset + STRIPE]
                   for bio in completed)
        assert (now_entries, heap_entries) == (2 * len(bios), 4 * len(bios))
        assert sum(dev.stats.reads for dev in devices) - reads == \
            4 * len(bios)
        flat = MetricsRegistry.for_volume(volume).flat()
        assert flat["readpath.joined_reads"] == 3 * len(bios)
        assert not volume.readpath._inflight

    def test_healthy_reads_join_nothing(self, sim):
        volume, _devices, _data = written_volume(sim)
        run_counted(sim, volume, [Bio.read(0, STRIPE)] * 4)
        flat = MetricsRegistry.for_volume(volume).flat()
        assert flat["readpath.joined_reads"] == 0

    def test_event_allocations_per_healthy_read(self, sim, monkeypatch):
        """One ``Event`` per read, fresh or pooled: the logical bio's.
        One device ``Bio``, whose ``end_io`` completes the logical bio:
        a read inside one stripe unit builds no ``_ReadJoin``."""
        volume, _devices, data = written_volume(sim)
        bios = [Bio.read(i * 4096, 4096) for i in range(READS)]
        now, heap, events, completed, commands, joins = run_counting_events(
            sim, volume, bios, monkeypatch)
        assert [bytes(bio.result) for bio in completed] == \
            [data[bio.offset:bio.offset + 4096] for bio in completed]
        assert (now, heap, events, commands, joins) == \
            (2 * READS, READS, READS, READS, 0)

    def test_two_unit_read_still_joins(self, sim, monkeypatch):
        volume, _devices, data = written_volume(sim)
        bios = [Bio.read(SU - 4096 + i * STRIPE, 8192) for i in range(16)]
        now, heap, events, completed, commands, joins = run_counting_events(
            sim, volume, bios, monkeypatch)
        assert all(bio.result == data[bio.offset:bio.offset + 8192]
                   for bio in completed)
        assert (now, heap, events, commands, joins) == (32, 32, 16, 32, 16)

    def test_degraded_one_unit_read_of_an_available_device(self, sim,
                                                           monkeypatch):
        """Device 2 lost: a read inside one unit of another device is one
        command and no ``_ReadJoin``, as in a healthy array, and the
        reconstruction of device 2's unit beside it still joins that
        command instead of reading the same bytes again (the sharing
        rule): four commands, one join, for the two reads."""
        volume, devices, data = written_volume(sim)
        lost = 2
        volume.fail_device(lost)
        stripe = next(s for s in range(16) if lost in
                      volume.mapper.stripe_layout(0, s).data_devices)
        index = volume.mapper.stripe_layout(0, stripe).data_devices.index(
            lost)
        other = stripe * STRIPE + (index + 1) % 4 * SU
        bios = [Bio.read(other, SU), Bio.read(stripe * STRIPE + index * SU,
                                              SU)]
        reads = sum(dev.stats.reads for dev in devices if dev is not None)
        now, heap, events, completed, commands, joins = run_counting_events(
            sim, volume, bios, monkeypatch)
        assert sorted(bytes(bio.result) for bio in completed) == sorted(
            data[bio.offset:bio.offset + SU] for bio in bios)
        assert (events, commands, joins) == (2, 4, 1)
        assert volume.readpath.joined_reads == 1
        assert sum(dev.stats.reads for dev in devices
                   if dev is not None) - reads == 4

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


class TestWriteSteps:
    """24 writes submitted at once to an empty volume: each is one data
    command plus one partial-parity log append (the 64 KiB writes close
    six stripes, whose parity goes to the parity device instead), 48
    device commands, some of which wait for a channel.  In the same
    units, at the commit before the block layer's timeline, after it,
    with ``_WriteJoin``'s lone-chain hops turned into calls, with the
    submission batch put on the now-queue call by call, and with each log
    append completing straight into its join:

    ========================  =========  ====  ======
    24 x                      now-queue  heap  events
    ========================  =========  ====  ======
    4 KiB FUA, before               192    96     119
    4 KiB FUA, timeline             168    48      71
    4 KiB FUA, lone chains           72    48      71
    4 KiB FUA, batch by call         96    48      71
    4 KiB FUA, append into join      96    48      47
    64 KiB, before                  116    96     103
    64 KiB, timeline                108    48      55
    64 KiB, lone chains              66    48      55
    64 KiB, batch by call            84    48      55
    64 KiB, append into join         84    48      37
    ========================  =========  ====  ======

    The timeline took one heap entry (channel timer) per device command,
    one now-queue entry (grant hop) per command that waited — 24 and 8 —
    and one ``Event`` per device command.  The lone chains took, per
    write, the hop from a log append's completion to the join (24 and
    18), the hop from the last child to ``_fired`` (24 and 24) and, for a
    durable write with nothing left to flush, the two hops to
    ``_flushed`` (48): 7 -> 3 entries per 4 KiB FUA write.  The last row
    runs the same calls: a write's batch (its log append's start hop and
    the join's ``arm``) used to ride one ``schedule_batch`` entry and is
    now ``extend``-ed onto the now-queue, one entry per call (24 and 18
    more).  The last rows take one ``Event`` fewer per log append (24
    and 18): the append reports to the join the way the ``Event`` did —
    success in its completion's frame, failure one hop later — so no
    entry moved.  What is left is that batch, the logical bio's own
    completion and ``Event``, one waiter ``Event`` per append that queues
    on its role lock (23 and 13), and the hops that start inside a
    populated tick.  Every row builds one ``Bio`` per device command.
    """

    WRITES = 24
    COMMANDS = 2 * WRITES

    def run_writes(self, sim, monkeypatch, length, flags):
        volume, devices = make_volume(sim)
        data = pattern(length, seed=3)
        bios = [Bio.write(i * length, data, flags)
                for i in range(self.WRITES)]
        before = sum(dev.stats.writes for dev in devices)
        counts = run_counting_events(sim, volume, bios, monkeypatch)
        assert len(counts[3]) == self.WRITES
        assert sum(dev.stats.writes for dev in devices) - before == \
            self.COMMANDS
        now, heap, events, _completed, commands, _joins = counts
        return now, heap, events, commands

    def test_small_durable_writes(self, sim, monkeypatch):
        assert self.run_writes(sim, monkeypatch, 4096, BioFlags.FUA) == \
            (192 - 24 - 96 + 24, 96 - self.COMMANDS,
             119 - self.COMMANDS - 24, self.COMMANDS)

    def test_sub_stripe_writes(self, sim, monkeypatch):
        assert self.run_writes(sim, monkeypatch, SU, BioFlags.NONE) == \
            (116 - 8 - 42 + 18, 96 - self.COMMANDS,
             103 - self.COMMANDS - 18, self.COMMANDS)

    def test_durable_commits(self, sim, monkeypatch):
        """``oltp_mixed``'s own write shape: each commit is FUA|PREFLUSH.
        Every write below it went out FUA, so none needs a flush and the
        counts are the FUA row's: 71 ``Event``s before each log append
        completed into its join, one ``Bio`` per device command."""
        flags = BioFlags.FUA | BioFlags.PREFLUSH
        assert self.run_writes(sim, monkeypatch, 4096, flags) == \
            (96, 48, 71 - 24, self.COMMANDS)


class TestMdraidWriteSteps:
    """mdraid's plugged stream, as the bench's ``mdraid_overwrite`` runs
    it: 8 closed-loop jobs x QD 8 of 64 KiB sequential writes, 256
    writes in all.  Four writes fill a stripe, which goes out as one
    full-stripe write (5 device commands) the moment it is covered.

    Per write: 4.78 now-queue entries (the start hop, the stripe's hop to
    its segment, the segment's hop to the bio and the waiter, plus a
    quarter of the stripe's three: its start, its lock grant and its
    writes' join; the rest is the jobs' first pumps and lock waits) and
    1.5 heap entries (a quarter of the stripe's plug timer and five
    command completions).  ``Event``s: 1.0, the bio's own; the member
    commands complete through ``bio.end_io`` into counter joins, each
    join's hop where a gather's trigger was.  As generator processes it
    was 6.0 with the same entries: the bio's event, its process and
    gather, its segment's, and a quarter of the stripe's process, lock
    request, gather and five device events.
    """

    JOBS = 8
    PER_JOB = 32

    def test_plugged_64k_writes(self, sim, monkeypatch):
        devices = [ConventionalSSD(sim, name=f"c{i}",
                                   capacity_bytes=16 * MiB, seed=i)
                   for i in range(5)]
        md = MdraidVolume(sim, devices)
        data = pattern(SU, seed=5)
        created = {Event: 0}
        pool = sim._event_free = CountingPool(sim._event_free)
        queue = sim._now_queue = CountingQueue()
        seq = sim._seq
        completed = []

        def pump(job, issued, in_flight):
            while in_flight[0] < 8 and issued[0] < self.PER_JOB:
                lba = (job * self.PER_JOB + issued[0]) * SU
                issued[0] += 1
                in_flight[0] += 1
                md.submit(Bio.write(lba, data)).add_callback(
                    lambda event: retire(event, job, issued, in_flight))

        def retire(event, job, issued, in_flight):
            completed.append(event.ok)
            in_flight[0] -= 1
            pump(job, issued, in_flight)
        with monkeypatch.context() as patch:
            patch.setattr(Event, "__init__", counting_init(Event, created))
            for job in range(self.JOBS):
                sim.schedule(0.0, pump, job, [0], [0])
            sim.run()
        writes = self.JOBS * self.PER_JOB
        assert completed == [True] * writes
        assert sum(dev.stats.writes for dev in devices) == writes // 4 * 5
        assert (queue.appended, sim._seq - seq, created[Event] + pool.pops) == \
            (1224, 384, writes)
        assert queue.appended / writes == 4.78125


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


class TestOneUnitReadFailures:
    """A healthy one-unit read is one device command; when that command
    fails it becomes the read's one piece under ``_read_attempted``, so
    the self-healing policy has one implementation."""

    LBA = SU + 4096  # the second data unit of stripe 0

    def one_unit(self, sim):
        volume, devices, data = written_volume(sim, stripes=2)
        device, pba = volume.mapper.lba_to_pba(self.LBA)
        return volume, devices[device], pba, data[self.LBA:self.LBA + 4096]

    def test_media_error_heals(self, sim):
        volume, device, pba, expect = self.one_unit(sim)
        device.mark_bad(pba, 4096)
        assert volume.execute(Bio.read(self.LBA, 4096)).result == expect
        assert (volume.health.media_errors, volume.health.heals) == (1, 1)
        # Served from the relocated unit now, through the joined path.
        assert volume.execute(Bio.read(self.LBA, 4096)).result == expect

    def test_transient_error_retries(self, sim):
        volume, device, _pba, expect = self.one_unit(sim)
        refused = []

        def refuse_once(dev, bio):
            if bio.op is Op.READ and not refused:
                refused.append(bio)
                raise TransientCommandError(f"{dev.name}: injected")
        device.add_hook("pre_apply", refuse_once)
        assert volume.execute(Bio.read(self.LBA, 4096)).result == expect
        assert len(refused) == 1
        assert volume.health.transient_retries == 1

    def test_device_failing_mid_io(self, sim):
        volume, device, _pba, expect = self.one_unit(sim)
        reads = device.stats.reads
        done = volume.submit(Bio.read(self.LBA, 4096))
        sim.schedule(1e-6, device.fail_device)  # after the start hop
        sim.run()
        assert device.stats.reads == reads + 1  # accepted, then lost
        assert done.ok and done.value.result == expect
        assert volume.failed[volume.devices.index(device)]


def test_read_result_outlives_a_reset_and_rewrite(sim):
    """A device read hands out a view of its media; the read path
    copies it into ``bytes`` before the logical bio completes, so a
    reset and rewrite of the zone cannot change a completed result."""
    volume, _devices, data = written_volume(sim)  # the whole of zone 0
    one_unit = volume.execute(Bio.read(4096, 4096)).result
    two_units = volume.execute(Bio.read(SU - 4096, 8192)).result
    volume.execute(Bio.zone_reset(0))
    volume.execute(Bio.write(0, pattern(len(data), seed=9)))
    assert type(one_unit) is bytes and one_unit == data[4096:8192]
    assert type(two_units) is bytes and two_units == data[SU - 4096:SU + 4096]
