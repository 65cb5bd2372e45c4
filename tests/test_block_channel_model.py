"""The block layer's channel model against a reference k-server FIFO.

``BlockDevice`` serves commands on ``model.channels`` parallel channels in
arrival order: a command waits for a channel, holds it for its occupancy
time (plus whatever extra channel time ``_apply`` charged it — the
conventional SSD's garbage collection), and completes a pipelined latency
after leaving the channel.  The reference below says exactly that with
``sim.Resource`` and ``sim.timeout`` and nothing else; the property pins
the device to it bit for bit — grant and completion instants, delivery
order, RNG draws, latency accounting — so the device is free to compute
the same instants any cheaper way.
"""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.block import Bio, BlockDevice, Op
from repro.block.timing import ServiceTimeModel
from repro.sim import Resource, Simulator
from repro.units import MiB, SECTOR_SIZE

PAYLOAD = bytes(64 * SECTOR_SIZE)


class CountingRandom(random.Random):
    """The device RNG, counting its draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


class BareDevice(BlockDevice):
    """A device with no logical state: every command is valid, and is
    charged the extra channel time its submitter left in ``bio.wctx``."""

    def _apply(self, bio):
        return bio.wctx

    def _persist(self, bio):
        pass


class GrantStamps:
    """The least tracer that makes the device stamp ``bio.span_grant``."""

    current_parent = -1

    def site(self, layer, op, name):
        return 0

    def complete_io(self, site, start, mark, nbytes, parent):
        pass


def make_bio(op, length, extra):
    if op is Op.READ:
        bio = Bio.read(0, length)
    elif op is Op.WRITE or op is Op.ZONE_APPEND:
        bio = Bio(op, data=memoryview(PAYLOAD)[:length])
    else:
        bio = Bio(op)
    bio.wctx = extra
    return bio


def arrive(sim, commands, submit):
    """Driver process: command ``i`` arrives ``gap_i`` after command ``i-1``."""
    for index, (gap, op, length, extra) in enumerate(commands):
        if gap:
            yield sim.timeout(gap)
        submit(index, op, length, extra)


def model_of(channels, jitter):
    return ServiceTimeModel(read_bandwidth=3265 * MiB,
                            write_bandwidth=1052 * MiB,
                            channels=channels, jitter=jitter)


def run_device(commands, channels, jitter, seed):
    """-> ([(index, grant, completion)] in delivery order, draws, stats)."""
    sim = Simulator()
    device = BareDevice(sim, "bare", 1 << 30, model_of(channels, jitter))
    device._rng = rng = CountingRandom(seed)
    device.tracer = GrantStamps()
    log = []

    def submit(index, op, length, extra):
        def delivered(event):
            bio = event.value
            assert bio.complete_time == sim.now
            log.append((index, bio.span_grant, sim.now))
        device.submit(make_bio(op, length, extra)).add_callback(delivered)
    sim.process(arrive(sim, commands, submit))
    sim.run()
    return log, rng.draws, device.stats


def run_reference(commands, channels, jitter, seed):
    """The same commands through the reference: FIFO grant of one of
    ``channels`` units, occupancy, release, pipeline latency."""
    sim = Simulator()
    model = model_of(channels, jitter)
    rng = CountingRandom(seed)
    units = Resource(sim, channels)
    log = []

    def serve(index, op, length, extra):
        submitted = sim.now
        yield units.request()
        grant = sim.now
        yield sim.timeout(model.occupancy_time(op, length, rng))
        if extra:
            yield sim.timeout(extra)
        units.release()
        pipeline = model.pipeline_latency(op)
        if pipeline:
            yield sim.timeout(pipeline)
        log.append((index, grant, sim.now, op, sim.now - submitted))

    sim.process(arrive(sim, commands, lambda *cmd: sim.process(serve(*cmd))))
    sim.run()
    return log, rng.draws


def tie_groups(log):
    """Delivery order with same-instant deliveries made order-free."""
    groups = defaultdict(list)
    for entry in log:
        groups[entry[2]].append(entry[0])
    return [(instant, sorted(indices)) for instant, indices in groups.items()]


GAPS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2e-4))
LENGTHS = st.integers(1, 64).map(lambda sectors: sectors * SECTOR_SIZE)
EXTRA = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e-3))
COMMANDS = st.lists(
    st.tuples(GAPS,
              st.sampled_from([Op.READ, Op.WRITE, Op.ZONE_APPEND, Op.FLUSH,
                               Op.ZONE_RESET]),
              LENGTHS, EXTRA),
    min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(COMMANDS, st.sampled_from([1, 2, 8]), st.sampled_from([0.0, 0.05]),
       st.integers(0, 2 ** 32))
def test_device_is_a_fifo_k_server(commands, channels, jitter, seed):
    device_log, device_draws, stats = run_device(commands, channels, jitter,
                                                 seed)
    reference_log, reference_draws = run_reference(commands, channels,
                                                   jitter, seed)
    assert len(device_log) == len(reference_log) == len(commands)
    # Per command: channel grant and completion instants, bit for bit.
    expected = {index: (grant, at)
                for index, grant, at, _op, _elapsed in reference_log}
    assert {index: (grant, at) for index, grant, at in device_log} == expected
    # Delivery order, wherever completion instants differ ...
    assert tie_groups(device_log) == tie_groups(reference_log)
    # ... and where they do not: one device's same-instant completions
    # are delivered in submission order.
    assert device_log == sorted(device_log, key=lambda e: (e[2], e[0]))
    # One RNG draw per command that jitters, none otherwise.
    assert device_draws == reference_draws == (len(commands) if jitter else 0)
    # Latency accounting, summed in the delivery order just pinned.
    seconds = {"read": 0.0, "write": 0.0, "other": 0.0}
    for _index, _grant, _at, op, elapsed in sorted(
            reference_log, key=lambda e: (e[2], e[0])):
        kind = "read" if op is Op.READ else \
            "write" if op in (Op.WRITE, Op.ZONE_APPEND) else "other"
        seconds[kind] += elapsed
    assert (stats.read_seconds, stats.write_seconds, stats.other_seconds) \
        == (seconds["read"], seconds["write"], seconds["other"])


def test_saturated_device_queues_in_arrival_order():
    """A fixed case the property's shrinker would call minimal: three
    commands at once on one channel are served back to back."""
    commands = [(0.0, Op.READ, 4096, 0.0)] * 3
    log, draws, _stats = run_device(commands, 1, 0.0, 0)
    occupancy = model_of(1, 0.0).occupancy_time(Op.READ, 4096)
    grants = [grant for _index, grant, _at in log]
    assert [index for index, _grant, _at in log] == [0, 1, 2]
    assert grants == [0.0, 0.0 + occupancy, 0.0 + occupancy + occupancy]
    assert draws == 0


# -- seams of the ``service_delay`` hook ---------------------------------------
#
# The hook's contract is that it runs *at* a command's service start, in
# start order.  A device with no hook computes a whole timeline when a
# command arrives; one with a hook parks what cannot start yet.  The seams
# are where the two meet: a hook installed over a backlog, and one removed
# while commands are parked.

CHANNELS = 2
FLUSH_TIME = model_of(CHANNELS, 0.0).occupancy_time(Op.FLUSH, 0)


def flushes(device, count, into):
    """Submit ``count`` flushes.  A flush has no pipelined latency, so its
    service interval is exactly [``span_grant``, ``complete_time``)."""
    for _ in range(count):
        bio = Bio.flush()
        bio.wctx = 0.0
        into.append(bio)
        device.submit(bio)


def assert_fifo_k_server(bios, channels):
    starts = [bio.span_grant for bio in bios]
    assert starts == sorted(starts)  # submission order is start order
    for bio in bios:
        at = bio.span_grant
        in_service = sum(1 for other in bios
                         if other.span_grant <= at < other.complete_time)
        assert in_service <= channels


class TestServiceDelaySeams:
    def make_device(self, jitter=0.0):
        sim = Simulator()
        return sim, BareDevice(sim, "bare", 1 << 30,
                               model_of(CHANNELS, jitter))

    def test_hook_installed_over_a_backlog_and_removed_while_parked(self):
        sim, device = self.make_device(jitter=0.05)
        bios, calls = [], []

        def slow(dev, bio):
            calls.append((bio, sim.now))
            return 3 * FLUSH_TIME

        def script():
            flushes(device, 6, bios)            # 2 in service, 4 behind them
            yield sim.timeout(FLUSH_TIME / 2)
            handle = device.add_hook("service_delay", slow)
            flushes(device, 4, bios)            # cannot start now: parked
            assert len(device._channel_queue) == 4
            yield sim.timeout(5 * FLUSH_TIME)   # the backlog and 2-3 parked
            assert 0 < len(device._channel_queue) < 4
            device.remove_hook(handle)
            flushes(device, 3, bios)            # behind the parked ones
        sim.process(script())
        sim.run()
        assert all(bio.complete_time is not None for bio in bios)
        assert not device._channel_queue
        assert_fifo_k_server(bios, CHANNELS)
        # The hook ran for exactly the commands that started while it was
        # installed, at their start instant, in start order — and for none
        # accepted before it was: those keep the service they were given.
        assert all(at == bio.span_grant for bio, at in calls)
        called = [bio for bio, _at in calls]
        assert called == bios[6:6 + len(called)] and 2 <= len(called) < 4
        for index, bio in enumerate(bios):
            slowed = bio.complete_time - bio.span_grant > 2 * FLUSH_TIME
            assert slowed == (bio in called), index

    def test_onset_is_honoured_on_a_saturated_device(self):
        """Forty commands arrive at once, long before the plan's onset;
        the ones whose *service* starts after it are slowed.  A delay
        evaluated at arrival would slow none of them."""
        from repro.faults import SlowPlan
        from repro.faults.failslow import degraded_device
        sim, device = self.make_device()
        onset = 7.5 * FLUSH_TIME
        plan = SlowPlan(seed=1, specs=[degraded_device(0, factor=4.0,
                                                       onset_s=onset)])
        plan.arm([device])
        bios = []
        flushes(device, 40, bios)
        sim.run()
        plan.disarm()
        assert_fifo_k_server(bios, CHANNELS)
        before = [bio for bio in bios if bio.span_grant < onset]
        assert len(before) == 8 * CHANNELS and before == bios[:len(before)]
        for bio in bios:
            service = bio.complete_time - bio.span_grant
            factor = 1.0 if bio.span_grant < onset else 4.0
            assert service == pytest.approx(factor * FLUSH_TIME, rel=1e-9)
        assert plan.counts.slowed_commands == {0: 40 - len(before)}

    def test_restored_device_forgets_its_timeline(self, zns):
        """``restore_crash_snapshot`` onto a device with busy channels and
        parked commands: the next command is served now."""
        sim = zns.sim
        snapshot = zns.crash_snapshot()
        zns.add_hook("service_delay", lambda dev, bio: 1e-3)
        stale = []
        for _ in range(zns.model.channels + 3):
            bio = Bio.flush()
            stale.append(bio)
            zns.submit(bio)
        assert len(zns._channel_queue) == 3
        sim.run(until=1e-4)
        zns.restore_crash_snapshot(snapshot)
        assert not zns._channel_queue
        bio = Bio.flush()
        done = zns.submit(bio)
        sim.run()
        assert done.ok and bio.span_grant == 1e-4
        # The parked commands went with the timeline; the rest completed.
        assert [b.complete_time is None for b in stale] == \
            [False] * zns.model.channels + [True] * 3
