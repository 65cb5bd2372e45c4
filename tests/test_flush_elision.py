"""Flush elision (DESIGN.md, "What a FLUSH costs"): an ``Op.FLUSH`` sends
a device flush only where one would change something — the device has
accepted a volatile write since the last flush it completed — and a unit
whose FUA write is still in flight is left for that write to seal.
Device truth (``durable_pointer``) is the oracle for every
acknowledgement, beside the white-box check that no unit the bitmap
marks persisted is volatile on its device.
"""

import collections

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.block import Bio, BioFlags, Op
from repro.block.device import BlockDevice
from repro.errors import DeviceError, TransientCommandError
from repro.faults import fresh_replacement
from repro.faults.oracle import check_persistence_bitmap_soundness
from repro.raizn import mount, rebuild
from repro.raizn.mdzone import MetadataRole
from repro.raizn.writepath import WritePath
from repro.sim import Simulator
from repro.trace import MetricsRegistry
from repro.units import KiB

from conftest import TEST_STRIPE_UNIT, make_volume, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU
FUA = BioFlags.FUA
DURABLE = BioFlags.FUA | BioFlags.PREFLUSH


class Run:
    """One array with every device command watched: flushes logged per
    device, writes tracked from acceptance to completion."""

    def __init__(self, num_zones=8):
        self.sim = Simulator()
        self.volume, devices = make_volume(self.sim, num_zones=num_zones)
        self.flushed = []                   # device names, in submit order
        #: id(bio) -> (device, zone, start, bio); the bio rides along so
        #: its id is not reused while the entry stands.
        self.inflight = {}
        for device in devices:
            self.watch(device)

    def watch(self, device):
        device.add_hook("pre_apply", self.accepted)
        device.add_hook("completion", self.completed)

    def accepted(self, device, bio):
        if bio.op is Op.FLUSH:
            self.flushed.append(device.name)
        elif bio.op is Op.WRITE or bio.op is Op.ZONE_APPEND:
            zone = device.zones[bio.offset // device.zone_size]
            start = bio.offset if bio.op is Op.WRITE else zone.write_pointer
            self.inflight[id(bio)] = (device, zone, start, bio)

    def completed(self, device, bio):
        self.inflight.pop(id(bio), None)

    @property
    def alive(self):
        volume = self.volume
        return [volume.devices[slot] for slot in volume._alive_devices()]

    def pointers(self):
        """Every alive device's zone write pointers, right now."""
        return [(device, [zone.write_pointer for zone in device.zones])
                for device in self.alive]

    def check_flush_ack(self, pointers):
        """The guarantee a FLUSH acknowledgement makes, in device terms:
        each zone is durable up to where it stood at ``pointers`` — short
        of a write still in flight to it, or of a reset since."""
        lowest = {}
        for device, zone, start, _bio in self.inflight.values():
            key = (device, zone.index)
            lowest[key] = min(start, lowest.get(key, start))
        for device, then in pointers:
            if device.failed or device not in self.alive:
                continue
            for zone, pointer in zip(device.zones, then):
                need = min(pointer, zone.write_pointer,
                           lowest.get((device, zone.index), pointer))
                assert zone.durable_pointer >= need, (
                    f"FLUSH acked with {device.name} zone {zone.index} "
                    f"durable to {zone.durable_pointer:#x} < {need:#x}")

    def check_fua_ack(self, zone, end):
        """What an acknowledged FUA write vouches for, in device terms:
        its zone's bytes below ``end`` are durable wherever they sit."""
        volume = self.volume
        for su_index in range(-(-end // SU)):
            slot = volume.mapper.stripe_layout(
                zone, su_index // 4).data_devices[su_index % 4]
            if not volume._device_available(slot, zone) or \
                    volume.relocations.lookup(
                        zone * volume.zone_capacity + su_index * SU):
                continue    # covered by parity, or lives in the log (§5.2)
            need = zone * volume.phys_zone_size + su_index // 4 * SU \
                + min(SU, end - su_index * SU)
            durable = volume.devices[slot].zones[zone].durable_pointer
            assert durable >= need, (
                f"FUA write acked with SU {su_index} of zone {zone} on "
                f"{volume.devices[slot].name} durable to {durable:#x} "
                f"< {need:#x}")

    def flushes_during(self, bio):
        """Execute ``bio``; the device flushes it caused, sorted."""
        before = len(self.flushed)
        self.volume.execute(bio)
        return sorted(self.flushed[before:])


# ------------------------------------------------------------ unit cases


def test_all_fua_traffic_flush_issues_nothing_and_still_takes_a_hop():
    run = Run()
    volume, sim = run.volume, run.sim
    volume.execute(Bio.flush())             # a fresh volume owes one each
    for index in range(20):
        volume.execute(Bio.write(index * 4 * KiB, pattern(4 * KiB, index),
                                 DURABLE))
    del run.flushed[:]
    t0 = sim.now
    done = volume.submit(Bio.flush())
    assert not done.triggered               # never inside ``submit``
    sim.run()
    assert done.ok and done.value.complete_time == t0 == sim.now
    assert run.flushed == []
    assert volume.writepath.flushes_elided == 5


def test_one_plain_write_flushes_its_data_device_and_its_parity_log():
    run = Run()
    volume = run.volume
    volume.execute(Bio.flush())
    volume.execute(Bio.write(0, pattern(4 * KiB, 1)))
    layout = volume.mapper.stripe_layout(0, 0)
    expect = sorted(volume.devices[slot].name for slot in
                    (layout.data_devices[0], layout.parity_device))
    assert run.flushes_during(Bio.flush()) == expect
    assert run.flushes_during(Bio.flush()) == []


def test_freshly_mounted_volume_flushes_everything_once():
    run = Run()
    run.volume.execute(Bio.write(0, pattern(STRIPE, 2), DURABLE))
    remounted = mount(run.sim, list(run.volume.devices))
    del run.flushed[:]
    run.volume = remounted
    assert len(run.flushes_during(Bio.flush())) == 5
    assert run.flushes_during(Bio.flush()) == []


def test_failed_flush_leaves_the_device_owed():
    run = Run()
    volume = run.volume
    volume.execute(Bio.flush())
    volume.execute(Bio.write(0, pattern(4 * KiB, 3)))
    victim = volume.devices[
        volume.mapper.stripe_layout(0, 0).data_devices[0]]

    def refuse(device, bio):
        if bio.op is Op.FLUSH:
            raise TransientCommandError("injected")

    handle = victim.add_hook("pre_apply", refuse)
    failed = volume.submit(Bio.flush())
    run.sim.run()
    assert failed.triggered and not failed.ok
    victim.remove_hook(handle)
    # The parity log's device completed its flush and is settled; the
    # one that did not is not.
    assert run.flushes_during(Bio.flush()) == [victim.name]
    assert all(zone.durable_pointer == zone.write_pointer
               for zone in victim.zones)


def test_second_flush_behind_one_in_flight_issues_its_own():
    run = Run()
    volume, sim = run.volume, run.sim
    volume.execute(Bio.flush())
    volume.execute(Bio.write(0, pattern(STRIPE, 4)))
    del run.flushed[:]
    first = volume.submit(Bio.flush())
    second, sent_before = [], []

    def submit_second():
        sent_before.append(len(run.flushed))
        second.append(volume.submit(Bio.flush()))

    sim.schedule(20e-6, submit_second)
    sim.run()
    # Nothing had completed when the second went out: it owes all five,
    # and hears nothing before its own commands are back.
    assert sent_before == [5] and len(run.flushed) == 10
    first, second = first.value, second[0].value
    assert second.complete_time > first.complete_time
    assert second.complete_time - second.submit_time > 100e-6


def test_rebuilt_slot_starts_owed():
    run = Run()
    volume = run.volume
    volume.execute(Bio.write(0, pattern(2 * STRIPE, 5), DURABLE))
    volume.execute(Bio.flush())
    volume.fail_device(1)
    replacement = fresh_replacement(run.sim, volume.devices[0], "new")
    run.watch(replacement)
    rebuild(run.sim, volume, 1, replacement)
    # Every record is dropped with the membership change, so each slot is
    # flushed once more — the replacement (whose own count started from
    # zero, below what its slot had seen) among them.
    assert "new" in run.flushes_during(Bio.flush())
    assert run.flushes_during(Bio.flush()) == []


def test_counters_reach_the_registry():
    run = Run()
    volume = run.volume
    volume.execute(Bio.flush())
    volume.execute(Bio.write(0, pattern(4 * KiB, 8)))
    volume.execute(Bio.flush())
    flat = MetricsRegistry.for_volume(volume).flat()
    assert flat["writepath.flushes_issued"] == 7
    assert flat["writepath.flushes_elided"] == 3
    assert flat["writepath.units_sealed"] == 0
    assert flat["writepath.flushes_issued"] == sum(
        flat[f"device.{device.name}.flushes"] for device in volume.devices)
    data_device = volume.devices[
        volume.mapper.stripe_layout(0, 0).data_devices[0]]
    assert flat[f"device.{data_device.name}.volatile_writes"] == \
        data_device.volatile_writes > 0


# -------------------------------------------------------------- property

ZONES = 3
SIZES = st.sampled_from([4 * KiB, 4 * KiB, 8 * KiB, 28 * KiB, SU,
                         SU + 4 * KiB, STRIPE])


def scripts(flags):
    return st.lists(st.one_of(
        st.tuples(st.just("write"), st.integers(0, ZONES - 1), SIZES,
                  st.sampled_from(flags)),
        st.tuples(st.just("write"), st.integers(0, ZONES - 1), SIZES,
                  st.sampled_from(flags)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("flush")),
        st.tuples(st.just("reset"), st.integers(0, ZONES - 1)),
        st.tuples(st.just("rotate"), st.integers(0, 4),
                  st.sampled_from(list(MetadataRole))),
        st.tuples(st.just("fail"), st.integers(0, 4)),
        st.tuples(st.just("replace")),
    ), min_size=4, max_size=60)


#: Mixed traffic, and the all-durable traffic in which devices stay clean
#: and every elision decision is about a FUA write in flight.
OPS = st.sampled_from([(BioFlags.NONE, BioFlags.NONE, FUA, DURABLE),
                       (BioFlags.NONE, FUA, DURABLE, DURABLE, DURABLE),
                       (FUA, DURABLE)]).flatmap(scripts)


class Script(Run):
    """A closed loop over ``ops`` at ``depth``; a reset, the device
    failure and the rebuild drain it first (a write whose log append is
    in flight on a device as it dies fails, and the stream with it).
    Keeps what a client may rely on: the bytes it sent, per zone, and how
    far an acknowledgement vouched for them."""

    def __init__(self, ops, depth):
        super().__init__()
        self.depth = depth
        self.sent = [bytearray() for _ in range(ZONES)]
        #: Contiguous prefix of acknowledged writes, per zone.
        self.acked = [0] * ZONES
        #: Per zone, offset -> size of writes acknowledged ahead of it.
        self._done = [{} for _ in range(ZONES)]
        #: Prefix a FUA write or a FLUSH has vouched for, per zone.
        self.durable = [0] * ZONES
        self.lost = None
        self.rotated = self.replaced = False
        segment = []
        for op in ops:
            if op[0] in ("reset", "fail", "replace"):
                self.loop(segment)
                segment = []
                self.barrier(op)
            else:
                segment.append(op)
        self.loop(segment)

    # -- the loop -----------------------------------------------------------

    def loop(self, ops):
        pending = collections.deque(ops)
        out = [0]

        def pump(_event=None):
            while pending and out[0] < self.depth:
                event = self.start(pending.popleft())
                if event is not None:
                    out[0] += 1
                    event.add_callback(lambda _ev: (
                        out.__setitem__(0, out[0] - 1), pump()))

        pump()
        self.sim.run()
        assert not pending and not out[0], "closed loop stalled"

    def start(self, op):
        volume = self.volume
        if op[0] == "write":
            _kind, zone, size, flags = op
            sent = self.sent[zone]
            if len(sent) + size > volume.zone_capacity:
                return None
            offset = len(sent)
            data = pattern(size, seed=zone * 7919 + offset)
            sent += data
            done = volume.submit(Bio.write(
                zone * volume.zone_capacity + offset, data, flags))
            done.add_callback(lambda ev: self.write_acked(
                ev, zone, offset, size, flags))
            return done
        if op[0] == "flush":
            vouched = list(self.acked)
            pointers = self.pointers()
            done = volume.submit(Bio.flush())
            done.add_callback(lambda ev: self.flush_acked(
                ev, vouched, pointers))
            return done
        if op[0] == "rotate" and not self.rotated:
            mdz = volume.mdzones[op[1]]
            if mdz is not None:
                self.rotated = True
                self.sim.process(self.rotation(mdz, op[2]))
        return None

    @staticmethod
    def rotation(mdz, role):
        try:
            yield from mdz.force_gc(role)
        except DeviceError:
            pass    # the script failed its device under it

    def write_acked(self, event, zone, offset, size, flags):
        assert event.ok, event.value
        done = self._done[zone]
        done[offset] = size
        while self.acked[zone] in done:
            self.acked[zone] += done.pop(self.acked[zone])
        if flags & FUA:
            self.check_fua_ack(zone, offset + size)
            self.durable[zone] = max(self.durable[zone], offset + size)
        self.check_bitmap()

    def flush_acked(self, event, vouched, pointers):
        assert event.ok, event.value
        self.check_flush_ack(pointers)
        self.durable = [max(pair) for pair in zip(self.durable, vouched)]
        self.check_bitmap()

    def check_bitmap(self):
        """A unit marked persisted is durable on its device: the next FUA
        write skips that device on the bitmap's word."""
        violations = check_persistence_bitmap_soundness(self.volume)
        assert not violations, violations[0]

    def barrier(self, op):
        volume = self.volume
        if op[0] == "reset":
            zone = op[1]
            volume.execute(Bio.zone_reset(zone * volume.zone_capacity))
            self.sent[zone] = bytearray()
            self.acked[zone] = self.durable[zone] = 0
        elif op[0] == "fail":
            if self.lost is None:
                self.lost = op[1]
                volume.fail_device(self.lost)
        elif self.lost is not None and not self.replaced:
            self.replaced = True
            replacement = fresh_replacement(
                self.sim, next(d for d in volume.devices if d is not None),
                "new")
            self.watch(replacement)
            rebuild(self.sim, volume, self.lost, replacement)

    # -- the crash ----------------------------------------------------------

    def crash_and_check(self):
        """Every cache lost whole; what an acknowledgement vouched for
        must be there, and nothing that was never sent."""
        volume = self.volume
        devices = [None if volume.failed[slot] else device
                   for slot, device in enumerate(volume.devices)]
        for device in devices:
            if device is not None:
                device.power_fail_to({})
        for device in devices:
            if device is not None:
                device.power_on()
        remounted = mount(self.sim, devices)
        for zone in range(ZONES):
            pointer = remounted.zone_info(zone).write_pointer \
                - zone * volume.zone_capacity
            assert self.durable[zone] <= pointer <= len(self.sent[zone]), (
                f"zone {zone}: recovered {pointer:#x}, vouched "
                f"{self.durable[zone]:#x}, sent {len(self.sent[zone]):#x}")
            if pointer:
                got = remounted.execute(Bio.read(
                    zone * volume.zone_capacity, pointer)).result
                assert bytes(got) == bytes(self.sent[zone][:pointer])


PROPERTY = settings(max_examples=250, deadline=None, derandomize=True,
                    database=None, report_multiple_bugs=False,
                    suppress_health_check=list(HealthCheck))


@PROPERTY
@given(OPS, st.integers(1, 16))
def test_flush_acks_are_true_and_survive_a_crash(ops, depth):
    Script(ops, depth).crash_and_check()


def assert_property_fails(match):
    """The property, with a bug injected, fails on ``match`` (unshrunk:
    detection is the point, not the smallest example)."""
    unshrunk = settings(PROPERTY, phases=[Phase.generate])(
        given(OPS, st.integers(1, 16))(
            test_flush_acks_are_true_and_survive_a_crash.hypothesis
            .inner_test))
    with pytest.raises(AssertionError, match=match):
        unshrunk()


def test_property_fails_without_the_count(monkeypatch):
    """Detection power: a device that never reports a volatile write is
    never owed a flush after its first."""
    monkeypatch.setattr(BlockDevice, "volatile_writes",
                        property(lambda self: 0, lambda self, value: None),
                        raising=False)
    assert_property_fails("FLUSH acked with")


def test_property_fails_when_a_flush_marks_a_device_it_did_not_flush(
        monkeypatch):
    """Detection power for the marking rule: an ``Op.FLUSH`` that marks
    every unit below the write pointer, flushed or not, marks units
    whose FUA write is still in flight — and device truth alone sees a
    FUA write acknowledged over one (the white-box check, which would
    see the mark first, is off)."""
    make_join = WritePath._join

    def flush_claims_every_device(self, bio, done, desc):
        join = make_join(self, bio, done, desc)
        if desc is None:
            join.durable_devices.update(range(len(self.volume.devices)))
        return join

    monkeypatch.setattr(WritePath, "_join", flush_claims_every_device)
    monkeypatch.setattr(Script, "check_bitmap", lambda self: None)
    assert_property_fails("FUA write acked with")


def test_property_fails_when_a_plain_piece_seals(monkeypatch):
    """Detection power for the seal: only a FUA piece's completion makes
    its unit durable; a plain piece that ends a unit leaves it in the
    device cache."""
    device_write = WritePath._device_write

    def sealing_plain_pieces(self, piece):
        desc = piece.desc
        if piece.stripe is None and not piece.flags and not (
                piece.lba + len(piece.data) - desc.start_lba) % desc.su:
            piece.seal = (desc.su_index_of(piece.lba),
                          self.volume.generation[desc.zone])
        return device_write(self, piece)

    monkeypatch.setattr(WritePath, "_device_write", sealing_plain_pieces)
    assert_property_fails("bitmap says persistent")
