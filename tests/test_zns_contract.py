"""``ZNSDevice`` held to the ZNS contract, command by command.

A hypothesis state machine drives a small device and
``tests/zns_reference.py``'s model in lockstep: writes, appends, reads,
flushes, FUA and preflush writes, resets, finishes, opens, closes, runs of
the event loop for a drawn interval, power cuts to a survivor state drawn
from the *model's* set, and crash snapshots restored later.  After every
step the device and the model must agree on what was accepted (or the
error class of the refusal), on each append's placement and each read's
bytes, on the zone report, on ``survivor_state_space()`` and on the media
below every write pointer.

The device under test counts, per op, the writes and appends that reach
``_apply`` and those the fast admission turned away to the validating
path, so the run shows that both paths were exercised for both ops.  The
mutant devices at the bottom each carry one injected bug the machine
must catch.  Derandomized draws still shift with the local modules
imported (hypothesis mixes their constants in), so the run alone and
inside the whole suite differ: a detection check must hold for any
seed, not for one.
"""

from __future__ import annotations

import collections
import copy
import itertools
import random

import pytest
from hypothesis import HealthCheck, Phase, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule,
                                 run_state_machine_as_test)

from repro.block import Bio, BioFlags, Op
from repro.errors import DeviceError, InvalidAddressError
from repro.sim import Simulator
from repro.units import SECTOR_SIZE
from repro.zns import ZNSDevice

import zns_reference as ref

#: (op, "reached") / (op, "validated") -> commands, over one machine run.
ADMISSIONS: collections.Counter = collections.Counter()


class CountingZNS(ZNSDevice):
    """The device under test, counting which admission each data
    command took."""

    def _apply(self, bio):
        if bio.op is Op.WRITE or bio.op is Op.ZONE_APPEND:
            ADMISSIONS[bio.op, "reached"] += 1
        return super()._apply(bio)

    def _admit(self, bio, append):
        ADMISSIONS[bio.op, "validated"] += 1
        return super()._admit(bio, append)


#: Device geometries, one choice from a list rather than one draw per
#: field: most of the machine's time is hypothesis's own, per draw.
GEOMETRY = st.sampled_from(list(itertools.product(
    (3, 4, 5),                                  # zones
    (8, 13, 24, 40),                            # capacity, in sectors
    (0, 0, 2),                                  # unwritable gap, in sectors
    ((1, 1), (1, 3), (2, 2), (2, 4), (3, 4)),   # open and active limits
    (1, 3, 8),                                  # atomic write unit, sectors
    (None, None, 3))))                          # reset limit
#: Where a data command is aimed, relative to the model's zone, and its
#: length in sectors: at its write pointer (a write) or start (an
#: append), possibly with a part sector of data, or somewhere the device
#: must refuse.
AIM = st.sampled_from(list(itertools.product(
    ["at"] * 6 + ["unaligned", "start", "ahead", "outside"], range(1, 13))))
OPS = st.sampled_from([Op.WRITE, Op.ZONE_APPEND])
#: Simulated seconds to run the device for (None: until it is idle).
INTERVAL = st.sampled_from([0.0, 0.0, 20e-6, 60e-6, 200e-6, 2e-3, None])
#: Zone 0 is the busiest, so zones stay open and writes take the fast
#: admission too; drawn modulo the zone count.
ZONE = st.sampled_from([0, 0, 0, 1, 1, 2, 3, 4])


class ZNSContract(RuleBasedStateMachine):
    device_class = CountingZNS

    def __init__(self):
        super().__init__()
        self.saved = None
        self.next_tag = 0

    @initialize(geometry=GEOMETRY)
    def build(self, geometry):
        """A device of ``zones`` zones of ``capacity`` sectors (plus a
        ``gap`` of unwritable ones), and the model of the same."""
        zones, capacity, gap, (max_open, max_active), awu, reset_limit = \
            geometry
        capacity *= SECTOR_SIZE
        zone_size = capacity + gap * SECTOR_SIZE
        awu *= SECTOR_SIZE
        self.sim = Simulator()
        self.device = self.device_class(
            self.sim, num_zones=zones, zone_capacity=capacity,
            zone_size=zone_size, max_open_zones=max_open,
            max_active_zones=max_active, atomic_write_bytes=awu,
            zone_reset_limit=reset_limit, seed=zones)
        self.model = ref.ReferenceZNS(zones, zone_size, capacity, max_open,
                                      max_active, awu, reset_limit)
        self.payload = random.Random(capacity)

    # -- lockstep ---------------------------------------------------------

    def submit(self, bio: Bio, model_call, *args):
        """Put ``bio`` to the device and the same command to the model;
        both accept it, or both refuse it with the same error class.
        Returns what the model's command yields."""
        tag = self.next_tag
        self.next_tag += 1
        try:
            expected = model_call(tag, *args)
        except DeviceError as exc:      # the refusal the device must give
            expected, refusal = None, type(exc)
        else:
            refusal = None
        bio.errors_as_status = True
        bio.end_io = self.completed
        self.device.submit(bio)
        got = None if bio.error is None else type(bio.error)
        assert got is refusal, f"{bio!r}: device {got}, model {refusal}"
        if refusal is None:
            bio.wctx = tag
        return expected

    def completed(self, bio: Bio) -> None:
        """A device completion; a refused command's is ignored."""
        tag = bio.wctx
        if tag is None:
            return
        if bio.error is None:
            assert tag in self.model.inflight, \
                f"{bio!r} completed, but the power cut lost it"
            self.model.complete(tag)
        else:
            assert tag not in self.model.inflight, \
                f"{bio!r} failed with {bio.error!r} in flight"

    def drain(self) -> None:
        self.sim.run()
        assert not self.model.inflight

    def zone(self, zone: int):
        return self.model.zones[zone % len(self.model.zones)]

    def data_command(self, op, zone, aim, flags):
        where, sectors = aim
        z = self.zone(zone)
        offset = {"at": z.wp if op is Op.WRITE else z.start,
                  "unaligned": z.wp if op is Op.WRITE else z.start,
                  "start": z.start,
                  "ahead": z.wp + SECTOR_SIZE,
                  "outside": self.model.zone_size * len(self.model.zones),
                  }[where]
        length = sectors * SECTOR_SIZE
        if where == "unaligned":
            length += SECTOR_SIZE // 2
        data = self.payload.randbytes(length)
        fua, preflush = bool(flags & BioFlags.FUA), \
            bool(flags & BioFlags.PREFLUSH)
        if op is Op.WRITE:
            self.submit(Bio.write(offset, data, flags), self.model.write,
                        offset, data, fua, preflush, self.sim.now)
            return
        bio = Bio.zone_append(offset, data, flags)
        placed = self.submit(bio, self.model.append, offset, data, fua,
                             preflush, self.sim.now)
        if bio.error is None:
            assert bio.result == placed

    # -- rules (``build`` runs first, so each has a device) ----------------

    @rule(zone=ZONE, aim=AIM)
    def write(self, zone, aim):
        self.data_command(Op.WRITE, zone, aim, BioFlags.NONE)

    @rule(zone=ZONE, aim=AIM)
    def append(self, zone, aim):
        self.data_command(Op.ZONE_APPEND, zone, aim, BioFlags.NONE)

    @rule(op=OPS, zone=ZONE, aim=AIM)
    def fua(self, op, zone, aim):
        self.data_command(op, zone, aim, BioFlags.FUA)

    @rule(op=OPS, zone=ZONE, aim=AIM, also_fua=st.booleans())
    def preflush(self, op, zone, aim, also_fua):
        flags = BioFlags.PREFLUSH | (BioFlags.FUA if also_fua else 0)
        self.data_command(op, zone, aim, flags)

    @rule(zone=ZONE, first=st.integers(0, 40), sectors=st.integers(1, 6))
    def read(self, zone, first, sectors):
        """A read from a drawn sector of the zone's written part, ending
        at most one sector past the write pointer."""
        z = self.zone(zone)
        written = (z.wp - z.start) // SECTOR_SIZE
        first %= written + 1
        offset = z.start + first * SECTOR_SIZE
        length = min(sectors, written - first + 1) * SECTOR_SIZE
        bio = Bio.read(offset, length)
        expected = self.submit(bio, self.model.read, offset, length)
        if bio.error is None:
            assert bytes(bio.result) == expected

    @rule()
    def flush(self):
        self.submit(Bio.flush(), self.model.flush)

    @rule(zone=ZONE, inside=st.sampled_from([0, 0, 0, 1]),
          behind_flush=st.booleans(), rewrite=st.integers(0, 3),
          interval=INTERVAL)
    def reset(self, zone, inside, behind_flush, rewrite, interval):
        """A reset (at the zone start, or a sector in), possibly right
        behind a flush, then ``rewrite`` sectors written at the start
        behind it, and a run for ``interval``: what a flush in flight
        when its zone was reset must not make durable."""
        offset = self.zone(zone).start + inside * SECTOR_SIZE
        if behind_flush:
            self.flush()
        self.submit(Bio.zone_reset(offset), self.model.reset, offset)
        if rewrite:
            self.data_command(Op.WRITE, zone, ("start", rewrite),
                              BioFlags.NONE)
        self.run(interval)

    @rule(zone=ZONE, inside=st.sampled_from([0, 0, 1]))
    def finish(self, zone, inside):
        offset = self.zone(zone).start + inside * SECTOR_SIZE
        self.submit(Bio.zone_finish(offset), self.model.finish, offset)

    @rule(zone=ZONE)
    def open(self, zone):
        offset = self.zone(zone).start
        self.submit(Bio.zone_open(offset), self.model.open, offset)

    @rule(zone=ZONE)
    def close(self, zone):
        offset = self.zone(zone).start
        self.submit(Bio.zone_close(offset), self.model.close, offset)

    @rule(interval=INTERVAL)
    def run(self, interval):
        """Let the device complete what it completes in ``interval``
        simulated seconds (everything, for None)."""
        if interval is None:
            self.drain()
        else:
            self.sim.run(until=self.sim.now + interval)

    @rule(data=st.data(), illegal=st.sampled_from([False] * 7 + [True]),
          stay_off=st.sampled_from([False, False, True]))
    def power_fail_to(self, data, illegal, stay_off):
        """Cut power to survivors drawn from the model's set (now and then
        naming one the model says is not legal), and power on again
        unless the device is to refuse commands until the next cut."""
        survivors = {}
        for index, states in self.model.survivor_space().items():
            pick = data.draw(st.sampled_from([None] + states))
            if pick is not None:
                survivors[index] = pick
        if illegal:
            index = data.draw(st.integers(0, len(self.model.zones) - 1))
            survivors[index] = self.model.zones[index].wp + SECTOR_SIZE
        try:
            self.model.power_fail_to(survivors)
        except InvalidAddressError:
            with pytest.raises(InvalidAddressError):
                self.device.power_fail_to(survivors)
            return
        self.device.power_fail_to(survivors)
        self.drain()        # whatever was in flight fails
        if not stay_off:
            self.device.power_on()
            self.model.power_on()

    @rule(zone=ZONE,
          state=st.sampled_from([None, None, "read_only", "offline"]))
    def end_of_life(self, zone, state):
        """Now and then a zone goes READ_ONLY or OFFLINE by itself."""
        if state is None:
            return
        index = zone % len(self.model.zones)
        if state == "read_only":
            self.device.set_zone_read_only(index)
        else:
            self.device.set_zone_offline(index)
        self.model.end_of_life(index, state)

    @rule(restore=st.booleans())
    def crash_snapshot(self, restore):
        """Take a crash snapshot of the quiesced device, or go back to
        the last one taken."""
        self.drain()
        if not restore:
            self.saved = (self.device.crash_snapshot(),
                          copy.deepcopy(self.model))
        elif self.saved is not None:
            snapshot, model = self.saved
            self.device.restore_crash_snapshot(snapshot)
            self.model = copy.deepcopy(model)

    # -- what must agree after every step ---------------------------------

    @invariant()
    def device_matches_model(self):
        device, model = self.device, self.model
        report = [(z.index, z.start, z.capacity, z.write_pointer,
                   z.state.value) for z in device.report_zones()]
        assert report == model.report()
        assert device.budget.open_count == model.open_count()
        assert device.budget.active_count == model.active_count()
        assert device.survivor_state_space() == model.survivor_space()
        for zone in model.zones:
            assert bytes(device._media[zone.start:zone.wp]) == zone.data


CONTRACT = settings(max_examples=500, stateful_step_count=15,
                    derandomize=True, database=None, deadline=None,
                    report_multiple_bugs=False,
                    suppress_health_check=list(HealthCheck))


def test_device_keeps_the_zns_contract():
    ADMISSIONS.clear()
    run_state_machine_as_test(ZNSContract, settings=CONTRACT)
    for op in (Op.WRITE, Op.ZONE_APPEND):
        validated = ADMISSIONS[op, "validated"]
        fast = ADMISSIONS[op, "reached"] - validated
        assert fast > 0 and validated > 0, (op, fast, validated)


# -- detection power: each mutant carries one bug the machine must catch --


class PersistAcrossResets(ZNSDevice):
    """``_persist`` without decision 13: a flush or FUA write submitted
    before a reset persists the rewritten zone."""

    def _persist(self, bio):
        if bio.aux is not None:
            bio.aux = {index: (end, self._reset_counts.get(index, 0))
                       for index, (end, _resets) in bio.aux.items()}
        super()._persist(bio)


class AppendLeavesZoneClean(ZNSDevice):
    """An append's zone left out of the dirty set."""

    def _apply(self, bio):
        extra = super()._apply(bio)
        if bio.op is Op.ZONE_APPEND:
            self._dirty_zones.discard(bio.offset // self.zone_size)
        return extra


class TailOffByOne(ZNSDevice):
    """``zone_survivor_states``' sub-unit tail survivor one byte short."""

    def zone_survivor_states(self, index):
        states = super().zone_survivor_states(index)
        zone = self.zones[index]
        cached = zone.write_pointer - zone.durable_pointer
        if cached > 0 and cached % self.atomic_write_bytes:
            states[-1] -= 1
        return states


@pytest.mark.parametrize("mutant", [PersistAcrossResets,
                                    AppendLeavesZoneClean, TailOffByOne])
def test_machine_catches(mutant):
    """Unshrunk: detection is the point, not the smallest example."""
    machine = type(f"ZNSContract{mutant.__name__}", (ZNSContract,),
                   {"device_class": mutant})
    with pytest.raises(AssertionError):
        run_state_machine_as_test(
            machine, settings=settings(CONTRACT, phases=[Phase.generate]))
