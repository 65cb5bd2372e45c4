"""Metadata-zone rotation on a bare ``DeviceMetadataZones``: what holds
the role lock, who waits for a swap zone, and when the old zone is one
again."""

import pytest

from repro.block import Bio, Op
from repro.errors import DeviceFailedError, MetadataError
from repro.raizn.mdzone import DeviceMetadataZones, MetadataRole
from repro.raizn.metadata import MetadataEntry, MetadataType
from repro.units import KiB
from repro.zns import ZNSDevice

PP, GENERAL = MetadataRole.PARTIAL_PARITY, MetadataRole.GENERAL
ZONE = 64 * KiB


def entry(payload_kib=0):
    return MetadataEntry(MetadataType.PARTIAL_PARITY, 0, 0, 1,
                         payload=bytes(payload_kib * KiB))


def make_mdz(sim, zones=3, checkpoint=()):
    """Metadata zones of ``ZONE`` bytes on a device of its own, and the
    log of ``(op, zone, submit instant, completion instant)`` it served;
    every rotation checkpoints the ``checkpoint`` payload sizes (KiB)."""
    device = ZNSDevice(sim, num_zones=zones, zone_capacity=ZONE)
    served = []
    device.add_hook("completion", lambda dev, bio: served.append(
        (bio.op, bio.offset // ZONE, bio.submit_time, bio.complete_time)))
    mdz = DeviceMetadataZones(
        sim, device, 0, list(range(zones)), ZONE, ZONE,
        lambda role, index: [entry(kib) for kib in checkpoint])
    return mdz, served


def fill(sim, mdz, role):
    """Append 4 KiB entries until the role's zone is full."""
    while mdz.used[mdz.role_zone[role]] < ZONE:
        sim.run_process(mdz.append(role, entry()))


class TestSwapInAndReclaim:
    def test_appends_land_while_the_old_zone_is_reclaimed(self, sim):
        """The append that finds the zone full goes out behind the
        checkpoint and completes long before the old zone's reset; the
        role lock is free again at the swap-in instant."""
        mdz, served = make_mdz(sim, checkpoint=(8,))
        fill(sim, mdz, PP)
        old = mdz.role_zone[PP]
        t0 = sim.now
        landed = sim.run_process(mdz.append(PP, entry()))
        assert mdz.role_zone[PP] != old
        # Behind the 12 KiB checkpoint in the new zone.
        assert landed == mdz.role_zone[PP] * ZONE + 12 * KiB
        reset = next(s for s in served if s[0] is Op.ZONE_RESET)
        flush = next(s for s in served if s[0] is Op.FLUSH)
        assert reset[1] == old
        # run_process drained the loop: the append returned at its own
        # completion, the reset (1 ms) only started after the flush.
        appended = [s for s in served if s[0] is Op.ZONE_APPEND and s[2] >= t0]
        assert max(s[3] for s in appended) <= flush[2] <= flush[3] <= reset[2]
        assert reset[3] - t0 >= 1e-3 > max(s[3] for s in appended) - t0
        assert mdz.swap_zones == [old] and mdz.used[old] == 0
        assert mdz.gc_cycles == 1 and mdz.swap_waits == 0
        assert mdz.lock_wait_s == 0.0

    def test_lock_is_held_for_the_swap_in_only(self, sim):
        mdz, _served = make_mdz(sim, checkpoint=(8,))
        fill(sim, mdz, PP)
        done = [mdz.append_async(PP, entry()) for _ in range(4)]
        sim.run()
        assert all(event.ok for event in done)
        # Three appends queued behind the rotating one, for no simulated
        # time at all: the swap-in submits and lets go.
        assert mdz.gc_cycles == 1 and mdz.lock_wait_s == 0.0

    def test_force_gc_returns_with_the_swap_pool_refilled(self, sim):
        mdz, served = make_mdz(sim)
        old = mdz.role_zone[GENERAL]
        sim.run_process(mdz.append(GENERAL, entry()))
        observed = []

        def proc():
            yield from mdz.force_gc(GENERAL)
            observed.append((list(mdz.swap_zones), list(mdz._reclaims),
                             [s[0] for s in served]))
        sim.run_process(proc())
        swap, reclaims, ops = observed[0]
        assert old in swap and len(swap) == 1 and not reclaims
        assert ops[-2:] == [Op.FLUSH, Op.ZONE_RESET]
        assert mdz.gc_cycles == 1


class TestEmptySwapPool:
    def test_both_roles_rotating_share_one_swap_zone(self, sim):
        """Three metadata zones, both logs full at once: the second
        rotation waits for the first one's reclaim instead of raising."""
        mdz, _served = make_mdz(sim)
        fill(sim, mdz, PP)
        fill(sim, mdz, GENERAL)
        done = [mdz.append_async(role, entry()) for role in (PP, GENERAL)]
        sim.run()
        assert [event.ok for event in done] == [True, True]
        assert mdz.gc_cycles == 2 and mdz.swap_waits == 1
        assert len(mdz.swap_zones) == 1 and not mdz._reclaims

    def test_waiting_rotation_keeps_its_appends_queued(self, sim):
        mdz, _served = make_mdz(sim)
        fill(sim, mdz, PP)
        fill(sim, mdz, GENERAL)
        first = mdz.append_async(PP, entry())
        waiting = [mdz.append_async(GENERAL, entry()) for _ in range(3)]
        sim.run()
        assert first.ok and all(event.ok for event in waiting)
        # The general log's rotation held its lock for the rest of the
        # other role's reclaim (flush + 1 ms reset): two appends queued
        # behind it for that long.
        assert mdz.swap_waits == 1
        assert 2e-3 < mdz.lock_wait_s < 3e-3

    def test_no_swap_zone_and_no_reclaim_in_flight_still_raises(self, sim):
        mdz, _served = make_mdz(sim)
        mdz.swap_zones.clear()
        fill(sim, mdz, PP)
        with pytest.raises(MetadataError, match="no swap zone"):
            sim.run_process(mdz.append(PP, entry()))
        # The lock was released on the way out.
        assert mdz._locks[PP].in_use == 0
        with pytest.raises(MetadataError, match="no swap zone"):
            sim.run_process(mdz.force_gc(GENERAL))

    def test_checkpoint_spill_waits_for_a_reclaim_in_flight(self, sim):
        """Five zones, a 72 KiB checkpoint (two zones): the partial-parity
        log's rotation takes two swap zones, the general log's the third —
        and finds the pool empty when its checkpoint spills, with the
        first rotation's reclaim still in flight."""
        mdz, _served = make_mdz(sim, zones=5, checkpoint=(28, 28, 4))
        fill(sim, mdz, PP)
        fill(sim, mdz, GENERAL)
        old = mdz.role_zone[PP], mdz.role_zone[GENERAL]
        done = [mdz.append_async(role, entry()) for role in (PP, GENERAL)]
        sim.run()
        assert [event.ok for event in done] == [True, True]
        assert mdz.swap_waits == 1 and mdz.gc_cycles == 2
        # The general log spilled into the zone the other role gave up.
        assert mdz.role_zone[GENERAL] == old[0]
        assert all(len(mdz.checkpoint_spill[role]) == 1
                   for role in MetadataRole)
        assert mdz.swap_zones == [old[1]] and not mdz._reclaims

    def test_spill_with_nothing_to_wait_for_raises(self, sim):
        mdz, _served = make_mdz(sim, checkpoint=(28, 28, 4))
        fill(sim, mdz, PP)
        with pytest.raises(MetadataError, match="no swap zone"):
            sim.run_process(mdz.append(PP, entry()))


class TestEntryBehindACheckpoint:
    def test_entry_that_does_not_fit_behind_the_checkpoint_moves_on(
            self, sim):
        """A 60 KiB checkpoint leaves 4 KiB of a 64 KiB zone: the 8 KiB
        entry whose append rotated the log takes the next swap zone — here
        the zone the rotation gives back, once reclaimed — and the
        checkpoint's zone stays as spill.  The append does not overrun
        the zone."""
        mdz, _served = make_mdz(sim, checkpoint=(56,))
        fill(sim, mdz, GENERAL)
        old = mdz.role_zone[GENERAL]
        landed = sim.run_process(mdz.append(GENERAL, entry(4)))
        sim.run()
        assert mdz.swap_waits == 1 and mdz.role_zone[GENERAL] == old
        (spill,) = mdz.checkpoint_spill[GENERAL]
        assert mdz.used[spill] == 60 * KiB
        assert landed == mdz.role_zone[GENERAL] * ZONE
        assert mdz.used[mdz.role_zone[GENERAL]] == 8 * KiB
        # Both zones read back as whole entries.
        for zone, sizes in ((spill, [60 * KiB]),
                            (mdz.role_zone[GENERAL], [8 * KiB])):
            data = mdz.device.execute(
                Bio.read(zone * ZONE, mdz.used[zone])).result
            assert [e.total_bytes for e in MetadataEntry.scan(data)] == sizes


class TestReclaimOnADeadDevice:
    def test_reclaim_dies_quietly_and_waiters_hear_the_device(self, sim):
        """The device fails under a reclaim: nothing escapes ``sim.run``,
        the old zone never rejoins the pool, and the rotation waiting for
        it fails its append with the device's own error."""
        mdz, _served = make_mdz(sim)
        fill(sim, mdz, PP)
        fill(sim, mdz, GENERAL)
        first = mdz.append_async(PP, entry())
        second = mdz.append_async(GENERAL, entry())
        sim.schedule(500e-6, mdz.device.fail_device)
        sim.run()
        assert first.ok
        assert not second.ok and isinstance(second.value, DeviceFailedError)
        assert not mdz.swap_zones and not mdz._reclaims
        assert mdz._locks[GENERAL].in_use == 0
