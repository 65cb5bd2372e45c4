"""Power-loss settle edge cases and the durability bugfix regressions.

Covers the zone-state corners of ``_settle_zone_to`` (FULL-by-write vs
FULL-by-FINISH, EMPTY restore, READ_ONLY/OFFLINE passthrough), the
FUA zone-append durable-prefix fix in ``ZNSDevice._persist``, and the
explicit writability check in ``_apply_finish``.
"""

import random

import pytest

from repro.block import Bio, BioFlags
from repro.errors import ZoneStateError
from repro.units import KiB, MiB, SECTOR_SIZE
from repro.zns import ZNSDevice, ZoneState

from conftest import pattern


class TestSettleStates:
    def test_full_by_write_with_durable_data_stays_full(self, zns):
        zns.execute(Bio.write(0, pattern(MiB, seed=1)))
        zns.execute(Bio.flush())
        zns.power_fail(random.Random(7))
        zns.power_on()
        zone = zns.zone_info(0)
        assert zone.state is ZoneState.FULL
        assert zone.write_pointer == MiB

    def test_full_by_write_unflushed_tail_can_roll_back_to_closed(self, zns):
        """A zone filled by writes whose tail was only cached is FULL at
        crash time, but losing the tail must demote it to CLOSED."""
        zns.execute(Bio.write(0, pattern(MiB - 8 * KiB, seed=2),
                              BioFlags.FUA))
        zns.execute(Bio.write(MiB - 8 * KiB, pattern(8 * KiB, seed=3)))
        assert zns.zone_info(0).state is ZoneState.FULL
        zns.power_fail_to({0: MiB - 8 * KiB})
        zns.power_on()
        zone = zns.zone_info(0)
        assert zone.state is ZoneState.CLOSED
        assert zone.write_pointer == MiB - 8 * KiB

    def test_full_by_finish_reverts_to_closed(self, zns):
        """ZONE_FINISH is a volatile state transition: a finished zone
        with a partial write pointer comes back CLOSED, not FULL."""
        zns.execute(Bio.write(0, pattern(64 * KiB, seed=4), BioFlags.FUA))
        zns.execute(Bio.zone_finish(0))
        assert zns.zone_info(0).state is ZoneState.FULL
        assert zns.zones[0].finished_by_command
        zns.power_fail(random.Random(7))
        zns.power_on()
        zone = zns.zone_info(0)
        assert zone.state is ZoneState.CLOSED
        assert zone.write_pointer == 64 * KiB
        assert not zns.zones[0].finished_by_command

    def test_finished_empty_zone_reverts_to_empty(self, zns):
        zns.execute(Bio.zone_finish(0))
        assert zns.zone_info(0).state is ZoneState.FULL
        zns.power_fail(random.Random(7))
        zns.power_on()
        assert zns.zone_info(0).state is ZoneState.EMPTY

    def test_fully_cached_zone_restores_to_empty(self, zns):
        """Losing every cached byte of a never-flushed zone must return
        it to EMPTY with the write pointer back at the zone start."""
        zns.execute(Bio.write(0, pattern(16 * KiB, seed=5)))
        zns.power_fail_to({0: 0})
        zns.power_on()
        zone = zns.zone_info(0)
        assert zone.state is ZoneState.EMPTY
        assert zone.write_pointer == 0

    def test_read_only_zone_passes_through_settle(self, zns):
        zns.execute(Bio.write(0, pattern(32 * KiB, seed=6), BioFlags.FUA))
        zns.set_zone_read_only(0)
        zns.power_fail(random.Random(7))
        zns.power_on()
        zone = zns.zone_info(0)
        assert zone.state is ZoneState.READ_ONLY
        assert zone.write_pointer == 32 * KiB

    def test_offline_zone_passes_through_settle(self, zns):
        zns.set_zone_offline(3)
        zns.power_fail(random.Random(7))
        zns.power_on()
        assert zns.zone_info(3).state is ZoneState.OFFLINE


class TestFuaAppendDurability:
    def test_fua_append_persists_exact_prefix(self, zns):
        """Regression: the durable end of a FUA append is derived from the
        placement address (``bio.result``), not the zone-start offset —
        the old ``(bio.result or 0)`` fallback could compute a bogus
        device-absolute prefix."""
        zns.execute(Bio.write(0, pattern(8 * KiB, seed=8)))
        bio = zns.execute(Bio.zone_append(0, pattern(4 * KiB, seed=9),
                                          BioFlags.FUA))
        assert bio.result == 8 * KiB
        zone = zns.zones[0]
        # The FUA append makes the whole prefix durable (prefix ordering).
        assert zone.durable_pointer == 12 * KiB
        zns.power_fail_to({})
        zns.power_on()
        assert zns.zone_info(0).write_pointer == 12 * KiB
        assert zns.execute(Bio.read(8 * KiB, 4 * KiB)).result == \
            pattern(4 * KiB, seed=9)

    def test_fua_append_into_nonzero_zone_index(self, zns):
        """The append placement address is device-absolute; the persisted
        prefix must land in the right zone."""
        bio = zns.execute(Bio.zone_append(2 * MiB, pattern(4 * KiB, seed=10),
                                          BioFlags.FUA))
        assert bio.result == 2 * MiB
        assert zns.zones[2].durable_pointer == 2 * MiB + 4 * KiB
        assert 2 not in zns.survivor_state_space()

    def test_fua_append_never_placed_persists_nothing(self, zns):
        """A FUA append's durable end is recorded when the device places
        it; one that never reached the device has no bogus prefix to
        persist."""
        zns.execute(Bio.write(0, pattern(8 * KiB, seed=11)))
        bio = Bio.zone_append(0, pattern(SECTOR_SIZE, seed=11), BioFlags.FUA)
        zns._persist(bio)
        assert zns.zones[0].durable_pointer == 0


class TestFinishWritability:
    def test_finish_read_only_zone_rejected(self, zns):
        zns.execute(Bio.write(0, pattern(4 * KiB, seed=12), BioFlags.FUA))
        zns.set_zone_read_only(0)
        with pytest.raises(ZoneStateError):
            zns.execute(Bio.zone_finish(0))

    def test_finish_offline_zone_rejected(self, zns):
        zns.set_zone_offline(1)
        with pytest.raises(ZoneStateError):
            zns.execute(Bio.zone_finish(MiB))

    def test_finish_full_zone_is_noop(self, zns):
        zns.execute(Bio.write(0, pattern(MiB, seed=13)))
        assert zns.zone_info(0).state is ZoneState.FULL
        zns.execute(Bio.zone_finish(0))
        assert zns.zone_info(0).state is ZoneState.FULL
