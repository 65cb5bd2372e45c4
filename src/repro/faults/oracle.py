"""Durability oracle for crash-state exploration.

The paper's recovery claim (§4.3, §5.1–§5.3) boils down to three
obligations a recovered volume owes the workload that was running when
power died:

* **No acked data lost** — every byte whose FLUSH or FUA acknowledgement
  the workload observed is readable and content-exact.
* **No invented data** — the recovered write pointer never exceeds what
  was actually submitted, and everything below it is a byte-exact prefix
  of the submitted stream (ZNS zones are sequential, so "prefix" is the
  whole consistency story per zone).
* **Stability** — mounting is idempotent: a second mount (or a crash
  after recovery finished) must not move write pointers or change
  content, because recovery declared that state durable.

:class:`WorkloadExpectation` tracks the first two bounds alongside a
*synchronous* workload (each volume op acked before the next is issued —
that restriction is what makes "acked" well-defined without modelling IO
overlap); the ``check_*`` functions compare a mounted volume against it.
"""

from __future__ import annotations

from typing import List

from ..block.bio import Bio
from ..errors import ReproError


class ZoneExpectation:
    """What the workload knows about one logical zone."""

    __slots__ = ("submitted", "synced", "resetting")

    def __init__(self) -> None:
        #: Every byte submitted to the zone, in write order — the upper
        #: bound on what recovery may present (includes unacked tails).
        self.submitted = bytearray()
        #: The acked-durable frontier: bytes below this must survive.
        self.synced = 0
        #: A zone reset was submitted but its ack never arrived; both the
        #: old content (reset never started) and an empty zone (recovery
        #: replayed the reset WAL) are legal outcomes.
        self.resetting = False

    def copy(self) -> "ZoneExpectation":
        dup = ZoneExpectation()
        dup.submitted = bytearray(self.submitted)
        dup.synced = self.synced
        dup.resetting = self.resetting
        return dup


class WorkloadExpectation:
    """Per-zone durability obligations of a running synchronous workload.

    The workload driver calls the ``note_*`` methods at submit/ack time;
    ``copy()`` freezes the model at a crash instant (the crash-point
    explorer snapshots it at every completion boundary it samples).
    """

    def __init__(self, num_zones: int, zone_capacity: int):
        self.zone_capacity = zone_capacity
        self.zones = [ZoneExpectation() for _ in range(num_zones)]

    def copy(self) -> "WorkloadExpectation":
        dup = WorkloadExpectation(0, self.zone_capacity)
        dup.zones = [z.copy() for z in self.zones]
        return dup

    # -- notes from the workload driver ------------------------------------------

    def note_submit_write(self, zone: int, data: bytes) -> None:
        self.zones[zone].submitted.extend(data)

    def note_write_acked(self, zone: int, fua: bool) -> None:
        if fua:
            # FUA persistence is prefix-ordered within the zone: the ack
            # covers this write and everything submitted before it.
            self.zones[zone].synced = len(self.zones[zone].submitted)

    def note_flush_acked(self) -> None:
        # Synchronous workload: every prior write completed before the
        # flush was issued, so the whole submitted stream is now durable.
        for zone in self.zones:
            zone.synced = len(zone.submitted)

    def note_submit_reset(self, zone: int) -> None:
        self.zones[zone].resetting = True

    def note_reset_acked(self, zone: int) -> None:
        self.zones[zone] = ZoneExpectation()

    def next_write_offset(self, zone: int) -> int:
        """Zone-relative offset the next sequential write must target."""
        return len(self.zones[zone].submitted)


# -- checks ----------------------------------------------------------------------


def check_recovered_volume(volume, expect: WorkloadExpectation) -> List[str]:
    """Black-box durability check of a freshly mounted volume.

    Returns human-readable violation strings (empty list = oracle
    passed).  Reads go through the normal volume read path, so parity
    reconstruction and relocation stitching are exercised too; a read-back
    that fails with a ``ReproError`` (say, a stripe with two devices
    unavailable) is a violation for its zone.
    """
    violations: List[str] = []
    for zone in range(volume.num_data_zones):
        exp = expect.zones[zone]
        desc = volume.zone_descs[zone]
        wp = desc.write_pointer - desc.start_lba
        if exp.resetting and wp == 0:
            continue  # recovery completed the interrupted reset
        if not exp.synced <= wp <= len(exp.submitted):
            violations.append(
                f"zone {zone}: recovered write pointer {wp:#x} outside "
                f"legal range [{exp.synced:#x}, {len(exp.submitted):#x}]"
                + (" (reset in flight)" if exp.resetting else ""))
            continue
        if wp == 0:
            continue
        try:
            got = bytes(volume.execute(Bio.read(desc.start_lba, wp)).result)
        except ReproError as exc:
            violations.append(
                f"zone {zone}: read-back of [0, {wp:#x}) failed: "
                f"{type(exc).__name__}: {exc}")
            continue
        want = bytes(exp.submitted[:wp])
        if got != want:
            first_bad = next(
                offset for offset in range(wp) if got[offset] != want[offset])
            violations.append(
                f"zone {zone}: recovered content diverges from the "
                f"submitted stream at zone offset {first_bad:#x} "
                f"(acked frontier {exp.synced:#x}, wp {wp:#x})")
    return violations


def check_mount_stability(volume, remounted) -> List[str]:
    """Recovery must be idempotent: a re-mount changes nothing visible."""
    violations: List[str] = []
    for zone in range(volume.num_data_zones):
        before = volume.zone_descs[zone]
        after = remounted.zone_descs[zone]
        if before.write_pointer != after.write_pointer:
            violations.append(
                f"zone {zone}: write pointer moved across remount "
                f"({before.write_pointer:#x} -> {after.write_pointer:#x})")
            continue
        wp = before.write_pointer - before.start_lba
        if wp == 0:
            continue
        first = bytes(volume.execute(Bio.read(before.start_lba, wp)).result)
        second = bytes(
            remounted.execute(Bio.read(after.start_lba, wp)).result)
        if first != second:
            violations.append(
                f"zone {zone}: content changed across remount")
    return violations


def check_persistence_bitmap_soundness(volume) -> List[str]:
    """White-box §5.3 check: a marked-persistent SU must be durable.

    ``WritePath.flush_unpersisted`` skips SUs the bitmap declares
    persistent, so a set bit over cache-only bytes means a later flush
    ack lies to the workload — exactly the class of bug a missing flush
    in the recovery path produces.  SUs covered by relocation units are
    exempt: their durable home is the metadata log, not the data zone.
    """
    violations: List[str] = []
    su = volume.config.stripe_unit_bytes
    for desc in volume.zone_descs:
        zone = desc.zone
        full_sus = (desc.write_pointer - desc.start_lba) // su
        for su_index in range(full_sus):
            if not desc.persistence.is_persisted(su_index):
                continue
            stripe = su_index // volume.config.num_data
            i = su_index % volume.config.num_data
            if volume.relocations.lookup(
                    volume.mapper.su_lba(zone, stripe, i)) is not None:
                continue
            device = volume.mapper.stripe_layout(zone, stripe).data_devices[i]
            if volume.devices[device] is None or volume.failed[device]:
                continue
            pba_end = zone * volume.phys_zone_size + (stripe + 1) * su
            durable = volume.devices[device].zones[zone].durable_pointer
            if durable < pba_end:
                violations.append(
                    f"zone {zone} SU {su_index}: bitmap says persistent "
                    f"but device {device} durable pointer {durable:#x} < "
                    f"{pba_end:#x}")
    return violations
