"""Where a data stripe unit's valid bytes live (§5.2).

A write that cannot land in place goes to the unit's relocation log, so a
unit's bytes can be split between a prefix on its device and the extents
of its relocation unit.  Every reader takes the pieces
``relocation.unit_sources`` gives (DESIGN decision 16): the reproducer
below is a sibling a degraded read once folded from its device alone, and
the property holds the read path and mount to the acked bytes.
"""

from hypothesis import given, settings, strategies as st

from repro.block import Bio
from repro.faults import fresh_replacement, wear_out_zone
from repro.raizn import rebuild
from repro.raizn.parity import full_stripe_parity
from repro.raizn.rebuild import _device_target_extent
from repro.raizn.recovery import _ZoneContent
from repro.sim import Simulator
from repro.units import KiB

from conftest import TEST_STRIPE_UNIT, make_volume, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


class TestWornMidUnitSibling:
    def test_degraded_read_and_rebuild_take_the_device_prefix(self, sim):
        """errortest --smoke seed 4's shape: device 2's zone wears out
        READ_ONLY 16 KiB into its unit of stripe 0, so the device keeps
        ``[0, 0x4000)`` and a relocation unit takes ``[0x4000, 0x10000)``;
        then device 1 is evicted.  The stripe read reconstructs device 1's
        unit, and rebuild writes that reconstruction onto the replacement."""
        volume, devices = make_volume(sim)
        layout = volume.mapper.stripe_layout(0, 0)
        assert layout.data_devices[1:3] == (1, 2)
        data = pattern(2 * STRIPE, seed=4)
        cut = 2 * SU + 0x4000
        volume.execute(Bio.write(0, data[:cut]))
        wear_out_zone(devices[2], 0, offline=False)
        volume.execute(Bio.write(cut, data[cut:]))
        assert volume.phys[2][0].write_pointer == 0x4000
        assert volume.relocations.lookup(2 * SU).extents == [(0x4000, SU)]

        volume.fail_device(1)
        degraded = volume.execute(Bio.read(0, STRIPE)).result
        rebuild(sim, volume, 1, fresh_replacement(sim, devices[0], "spare"))
        rebuilt = volume.execute(Bio.read(0, STRIPE)).result
        assert degraded == data[:STRIPE]
        assert rebuilt == data[:STRIPE]


# -------------------------------------------------------------- the property

SECTOR = 4 * KiB
IN_UNIT = st.integers(0, SU // SECTOR - 1).map(lambda n: n * SECTOR)
#: What happened to one device's unit of the drawn stripe: nothing; its
#: zone wore out READ_ONLY ``at`` bytes into the unit (worn mid-unit; for
#: the parity device, ``at * num_data`` bytes into the stripe); or a
#: rollback left stale bytes ``[0, at)`` on it and armed its relocation
#: unit, so every write of the unit goes to the unit from its start (the
#: parity device's stale bytes relocate the stripe's parity instead).
SHAPES = st.one_of(
    st.none(), st.tuples(st.just("worn"), IN_UNIT),
    st.tuples(st.just("stale"), IN_UNIT.map(lambda at: at + SECTOR)))


def build(sim, zone, stripe, shapes, fill):
    """A volume whose logical zone ``zone`` holds ``stripe`` full stripes
    and then ``fill`` bytes of stripe ``stripe``, that stripe's units
    shaped by ``shapes`` (one per device).  Returns the volume and the
    acked bytes of the zone."""
    volume, devices = make_volume(sim, num_zones=8, zone_capacity=512 * KiB)
    layout = volume.mapper.stripe_layout(zone, stripe)
    base = volume.zone_capacity * zone
    start = stripe * STRIPE
    data = pattern(start + fill, seed=zone * STRIPE + fill)
    if start:
        volume.execute(Bio.write(base, data[:start]))
    wear = []
    for device, shape in enumerate(shapes):
        if shape is None:
            continue
        kind, at = shape
        parity = device == layout.parity_device
        if kind == "worn":
            wear.append((start + (at * (STRIPE // SU) if parity else
                                  layout.data_devices.index(device) * SU
                                  + at), device))
            continue
        pba = zone * volume.phys_zone_size + stripe * SU
        devices[device].submit(Bio.write(pba, pattern(at, seed=device)))
        sim.run()
        volume.phys[device][zone].write_pointer = pba + at
        if not parity:
            volume.relocations.unit_for(volume.mapper.su_lba(
                zone, stripe, layout.data_devices.index(device)), device,
                zone)
            volume.zone_descs[zone].has_relocations = True
    position = start
    for at, device in sorted(wear) + [(start + fill, None)]:
        if position < at < start + fill or device is None:
            volume.execute(Bio.write(base + position, data[position:at]))
            position = at
        if device is not None and at < start + fill:
            wear_out_zone(devices[device], zone, offline=False)
    return volume, data


def reconstructed(volume, lba, length):
    """The read path's parity reconstruction of ``[lba, lba+length)``,
    one data unit's range, whatever its own device holds."""
    device, _pba = volume.mapper.lba_to_pba(lba)
    zone = volume.mapper.zone_of(lba)
    desc = volume.zone_descs[zone]
    lo = lba % desc.su
    out = []
    volume.readpath.reconstruct(
        device, zone, (lba - desc.start_lba) // desc.stripe_width, 1, lo,
        lo + length,
        lambda recon, exc: out.append(exc or bytes(recon.accumulator)), None)
    volume.sim.run()
    return out[0]


def device_image(volume, data, zone, device):
    """What ``device`` should hold in physical zone ``zone`` for the acked
    ``data`` of the logical zone: its data unit or the parity of each
    stripe, up to ``_device_target_extent``."""
    extent = _device_target_extent(volume, device, zone,
                                   volume.zone_descs[zone].write_pointer)
    image = b""
    for stripe in range(-(-extent // SU)):
        layout = volume.mapper.stripe_layout(zone, stripe)
        units = data[stripe * STRIPE:(stripe + 1) * STRIPE]
        if device == layout.parity_device:
            image += full_stripe_parity(units, len(layout.data_devices))
        else:
            index = layout.data_devices.index(device)
            image += units[index * SU:(index + 1) * SU]
    return image[:extent]


def rebuilt_image(volume, device, zone):
    """What a rebuild of ``device`` writes to its replacement's physical
    zone ``zone``: the chunks ``ZoneStream`` yields for it, in order."""
    template = next(d for d in volume.devices if d is not None)
    replacement = fresh_replacement(volume.sim, template, "spare")
    rebuild(volume.sim, volume, device, replacement)
    start = zone * volume.phys_zone_size
    return replacement._media[start:replacement.zone_info(zone).write_pointer]


SECTORS = STRIPE // SECTOR


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(zone=st.integers(0, 4), stripe=st.integers(0, 1),
       shapes=st.tuples(*[SHAPES] * 5),
       fill=st.one_of(st.just(STRIPE), st.integers(1, SECTORS - 1).map(
           lambda n: n * SECTOR)),
       missing=st.one_of(st.none(), st.integers(0, 4)),
       span=st.tuples(st.integers(0, SECTORS - 1), st.integers(1, SECTORS)))
def test_every_reader_returns_the_acked_bytes(zone, stripe, shapes, fill,
                                              missing, span):
    """One rule for where a unit's valid bytes live (unit_sources): the
    composed read, the read path's parity reconstruction, mount's
    stripe-unit reads and reconstruction, and the rebuild of the missing
    device all return the acked bytes."""
    sim = Simulator()
    volume, data = build(sim, zone, stripe, shapes, fill)
    if missing is not None:
        volume.fail_device(missing)
    layout = volume.mapper.stripe_layout(zone, stripe)
    base = volume.zone_capacity * zone
    start = stripe * STRIPE
    lo = min(span[0] * SECTOR, fill - SECTOR)
    hi = min(max(lo + span[1] * SECTOR, lo + SECTOR), fill)
    assert volume.execute(Bio.read(base + start + lo, hi - lo)).result == \
        data[start + lo:start + hi]

    extents = [None if device == missing else
               volume.phys[device][zone].write_pointer
               - zone * volume.phys_zone_size for device in range(5)]
    content = _ZoneContent(volume, zone, extents, {})
    for index, device in enumerate(layout.data_devices):
        unit = data[start + index * SU:start + min(fill, (index + 1) * SU)]
        if device == missing:
            assert content._data_extent(stripe, index, device) in \
                (None, len(unit))
            continue
        assert content._data_extent(stripe, index, device) == len(unit)
        assert sim.run_process(content._read_su_prefix(
            stripe, index, device, SU)) == unit.ljust(SU, b"\0")

    # Parity is in the stripe buffer, or gone.
    if fill == STRIPE and missing != layout.parity_device:
        for index, device in enumerate(layout.data_devices):
            if missing not in (None, device):
                continue
            unit = data[start + index * SU:start + (index + 1) * SU]
            assert sim.run_process(content._reconstruct_su(
                stripe, layout, index)) == unit
            a, b = max(lo, index * SU), min(hi, (index + 1) * SU)
            if a < b:
                assert reconstructed(volume, base + start + a, b - a) == \
                    data[start + a:start + b]

    if missing is not None:
        assert rebuilt_image(volume, missing, zone) == \
            device_image(volume, data, zone, missing)
