"""Unit and integration tests for the mdraid RAID-5 baseline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.block import Bio, Op
from repro.block.device import remove_hooks
from repro.conv import ConventionalSSD
from repro.errors import DataLossError, InvalidAddressError, RaiznError
from repro.mdraid import MdraidVolume, StripeCache
from repro.sim import Simulator
from repro.units import KiB, MiB

from conftest import pattern

CHUNK = 64 * KiB
STRIPE = 4 * CHUNK


def make_md(sim, capacity=16 * MiB, n=5, **kwargs):
    devices = [ConventionalSSD(sim, name=f"c{i}", capacity_bytes=capacity,
                               seed=i) for i in range(n)]
    return MdraidVolume(sim, devices, **kwargs), devices


class TestLayout:
    def test_capacity(self, sim):
        md, _ = make_md(sim)
        assert md.capacity == 4 * 16 * MiB

    def test_parity_rotation(self, sim):
        md, _ = make_md(sim)
        parities = [md.layout(stripe)[0] for stripe in range(5)]
        assert sorted(parities) == [0, 1, 2, 3, 4]

    def test_too_few_devices_rejected(self, sim):
        devices = [ConventionalSSD(sim, capacity_bytes=MiB) for _ in range(2)]
        with pytest.raises(RaiznError):
            MdraidVolume(sim, devices)

    def test_mismatched_capacity_rejected(self, sim):
        devices = [ConventionalSSD(sim, capacity_bytes=MiB) for _ in range(4)]
        devices.append(ConventionalSSD(sim, capacity_bytes=2 * MiB))
        with pytest.raises(RaiznError):
            MdraidVolume(sim, devices)


class TestReadWrite:
    def test_full_stripe_roundtrip(self, sim):
        md, _ = make_md(sim)
        data = pattern(STRIPE, seed=1)
        md.execute(Bio.write(0, data))
        assert md.execute(Bio.read(0, STRIPE)).result == data

    def test_sub_stripe_write_rmw(self, sim):
        md, _ = make_md(sim)
        md.execute(Bio.write(0, pattern(STRIPE, seed=2)))
        patch = pattern(8 * KiB, seed=3)
        md.execute(Bio.write(68 * KiB, patch))
        got = md.execute(Bio.read(64 * KiB, 64 * KiB)).result
        assert got[4 * KiB:12 * KiB] == patch

    def test_random_overwrites(self, sim):
        import random
        md, _ = make_md(sim)
        rng = random.Random(4)
        image = bytearray(2 * STRIPE)
        md.execute(Bio.write(0, bytes(image)))
        for _ in range(30):
            offset = rng.randrange(0, 2 * STRIPE - 4 * KiB, 4 * KiB)
            data = pattern(4 * KiB, seed=rng.randrange(1000))
            image[offset:offset + 4 * KiB] = data
            md.execute(Bio.write(offset, data))
        assert md.execute(Bio.read(0, 2 * STRIPE)).result == bytes(image)

    def test_out_of_range_rejected(self, sim):
        md, _ = make_md(sim)
        with pytest.raises(InvalidAddressError):
            md.execute(Bio.read(md.capacity, 4096))

    def test_zone_ops_rejected(self, sim):
        md, _ = make_md(sim)
        from repro.errors import ZoneStateError
        with pytest.raises(ZoneStateError):
            md.execute(Bio.zone_reset(0))

    def test_discard_forwarded(self, sim):
        md, devices = make_md(sim)
        md.execute(Bio.write(0, pattern(STRIPE, seed=5)))
        md.execute(Bio(Op.DISCARD, offset=0, length=STRIPE))
        assert md.execute(Bio.read(0, STRIPE)).result == bytes(STRIPE)


class TestParityConsistency:
    def _parity_ok(self, md, devices, stripe):
        pba = md.chunk_pba(stripe)
        parity_dev, data_devs = md.layout(stripe)
        chunks = [devices[d].execute(Bio.read(pba, CHUNK)).result
                  for d in data_devs]
        parity = devices[parity_dev].execute(Bio.read(pba, CHUNK)).result
        acc = bytearray(CHUNK)
        for chunk in chunks:
            for i, b in enumerate(chunk):
                acc[i] ^= b
        return bytes(acc) == parity

    def test_parity_after_full_stripe(self, sim):
        md, devices = make_md(sim)
        md.execute(Bio.write(0, pattern(STRIPE, seed=6)))
        assert self._parity_ok(md, devices, 0)

    def test_parity_after_sub_stripe_updates(self, sim):
        md, devices = make_md(sim)
        md.execute(Bio.write(0, pattern(2 * STRIPE, seed=7)))
        md.execute(Bio.write(4 * KiB, pattern(4 * KiB, seed=8)))
        md.execute(Bio.write(STRIPE + 128 * KiB, pattern(32 * KiB, seed=9)))
        assert self._parity_ok(md, devices, 0)
        assert self._parity_ok(md, devices, 1)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 127), st.integers(1, 32)),
                    min_size=1, max_size=12))
    def test_parity_invariant_random_writes(self, writes):
        sim = Simulator()
        md, devices = make_md(sim, capacity=4 * MiB)
        for sector, count in writes:
            offset = sector * 4 * KiB
            nbytes = min(count * 4 * KiB, md.capacity - offset)
            md.execute(Bio.write(offset, pattern(nbytes, seed=sector)))
        touched = set()
        for sector, count in writes:
            start = sector * 4 * KiB // STRIPE
            end = min((sector + count) * 4 * KiB, md.capacity - 1) // STRIPE
            touched.update(range(start, end + 1))
        for stripe in touched:
            assert self._parity_ok(md, devices, stripe)


class TestDegradedAndResync:
    def test_degraded_read(self, sim):
        md, _ = make_md(sim)
        data = pattern(2 * STRIPE, seed=10)
        md.execute(Bio.write(0, data))
        md.fail_device(2)
        assert md.execute(Bio.read(0, 2 * STRIPE)).result == data

    def test_degraded_stripe_read_reads_each_survivor_once(self, sim):
        """Three whole stripes with member 2 failed: where it held data
        the three surviving data chunks serve the read and the XOR, so
        with parity that is four commands; where it held parity, four
        direct reads.  All twelve go out together."""
        md, devices = make_md(sim)
        data = pattern(3 * STRIPE, seed=20)
        md.execute(Bio.write(0, data))
        md.fail_device(2, remove=False)
        submitted = []
        hooks = [dev.add_hook("pre_apply", lambda dev, bio: submitted.append(
            (sim.now, bio.length))) for dev in devices]
        assert md.execute(Bio.read(0, 3 * STRIPE)).result == data
        remove_hooks(hooks)
        assert submitted == [(submitted[0][0], CHUNK)] * 12

    def test_degraded_chunk_reads_in_flight_together_share(self, sim):
        """Four 64 KiB reads of one stripe as four bios, the lost chunk's
        first: its survivor reads serve the other three bios, and a
        second read of the lost chunk gets survivor reads of its own."""
        md, devices = make_md(sim)
        data = pattern(STRIPE, seed=22)
        md.execute(Bio.write(0, data))
        md.fail_device(md.layout(0)[1][0], remove=False)
        before = sum(dev.stats.reads for dev in devices)
        events = [md.submit(Bio.read(c * CHUNK, CHUNK))
                  for c in (0, 1, 2, 3, 0)]
        sim.run()
        assert [event.value.result for event in events] == \
            [data[c * CHUNK:(c + 1) * CHUNK] for c in (0, 1, 2, 3, 0)]
        assert sum(dev.stats.reads for dev in devices) - before == 8
        assert not md._inflight

    @pytest.mark.parametrize("first", [0, 1])
    def test_degraded_read_after_an_overwrite_sees_it(self, sim, first):
        """Chunk ``first`` of a stripe is read (0 is the lost chunk: its
        survivor reads go out), then the whole stripe is overwritten; the
        other chunk is read once the overwrite is acknowledged, while the
        first read's commands are still in flight.  It must not join
        them: they hold the bytes from before the overwrite.  (4 KiB
        chunks: a member acknowledges such a write well before a read.)"""
        chunk = 4 * KiB
        md, _ = make_md(sim, chunk_bytes=chunk)
        md.execute(Bio.write(0, pattern(md.stripe_width, seed=27)))
        md.fail_device(md.layout(0)[1][0], remove=False)
        new = pattern(md.stripe_width, seed=28)
        second = 1 - first
        reads = [md.submit(Bio.read(first * chunk, chunk))]
        write = md.submit(Bio.write(0, new))
        write.add_callback(lambda _event: reads.append(
            md.submit(Bio.read(second * chunk, chunk))))
        sim.run()
        assert write.ok and reads[0].value.complete_time > \
            write.value.complete_time
        assert reads[1].value.result == \
            new[second * chunk:(second + 1) * chunk]
        assert not md._inflight

    def test_degraded_reads_of_any_shape(self, sim):
        """Pieces and lost ranges of every alignment, across stripe
        boundaries."""
        import random
        md, _ = make_md(sim, capacity=4 * MiB)
        data = pattern(4 * STRIPE, seed=21)
        md.execute(Bio.write(0, data))
        md.fail_device(1, remove=False)
        rng = random.Random(5)
        reads = [(56 * KiB, 76 * KiB), (60 * KiB, 8 * KiB)]
        for _ in range(60):
            offset = rng.randrange(0, 4 * STRIPE, 4 * KiB)
            reads.append((offset, rng.randrange(4 * KiB, 4 * STRIPE - offset
                                                + 1, 4 * KiB)))
        for offset, length in reads:
            assert md.execute(Bio.read(offset, length)).result == \
                data[offset:offset + length]

    def test_degraded_write_and_read(self, sim):
        md, _ = make_md(sim)
        md.fail_device(1)
        data = pattern(2 * STRIPE, seed=11)
        md.execute(Bio.write(0, data))
        assert md.execute(Bio.read(0, 2 * STRIPE)).result == data

    def test_degraded_sub_stripe_write(self, sim):
        md, _ = make_md(sim)
        data = pattern(STRIPE, seed=12)
        md.execute(Bio.write(0, data))
        md.fail_device(0)
        patch = pattern(4 * KiB, seed=13)
        md.execute(Bio.write(0, patch))
        expected = patch + data[4 * KiB:]
        assert md.execute(Bio.read(0, STRIPE)).result == expected

    def test_degraded_sub_stripe_write_reads_each_survivor_once(self, sim):
        """A 4 KiB write into the lost chunk: the three surviving data
        chunks and parity, read once, give both the old stripe and the
        lost chunk (seven reads when the lost chunk was rebuilt after
        the others were read)."""
        md, devices = make_md(sim)
        data = pattern(STRIPE, seed=12)
        md.execute(Bio.write(0, data))
        md.fail_device(0)
        reads = sum(dev.stats.reads for dev in devices)
        patch = pattern(4 * KiB, seed=13)
        md.execute(Bio.write(0, patch))
        assert sum(dev.stats.reads for dev in devices) - reads == 4
        assert md.execute(Bio.read(0, STRIPE)).result == \
            patch + data[4 * KiB:]

    def test_flush_skips_a_failed_member(self, sim):
        """A member failed but left in place gets no flush; the flush of
        the others succeeds (it raised DeviceFailedError)."""
        md, devices = make_md(sim)
        md.execute(Bio.write(0, pattern(STRIPE, seed=23)))
        md.fail_device(2, remove=False)
        flushes = [dev.stats.flushes for dev in devices]
        md.execute(Bio.flush())
        assert [dev.stats.flushes - before
                for dev, before in zip(devices, flushes)] == [1, 1, 0, 1, 1]

    def test_second_failure_rejected(self, sim):
        md, _ = make_md(sim)
        md.fail_device(0)
        with pytest.raises(DataLossError):
            md.fail_device(1)

    def test_resync_restores_data_and_redundancy(self, sim):
        md, _ = make_md(sim, capacity=8 * MiB)
        data = pattern(4 * STRIPE, seed=14)
        md.execute(Bio.write(0, data))
        md.fail_device(3)
        replacement = ConventionalSSD(sim, name="new",
                                      capacity_bytes=8 * MiB, seed=99)
        report = md.resync(3, replacement)
        # mdraid resyncs the ENTIRE device, regardless of fill (§6.2).
        assert report.bytes_written == 8 * MiB
        assert md.execute(Bio.read(0, 4 * STRIPE)).result == data
        md.fail_device(0)
        assert md.execute(Bio.read(0, 4 * STRIPE)).result == data

    def test_resync_is_windowed_in_address_order(self, sim):
        """Batches are read ahead and written without waiting for the
        write before — in address order, at a rate the replacement's
        write bandwidth bounds rather than one command's round trip."""
        md, _ = make_md(sim, capacity=32 * MiB)
        md.execute(Bio.write(0, pattern(4 * STRIPE, seed=16)))
        md.fail_device(1)
        replacement = ConventionalSSD(sim, name="new",
                                      capacity_bytes=32 * MiB, seed=97)
        writes, inflight, completed = [], [], []
        hooks = [
            # Outstanding when each write arrives: submitted - completed.
            replacement.add_hook("pre_apply", lambda dev, bio: (
                inflight.append(len(writes) - len(completed)),
                writes.append((bio.offset, bio.length)))),
            replacement.add_hook("completion",
                                 lambda dev, bio: completed.append(bio))]
        report = md.resync(1, replacement)
        remove_hooks(hooks)
        assert len(completed) == len(writes)
        cursor = 0
        for offset, length in writes:
            assert offset == cursor
            cursor += length
        assert cursor == 32 * MiB
        depth = replacement.model.saturating_depth
        assert replacement.model.channels < max(inflight) < depth
        rate = report.bytes_written / report.duration
        assert rate >= 0.6 * replacement.model.write_bandwidth

    def test_write_behind_the_resync_cursor_reaches_the_replacement(self,
                                                                     sim):
        """At 4 ms the resync is past stripe 0; an overwrite of it must
        reach the replacement (it was lost: the array served the
        pre-write bytes after the resync)."""
        md, _ = make_md(sim, capacity=8 * MiB)
        md.execute(Bio.write(0, pattern(4 * STRIPE, seed=24)))
        md.fail_device(3)
        replacement = ConventionalSSD(sim, name="new",
                                      capacity_bytes=8 * MiB, seed=96)
        resync = sim.process(md.resync_process(3, replacement))
        sim.run(until=sim.now + 4e-3)
        new = pattern(STRIPE, seed=25)
        write = md.submit(Bio.write(0, new))
        sim.run()
        assert write.ok and resync.ok
        assert md.execute(Bio.read(0, STRIPE)).result == new

    @pytest.mark.parametrize("start_ms", [0.0, 0.2, 1.0, 3.0])
    def test_writes_during_resync_survive_a_second_replacement(
            self, sim, start_ms):
        """Sub-stripe and full-stripe overwrites of every stripe, issued
        while the resync cursor sweeps past them — behind it, on a batch
        whose reads are out, and ahead of it.  Afterwards every member
        holds its share: with a different member failed, every byte reads
        back as last written."""
        md, devices = make_md(sim, capacity=4 * MiB)
        image = bytearray(pattern(md.capacity, seed=26))
        md.execute(Bio.write(0, bytes(image)))
        md.fail_device(2)
        replacement = ConventionalSSD(sim, name="new",
                                      capacity_bytes=4 * MiB, seed=95)
        resync = sim.process(md.resync_process(2, replacement))
        sim.run(until=sim.now + start_ms * 1e-3)
        events = []
        for stripe in range(md.stripes):
            if stripe % 2:
                offset, length = stripe * STRIPE + 12 * KiB, 8 * KiB
            else:
                offset, length = stripe * STRIPE, STRIPE
            data = pattern(length, seed=1000 + stripe)
            image[offset:offset + length] = data
            events.append(md.submit(Bio.write(offset, data)))
        sim.run()
        assert resync.ok and all(event.ok for event in events)
        md.fail_device(0)
        assert md.execute(Bio.read(0, md.capacity)).result == bytes(image)

    def test_resync_constant_regardless_of_fill(self, sim):
        md, _ = make_md(sim, capacity=8 * MiB)
        md.execute(Bio.write(0, pattern(STRIPE, seed=15)))
        md.fail_device(0)
        replacement = ConventionalSSD(sim, name="new",
                                      capacity_bytes=8 * MiB, seed=98)
        report = md.resync(0, replacement)
        assert report.bytes_written == 8 * MiB

    def test_resync_wrong_capacity_rejected(self, sim):
        md, _ = make_md(sim, capacity=8 * MiB)
        md.fail_device(0)
        replacement = ConventionalSSD(sim, capacity_bytes=4 * MiB)
        with pytest.raises(RaiznError):
            sim.run_process(md.resync_process(0, replacement))


class TestStripeCache:
    def test_lru_eviction(self):
        cache = StripeCache(num_stripes=2, num_data=4)
        cache.put(0, [b""] * 5)
        cache.put(1, [b""] * 5)
        cache.get(0)
        cache.put(2, [b""] * 5)  # evicts 1 (LRU)
        assert cache.get(1) is None
        assert cache.get(0) is not None

    def test_hit_miss_counters(self):
        cache = StripeCache(num_stripes=4, num_data=4)
        cache.put(0, [b""] * 5)
        cache.get(0)
        cache.get(9)
        assert cache.hits == 1 and cache.misses == 1

    def test_cache_avoids_reads_on_repeat_writes(self, sim):
        md, devices = make_md(sim)
        # A full-stripe write populates the stripe cache...
        md.execute(Bio.write(0, pattern(STRIPE, seed=16)))
        reads_before = sum(d.stats.reads for d in devices)
        # ...so subsequent sub-stripe writes need no RMW reads.
        md.execute(Bio.write(4 * KiB, pattern(4 * KiB, seed=17)))
        reads_after = sum(d.stats.reads for d in devices)
        assert reads_after == reads_before

    def test_uncached_small_write_reads_subranges_only(self, sim):
        md, devices = make_md(sim)
        md.execute(Bio.write(0, pattern(STRIPE, seed=18)))
        md.cache.invalidate()
        bytes_before = sum(d.stats.bytes_read for d in devices)
        md.execute(Bio.write(0, pattern(4 * KiB, seed=19)))
        bytes_read = sum(d.stats.bytes_read for d in devices) - bytes_before
        # Sector-granular RMW: old data sector + old parity sector.
        assert bytes_read == 8 * KiB
