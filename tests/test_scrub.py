"""Background scrubber: latent-error discovery and parity verification."""

from repro.block import Bio
from repro.raizn.maintenance import ScrubReport, run_scrub, scrub_process

from conftest import TEST_STRIPE_UNIT, make_volume, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU


def written_volume(sim, stripes=4, seed=0):
    volume, devices = make_volume(sim)
    data = pattern(stripes * STRIPE, seed=seed)
    volume.execute(Bio.write(0, data))
    volume.execute(Bio.flush())
    return volume, devices, data


class TestCleanScrub:
    def test_scans_all_complete_stripes_and_fixes_nothing(self, sim):
        volume, _devices, _data = written_volume(sim, stripes=4)
        report = run_scrub(sim, volume)
        assert report.stripes_scanned == 4
        assert report.data_heals == 0
        assert report.parity_mismatches == 0
        assert report.parity_media_errors == 0
        assert report.parity_heals == 0

    def test_partial_tail_stripe_not_scanned(self, sim):
        volume, _devices, _ = written_volume(sim, stripes=2)
        volume.execute(Bio.write(2 * STRIPE, pattern(SU, seed=9)))
        report = run_scrub(sim, volume)
        assert report.stripes_scanned == 2

    def test_report_to_dict_keys(self, sim):
        volume, _devices, _ = written_volume(sim, stripes=1)
        report = run_scrub(sim, volume)
        assert report.to_dict() == {
            "stripes_scanned": 1,
            "data_heals": 0,
            "parity_mismatches": 0,
            "parity_media_errors": 0,
            "parity_heals": 0,
            "unreadable_stripes": 0,
        }


class TestDataHeal:
    def test_scrub_heals_latent_data_error(self, sim):
        volume, devices, data = written_volume(sim, stripes=3)
        layout = volume.mapper.stripe_layout(0, 1)
        devices[layout.data_devices[2]].mark_bad(SU, SU)
        report = run_scrub(sim, volume)
        assert report.data_heals == 1
        assert volume.health.heals == 1
        # The next foreground read no longer touches the bad media.
        before = volume.health.media_errors
        assert volume.execute(Bio.read(0, len(data))).result == data
        assert volume.health.media_errors == before


class TestParityHeal:
    def test_scrub_heals_parity_media_error(self, sim):
        volume, devices, data = written_volume(sim, stripes=2)
        parity_device = volume.mapper.stripe_layout(0, 0).parity_device
        devices[parity_device].mark_bad(0, SU)
        report = run_scrub(sim, volume)
        assert report.parity_media_errors == 1
        assert report.parity_heals == 1
        assert (0, 0) in volume.relocated_parity
        assert volume.health.parity_heals == 1
        # The healed parity copy carries a degraded read.
        failed = volume.mapper.stripe_layout(0, 0).data_devices[0]
        volume.fail_device(failed)
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_scrub_fixes_corrupted_relocated_parity(self, sim):
        volume, devices, _data = written_volume(sim, stripes=1)
        parity_device = volume.mapper.stripe_layout(0, 0).parity_device
        devices[parity_device].mark_bad(0, SU)
        run_scrub(sim, volume)
        # Tamper with the authoritative relocated copy; the next pass
        # must notice the mismatch and re-establish the true parity.
        volume.relocated_parity[(0, 0)] = bytes(SU)
        report = run_scrub(sim, volume)
        assert report.parity_mismatches == 1
        assert report.parity_heals == 1
        assert bytes(volume.relocated_parity[(0, 0)]) != bytes(SU)


class TestScrubProcess:
    def test_idle_delay_spreads_the_pass_over_time(self, sim):
        volume, _devices, _ = written_volume(sim, stripes=4)
        began = sim.now
        report = ScrubReport()
        sim.run_process(scrub_process(sim, volume, idle_delay=0.01,
                                      report=report))
        assert report.stripes_scanned == 4
        assert sim.now >= began + 4 * 0.01

    def test_scrub_skips_degraded_parity(self, sim):
        volume, _devices, data = written_volume(sim, stripes=2)
        parity_device = volume.mapper.stripe_layout(0, 0).parity_device
        volume.fail_device(parity_device)
        report = run_scrub(sim, volume)
        # Stripe 0's parity lives on the failed device: nothing to
        # verify or heal until a rebuild recreates it.
        assert report.stripes_scanned == 2
        assert volume.execute(Bio.read(0, len(data))).result == data

    def test_stripe_with_two_unavailable_devices_is_counted_and_passed(
            self, sim):
        """One device failed and a latent sector on a sibling's unit of
        one complete stripe: that stripe cannot be read (two unavailable
        devices under it), and the pass goes on to every other stripe."""
        volume, devices, data = written_volume(sim, stripes=4)
        layout = volume.mapper.stripe_layout(0, 2)
        volume.fail_device(layout.data_devices[0])
        devices[layout.data_devices[1]].mark_bad(2 * SU + 4096, 4096)
        report = run_scrub(sim, volume)
        assert report.unreadable_stripes == 1
        assert report.stripes_scanned == 3
        assert volume.execute(Bio.read(0, 2 * STRIPE)).result == \
            data[:2 * STRIPE]
