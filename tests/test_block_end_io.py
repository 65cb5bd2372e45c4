"""``Bio.end_io``: completion as a callback on the bio, as in the kernel.

A submitter that sets ``end_io`` hears of every outcome through it —
success, rejection at submission, a command cut down mid-flight — as
status on the bio, at exactly the point in the event order where the
event adapter's waiter would have run.
"""

import pytest

from repro.block import Bio
from repro.errors import (DeviceFailedError, InvalidAddressError,
                          PowerLossError, TransientCommandError)

from conftest import pattern


def status_read(end_io, length=4096):
    bio = Bio.read(0, length)
    bio.errors_as_status = True
    bio.end_io = end_io
    return bio


def written(zns, length=64 * 1024):
    zns.execute(Bio.write(0, pattern(length, seed=7)))
    return zns


def transient(device, bio):
    raise TransientCommandError("injected")


REJECTIONS = {
    "failed": (lambda zns: zns.fail_device(), 4096, DeviceFailedError),
    "powered_off": (lambda zns: zns.power_off(), 4096, PowerLossError),
    "pre_apply_raises": (lambda zns: zns.add_hook("pre_apply", transient),
                         4096, TransientCommandError),
    "misaligned": (lambda zns: None, 1000, InvalidAddressError),
}


class TestRejectedAtSubmission:
    @pytest.mark.parametrize("delivery", ["end_io", "event"])
    @pytest.mark.parametrize("case", REJECTIONS)
    def test_two_zero_delay_hops(self, zns, case, delivery):
        """Neither inside ``submit`` nor one hop later: work queued right
        after the submission runs first, work queued by *that* after —
        the same for the callback as for the event adapter's waiter."""
        arrange, length, error = REJECTIONS[case]
        sim = written(zns).sim
        arrange(zns)
        log = []

        def delivered(bio):
            assert isinstance(bio.error, error)
            assert bio.complete_time == sim.now and bio.result is None
            log.append("delivered")

        def neighbour():
            log.append("neighbour")
            sim.schedule(0.0, log.append, "its successor")
        if delivery == "end_io":
            assert zns.submit(status_read(delivered, length)) is None
        else:
            bio = status_read(None, length)
            zns.submit(bio).add_callback(lambda ev: delivered(ev.value))
        assert log == []
        sim.schedule(0.0, neighbour)
        reads, submitted_at = zns.stats.reads, sim.now
        sim.run()
        assert log == ["neighbour", "delivered", "its successor"]
        # Not counted, and it took no simulated time.
        assert zns.stats.reads == reads and sim.now == submitted_at


class TestCutDownMidFlight:
    @pytest.mark.parametrize("cut, error", [
        (lambda zns: zns.fail_device(), DeviceFailedError),
        (lambda zns: zns.power_off(), PowerLossError)])
    def test_inflight_command_ends_with_status(self, zns, cut, error):
        sim = written(zns).sim
        delivered, hooked = [], []
        zns.add_hook("completion", lambda dev, bio: hooked.append(bio))
        bio = status_read(delivered.append)
        zns.submit(bio)
        sim.schedule(1e-6, cut, zns)
        read_seconds = zns.stats.read_seconds
        sim.run()
        assert delivered == [bio] and isinstance(bio.error, error)
        assert bio.complete_time == sim.now > 1e-6
        # Never completed: no completion hook, no latency charged.
        assert not hooked and zns.stats.read_seconds == read_seconds


class TestContract:
    def test_end_io_needs_status_completion(self, zns):
        written(zns)
        bio = Bio.read(0, 4096)
        bio.end_io = lambda bio: None
        reads = zns.stats.reads
        with pytest.raises(ValueError):
            zns.submit(bio)
        zns.sim.run()
        assert zns.stats.reads == reads and bio.complete_time is None

    def test_success_is_delivered_once_with_the_result(self, zns):
        data = pattern(8192, seed=7)
        written(zns, 8192)
        delivered = []
        bio = status_read(delivered.append, 8192)
        assert zns.submit(bio) is None
        zns.sim.run()
        assert delivered == [bio] and bio.error is None
        assert bytes(bio.result) == data
        assert bio.complete_time == zns.sim.now

    def test_completion_hook_runs_before_the_callback(self, zns):
        written(zns)
        order = []
        zns.add_hook("completion", lambda dev, bio: order.append("hook"))
        zns.submit(status_read(lambda bio: order.append("end_io")))
        zns.sim.run()
        assert order == ["hook", "end_io"]

    def test_power_cut_in_the_hook_leaves_completions_1_to_k_delivered(
            self, zns):
        """crashtest's premise: the k-th completion counts as acked even
        though the hook it triggered cut the power; nothing after it is."""
        written(zns)
        k, outcomes = 3, []

        def cut_at_k(dev, bio):
            if len(outcomes) == k - 1:
                dev.power_off()
        zns.add_hook("completion", cut_at_k)
        for index in range(6):
            # One sector longer each, so they complete in this order.
            zns.submit(status_read(
                lambda bio: outcomes.append(type(bio.error)),
                4096 * (index + 1)))
        zns.sim.run()
        assert outcomes == [type(None)] * k + [PowerLossError] * (6 - k)

    def test_exception_in_the_callback_surfaces_from_run(self, zns):
        written(zns)

        def broken(bio):
            raise KeyError("submitter bug")
        zns.submit(status_read(broken))
        with pytest.raises(KeyError):
            zns.sim.run()
