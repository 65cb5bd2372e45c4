"""Unit tests for the discrete-event simulation engine."""

import pathlib
import re

import pytest

import repro
import repro.sim
from repro.errors import SimulationError
from repro.sim import Lock, ReadAhead, Resource, Simulator


class TestEventBasics:
    def test_event_starts_untriggered(self, sim):
        event = sim.event()
        assert not event.triggered

    def test_succeed_delivers_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered and event.ok and event.value == 42

    def test_double_trigger_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_callback_after_trigger_still_runs(self, sim):
        event = sim.event()
        event.succeed(7)
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [7]


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_timeouts_fire_in_order(self, sim):
        order = []
        sim.timeout(2.0).add_callback(lambda e: order.append("b"))
        sim.timeout(1.0).add_callback(lambda e: order.append("a"))
        sim.run()
        assert order == ["a", "b"]

    def test_equal_times_fifo(self, sim):
        order = []
        for tag in "abc":
            sim.timeout(1.0, tag).add_callback(
                lambda e: order.append(e.value))
        sim.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_process_returns_value(self, sim):
        def worker():
            yield sim.timeout(1.0)
            return "done"
        assert sim.run_process(worker()) == "done"
        assert sim.now == 1.0

    def test_process_receives_event_value(self, sim):
        def worker():
            value = yield sim.timeout(0.5, "payload")
            return value
        assert sim.run_process(worker()) == "payload"

    def test_nested_processes(self, sim):
        def inner():
            yield sim.timeout(1.0)
            return 10
        def outer():
            value = yield sim.process(inner())
            return value + 1
        assert sim.run_process(outer()) == 11

    def test_failed_event_raises_inside_process(self, sim):
        event = sim.event()
        def worker():
            with pytest.raises(ValueError):
                yield event
            return "caught"
        proc = sim.process(worker())
        event.fail(ValueError("boom"))
        sim.run()
        assert proc.value == "caught"

    def test_unhandled_process_failure_surfaces(self, sim):
        def worker():
            yield sim.timeout(0.1)
            raise RuntimeError("unnoticed")
        sim.process(worker())
        with pytest.raises(RuntimeError, match="unnoticed"):
            sim.run()

    def test_yielding_non_event_fails_process(self, sim):
        def worker():
            yield 42
        with pytest.raises(SimulationError):
            sim.run_process(worker())


class TestCombinators:
    def test_all_of_collects_values(self, sim):
        events = [sim.timeout(t, t) for t in (3.0, 1.0, 2.0)]
        def waiter():
            values = yield sim.all_of(events)
            return values
        assert sim.run_process(waiter()) == [3.0, 1.0, 2.0]
        assert sim.now == 3.0

    def test_all_of_empty_succeeds_immediately(self, sim):
        def waiter():
            values = yield sim.all_of([])
            return values
        assert sim.run_process(waiter()) == []

    def test_all_of_fails_fast(self, sim):
        good = sim.timeout(5.0)
        bad = sim.event()
        def waiter():
            try:
                yield sim.all_of([good, bad])
            except ValueError:
                return sim.now
        proc = sim.process(waiter())
        sim.schedule(1.0, bad.fail, ValueError("x"))
        sim.run()
        assert proc.value == 1.0


class TestRunUntil:
    def test_run_until_stops_clock(self, sim):
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_until_resumable(self, sim):
        fired = []
        sim.timeout(10.0).add_callback(lambda e: fired.append(sim.now))
        sim.run(until=4.0)
        assert fired == []
        sim.run()
        assert fired == [10.0]

    def test_run_until_past_all_events(self, sim):
        sim.timeout(1.0)
        sim.run(until=100.0)
        assert sim.now == 100.0


class TestResource:
    def test_grants_up_to_capacity(self, sim):
        resource = Resource(sim, 2)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        sim.run()
        assert first.triggered and second.triggered
        assert not third.triggered

    def test_release_wakes_fifo(self, sim):
        resource = Resource(sim, 1)
        resource.request()
        waiters = [resource.request() for _ in range(3)]
        resource.release()
        sim.run()
        assert [w.triggered for w in waiters] == [True, False, False]

    def test_release_without_request_raises(self, sim):
        resource = Resource(sim, 1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, 0)

    def test_queue_length(self, sim):
        resource = Resource(sim, 1)
        resource.request()
        resource.request()
        assert len(resource._waiters) == 1


class TestLockAndQueue:
    def test_lock_mutual_exclusion(self, sim):
        lock = Lock(sim)
        held = []
        def worker(tag):
            yield lock.request()
            held.append(tag)
            yield sim.timeout(1.0)
            held.append(-tag)
            lock.release()
        sim.process(worker(1))
        sim.process(worker(2))
        sim.run()
        assert held == [1, -1, 2, -2]


class TestReadAhead:
    @staticmethod
    def source(sim, delays, issued):
        """``issue()`` over operations finishing after ``delays``."""
        todo = iter(enumerate(delays))

        def issue():
            item = next(todo, None)
            if item is None:
                return None
            index, delay = item
            issued.append((sim.now, index))
            return sim.timeout(delay, index)
        return issue

    def test_values_come_back_in_issue_order(self):
        sim = Simulator()
        # Completion order is the reverse of issue order.
        ahead = ReadAhead(self.source(sim, [4.0, 3.0, 2.0, 1.0], []), 4)
        got = []

        def consumer():
            while (value := (yield from ahead.take())) is not None:
                got.append((sim.now, value))
        sim.run_process(consumer())
        assert got == [(4.0, 0), (4.0, 1), (4.0, 2), (4.0, 3)]

    def test_window_is_bounded_and_refilled(self):
        sim = Simulator()
        issued = []
        ahead = ReadAhead(self.source(sim, [1.0] * 5, issued), 2)

        def consumer():
            while (yield from ahead.take()) is not None:
                assert len(ahead.pending) < 2
        sim.run_process(consumer())
        # Two up front, then one per value taken.
        assert issued == [(0.0, 0), (0.0, 1), (1.0, 2), (1.0, 3), (2.0, 4)]
        assert ahead.peak == 2

    def test_source_that_grows_is_picked_up(self):
        sim = Simulator()
        ready = [sim.timeout(1.0, "a")]
        ahead = ReadAhead(lambda: ready.pop() if ready else None, 4)

        def consumer():
            first = yield from ahead.take()
            dry = yield from ahead.take()    # returns without waiting
            at = sim.now
            ready.append(sim.timeout(1.0, "b"))
            second = yield from ahead.take()
            return first, dry, at, second
        assert sim.run_process(consumer()) == ("a", None, 1.0, "b")

    def test_failure_surfaces_at_its_turn(self):
        sim = Simulator()
        bad = sim.event()
        events = [sim.timeout(2.0, "late"), bad, sim.timeout(1.0, "ok")]
        ahead = ReadAhead(lambda: events.pop() if events else None, 3)
        sim.schedule(0.5, bad.fail, ValueError("boom"))

        def consumer():
            assert (yield from ahead.take()) == "ok"
            with pytest.raises(ValueError):
                yield from ahead.take()
            return (yield from ahead.take())
        assert sim.run_process(consumer()) == "late"

    def test_depth_must_be_positive(self):
        with pytest.raises(SimulationError):
            ReadAhead(lambda: None, 0)


class TestNowQueue:
    """FIFO semantics of the zero-delay lane (see DESIGN.md)."""

    def test_zero_delay_preserves_fifo_order(self, sim):
        order = []
        for tag in "abc":
            sim.schedule(0.0, order.append, tag)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_nested_zero_delay_runs_after_queued_work(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, order.append, "nested")

        sim.schedule(0.0, first)
        sim.schedule(0.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "nested"]

    def test_zero_delay_drains_before_clock_advances(self, sim):
        order = []

        def at_one(_event):
            order.append(("heap", sim.now))
            sim.schedule(0.0, lambda: order.append(("zero", sim.now)))

        sim.timeout(1.0).add_callback(at_one)
        sim.timeout(2.0).add_callback(
            lambda e: order.append(("later", sim.now)))
        sim.run()
        assert order == [("heap", 1.0), ("zero", 1.0), ("later", 2.0)]

    def test_equal_time_heap_entries_keep_order_with_continuations(self, sim):
        order = []
        for tag in "ab":
            sim.timeout(1.0, tag).add_callback(
                lambda e: sim.schedule(0.0, order.append, e.value))
        sim.run()
        assert order == ["a", "b"]


class TestAbsoluteInstants:
    """``schedule_at`` / ``complete_at``: entries at an instant the caller
    computed, and the tie rule between timers and device completions."""

    def test_schedule_at_keeps_the_instant_bit_for_bit(self, sim):
        sim.schedule(0.1, lambda: None)
        sim.run()
        at = 0.1 + 0.2  # not representable as now + (at - now)
        seen = []
        sim.schedule_at(at, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [at]

    def test_schedule_at_refuses_the_past(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_timers_before_completions_at_one_instant(self, sim):
        """Whatever the push order: every timer due at an instant runs
        before any completion due at it; each kind keeps call order."""
        order = []
        sim.complete_at(1.0, order.append, "completion 1")
        sim.schedule(1.0, order.append, "timer 1")
        sim.complete_at(1.0, order.append, "completion 2")
        sim.schedule_at(1.0, order.append, "timer 2")
        sim.schedule(0.5, sim.schedule, 0.5, order.append, "timer 3")
        sim.complete_at(2.0, order.append, "later")
        sim.run()
        assert order == ["timer 1", "timer 2", "timer 3",
                         "completion 1", "completion 2", "later"]

    def test_succeed_inline_runs_waiters_in_the_callers_frame(self, sim):
        order = []
        event = sim.event()
        event.add_callback(lambda ev: order.append(("first", ev.value)))
        event.add_callback(lambda ev: order.append(("second", ev.value)))
        sim.schedule(0.0, order.append, "queued earlier")
        event.succeed_inline("v")
        assert order == [("first", "v"), ("second", "v")]
        assert event.triggered and event.ok and event.callback is None
        with pytest.raises(SimulationError):
            event.succeed_inline("again")
        sim.recycle(event)  # fully drained
        sim.run()
        assert order[-1] == "queued earlier"

    def test_late_waiter_on_an_inline_event_still_runs(self, sim):
        event = sim.event()
        event.succeed_inline(7)
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        sim.run()
        assert seen == [7]


class TestEventRecycling:
    def test_recycle_requires_fired_event(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.recycle(event)

    def test_recycle_requires_drained_callbacks(self, sim):
        event = sim.event()
        event.add_callback(lambda _e: None)
        event.triggered = True  # fired, but the callback never dispatched
        with pytest.raises(SimulationError):
            sim.recycle(event)

    def test_recycled_event_is_reissued_reset(self, sim):
        event = sim.event()
        event.succeed("payload")
        sim.run()
        sim.recycle(event)
        again = sim.event()
        assert again is event
        assert not again.triggered and again.ok and again.value is None
        assert again.callback is None and not again.callbacks

    def test_freelist_never_resurrects_fired_event(self, sim):
        """An event still sitting on the freelist is never handed out in a
        triggered state, even after heavy churn."""
        for _ in range(64):
            event = sim.event()
            event.succeed()
            sim.run()
            sim.recycle(event)
            fresh = sim.event()
            assert not fresh.triggered
            fresh.succeed()  # must not raise "triggered twice"
            sim.run()
            sim.recycle(fresh)

    def test_recycle_rejects_timeout_still_on_heap(self, sim):
        """A timeout triggered out-of-band still has its ``_fire`` entry on
        the heap; pooling it would hand the entry's reference to the next
        owner."""
        timeout = sim.timeout(5.0)
        timeout.succeed("early")
        sim._now_queue.clear()  # drop the dispatch; the heap entry remains
        with pytest.raises(SimulationError, match="still referenced"):
            sim.recycle(timeout)

    def test_recycle_rejects_pending_allof_child(self, sim):
        child = sim.event()
        sim.all_of([child])
        child.succeed()
        with pytest.raises(SimulationError, match="still referenced"):
            sim.recycle(child)
        sim.run()
        sim.recycle(child)

    def test_recycled_timeout_refires(self, sim):
        timeout = sim.timeout(1.0, "first")
        fired = []
        timeout.add_callback(lambda e: fired.append(e.value))
        sim.run()
        sim.recycle(timeout)
        again = sim.timeout(2.0, "second")
        assert again is timeout
        again.add_callback(lambda e: fired.append(e.value))
        sim.run()
        assert fired == ["first", "second"] and sim.now == 3.0


class TestExportedSurface:
    def test_every_export_has_a_caller_outside_sim(self):
        """The engine carries nothing the simulator's users do not use: a
        name exported by ``repro.sim`` appears somewhere under
        ``src/repro`` outside ``sim/``, by name or — for an event class —
        through its ``Simulator`` factory method."""
        root = pathlib.Path(repro.__file__).parent
        users = "\n".join(
            path.read_text() for path in sorted(root.rglob("*.py"))
            if root / "sim" not in path.parents)
        unused = []
        for name in repro.sim.__all__:
            factory = re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()
            used = re.search(rf"\b{name}\b", users) or (
                hasattr(Simulator, factory)
                and re.search(rf"\.{factory}\(", users))
            if not used:
                unused.append(name)
        assert not unused, f"exported by repro.sim, used nowhere: {unused}"
