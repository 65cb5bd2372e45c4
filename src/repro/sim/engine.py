"""Discrete-event simulation engine.

A small, dependency-free event engine in the style of SimPy: simulated
processes are Python generators that ``yield`` events; the engine resumes
them when those events trigger.  All performance experiments in this
repository run in simulated time, so throughput and latency numbers come
from the event clock rather than wall time.

Example::

    sim = Simulator()

    def worker():
        yield sim.timeout(1.5)
        return "done"

    proc = sim.process(worker())
    sim.run()
    assert sim.now == 1.5 and proc.value == "done"
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

from ..errors import SimulationError

ProcessGenerator = Generator["Event", Any, Any]


def _dispatch(event: "Event", first: Callable[["Event"], None],
              rest: List[Callable[["Event"], None]]) -> None:
    """Run a triggered event's callbacks (queued as one now-queue entry)."""
    first(event)
    for fn in rest:
        fn(event)


def _raise_unhandled(exc: BaseException) -> None:
    raise exc


#: Added to the sequence number of a device completion's heap entry (see
#: ``Simulator.complete_at``): at one instant every timer sorts before every
#: completion, whichever was pushed first.  Far above any run's ``_seq``.
_COMPLETION_RANK = 1 << 62

#: Upper bound on each recycled-object pool; beyond this, freed events are
#: simply dropped to the garbage collector.  Sized to cover a deep IO
#: window (iodepth x fan-out) without pinning memory after a burst.
_FREELIST_MAX = 4096


class Event:
    """A one-shot occurrence in simulated time.

    Events start untriggered; ``succeed`` or ``fail`` triggers them exactly
    once, after which their callbacks run at the current simulation time.
    Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callback", "callbacks", "triggered", "ok", "value",
                 "refs")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # Waiters are stored in a single ``callback`` slot; an overflow list
        # is created lazily only when a second waiter registers.  Almost
        # every event on the datapath has exactly zero or one waiter, so the
        # common case triggers without ever allocating a list.
        self.callback: Optional[Callable[["Event"], None]] = None
        self.callbacks: Optional[List[Callable[["Event"], None]]] = None
        self.triggered = False
        self.ok = True
        self.value: Any = None
        #: External references that would dangle if the event were pooled:
        #: a pending timeout-heap ``_fire`` entry, or registration in an
        #: ``AllOf``'s child list.  Incremented at the referencing site,
        #: decremented when the reference is consumed; ``recycle`` refuses
        #: any event whose count is nonzero.
        self.refs = 0

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self.triggered = True
        self.value = value
        callback = self.callback
        if callback is not None:
            self.callback = None
            callbacks = self.callbacks
            if callbacks is None:
                # Single-waiter fast path: the continuation goes straight on
                # the now-queue, no dispatch trampoline and no list.
                self.sim._now_queue.append((callback, (self,)))
            else:
                self.callbacks = None
                self.sim._now_queue.append(
                    (_dispatch, (self, callback, callbacks)))
        return self

    def succeed_inline(self, value: Any = None) -> None:
        """:meth:`succeed`, running the waiters in this frame.

        Only for a caller entered from its own heap entry (a device
        completion): the loop drained the now-queue before popping it, so
        the entry ``succeed`` would queue is the very next thing the loop
        would run.  A chain that is alone in the queue runs its steps back
        to back whether they are queued or called (DESIGN.md, the
        lone-chain rule), so this reorders nothing and saves the hop.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self.triggered = True
        self.value = value
        callback = self.callback
        if callback is not None:
            self.callback = None
            callbacks = self.callbacks
            self.callbacks = None
            callback(self)
            if callbacks is not None:
                for fn in callbacks:
                    fn(self)

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception, raised inside waiters."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self.triggered = True
        self.ok = False
        self.value = exc
        callback = self.callback
        if callback is not None:
            self.callback = None
            callbacks = self.callbacks
            if callbacks is None:
                self.sim._now_queue.append((callback, (self,)))
            else:
                self.callbacks = None
                self.sim._now_queue.append(
                    (_dispatch, (self, callback, callbacks)))
        elif isinstance(self, Process):
            # A failed process nobody waits on: surface the error instead
            # of silently swallowing it.
            self.sim._now_queue.append((_raise_unhandled, (exc,)))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event triggers (immediately if it has)."""
        if self.triggered:
            # Already dispatched: run at the current time via the now-queue.
            self.sim._now_queue.append((fn, (self,)))
        elif self.callback is None:
            self.callback = fn
        elif self.callbacks is None:
            self.callbacks = [fn]
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.refs = 1  # the scheduled ``_fire`` below
        sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        self.refs -= 1
        self.succeed(value)


class Process(Event):
    """A running simulated process; triggers when its generator returns.

    The generator's ``return`` value becomes ``Process.value``.  An uncaught
    exception inside the generator fails the process event and propagates to
    anything waiting on it (or to ``Simulator.run`` if nothing is waiting).
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: ProcessGenerator):
        super().__init__(sim)
        self._gen = gen
        # Start the process at the current simulation time.
        sim.schedule(0.0, self._resume, None, None)

    def _resume(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        # Trampoline: advance the generator in a loop instead of recursing,
        # so error paths and chains of waits never grow the Python stack.
        # A yielded event that has already triggered (e.g. an uncontended
        # ``Resource.request()``) hands the continuation straight to the
        # FIFO now-queue — one deque hop, no heap push/pop, no recursion.
        # Deliberately NOT consumed inline: inlining would run this process
        # ahead of callbacks queued before it (including siblings in the
        # same dispatch batch), breaking the engine's FIFO ordering and
        # with it byte-identical fixed-seed replay.
        gen = self._gen
        while True:
            try:
                if throw_exc is not None:
                    target = gen.throw(throw_exc)
                else:
                    target = gen.send(send_value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - process failure path
                self.fail(exc)
                return
            if not isinstance(target, Event):
                send_value = None
                throw_exc = SimulationError(
                    f"process yielded {target!r}; processes must yield Events")
                continue
            if target.triggered:
                self.sim._now_queue.append((self._on_wait_done, (target,)))
            elif target.callback is None:
                target.callback = self._on_wait_done
            elif target.callbacks is None:
                target.callbacks = [self._on_wait_done]
            else:
                target.callbacks.append(self._on_wait_done)
            return

    def _on_wait_done(self, event: Event) -> None:
        if event.ok:
            self._resume(event.value, None)
        else:
            self._resume(None, event.value)


class AllOf(Event):
    """Triggers when every child event has triggered successfully.

    ``value`` is the list of child values in the order given.  Fails as soon
    as any child fails.
    """

    __slots__ = ("_pending", "_values", "_failed")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        self._pending = len(events)
        self._values: List[Any] = [None] * len(events)
        self._failed = False
        if not events:
            sim.schedule(0.0, self.succeed, [])
            return
        for index, event in enumerate(events):
            event.refs += 1
            event.add_callback(self._make_child_callback(index))

    def _make_child_callback(self, index: int) -> Callable[[Event], None]:
        def on_child(event: Event) -> None:
            event.refs -= 1
            if self._failed:
                return
            if not event.ok:
                self._failed = True
                self.fail(event.value)
                return
            self._values[index] = event.value
            self._pending -= 1
            if self._pending == 0:
                self.succeed(self._values)
        return on_child


class Simulator:
    """The event loop: a FIFO "now queue" plus a time-ordered heap.

    Zero-delay work — event dispatch, process starts, immediate
    continuations — goes on the now-queue, a plain deque drained in FIFO
    order before the clock is allowed to advance.  Only real timeouts pay
    for the heap.  See DESIGN.md ("Now-queue scheduling") for why this
    preserves the submission-order semantics the RAIZN write path relies
    on.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List = []
        self._now_queue: Deque[Tuple[Callable, tuple]] = deque()
        self._seq = 0
        # Recycled-object pools (see ``recycle``): datapath code that owns
        # an event's full lifecycle returns it here instead of letting it
        # churn the allocator; ``event()``/``timeout()`` reissue them.
        self._event_free: List[Event] = []
        self._timeout_free: List[Timeout] = []

    # -- low-level scheduling ------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay == 0.0:
            self._now_queue.append((fn, args))
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def schedule_at(self, at: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at the absolute instant ``at``: a timer like
        :meth:`schedule`'s, for a caller that holds the instant itself and
        must not have it rounded through ``now + (at - now)``."""
        if at < self.now:
            raise SimulationError(f"cannot schedule into the past: {at}")
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, fn, args))

    def complete_at(self, at: float, fn: Callable, *args: Any) -> None:
        """Deliver a device completion at the absolute instant ``at``.

        The tie rule: a completion due at ``at`` runs after every timer
        scheduled for ``at`` — including timers scheduled after this call
        — and completions due at the same instant run in call order.  A
        device computes a command's completion instant when the command
        arrives, long before timers for that instant exist (a read's hedge
        timer is armed right after its submission); ranking completions
        behind timers keeps "the deadline fired, then the straggler came
        in" the outcome of an exact tie whatever the push order.
        """
        self._seq += 1
        heapq.heappush(self._heap,
                       (at, _COMPLETION_RANK + self._seq, fn, args))

    # -- event factories -----------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event (possibly a recycled one, reset)."""
        free = self._event_free
        if free:
            event = free.pop()
            event.triggered = False
            event.ok = True
            return event
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` seconds from now."""
        free = self._timeout_free
        if free and delay >= 0:
            timeout = free.pop()
            timeout.triggered = False
            timeout.ok = True
            timeout.refs = 1  # the ``_fire`` scheduled below
            self.schedule(delay, timeout._fire, value)
            return timeout
        return Timeout(self, delay, value)

    def recycle(self, event: Event) -> None:
        """Return a fired, fully drained event to the reuse pool.

        Only for call sites that own the event's entire lifecycle: the
        event must have triggered and must have no registered callbacks
        left (both are asserted).  After this call the event may be handed
        out again by :meth:`event`/:meth:`timeout`, so the caller must
        drop every reference.  Subclasses other than plain ``Event`` and
        ``Timeout`` are ignored (dropped to the garbage collector).
        """
        if not event.triggered or event.callback is not None \
                or event.callbacks:
            raise SimulationError(
                f"recycle() requires a fired, drained event, got {event!r}")
        if event.refs:
            # A pooled-and-reissued event with a live outside reference is
            # a use-after-free: the pending timeout-heap ``_fire`` or
            # combinator child registration would act on the *next* owner.
            raise SimulationError(
                f"recycle() of {event!r} still referenced {event.refs}x "
                "from the timeout heap or a combinator child list")
        event.value = None
        cls = type(event)
        if cls is Event:
            if len(self._event_free) < _FREELIST_MAX:
                self._event_free.append(event)
        elif cls is Timeout:
            if len(self._timeout_free) < _FREELIST_MAX:
                self._timeout_free.append(event)

    def process(self, gen: ProcessGenerator) -> Process:
        """Start ``gen`` as a simulated process."""
        return Process(self, gen)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event triggering when all of ``events`` have succeeded."""
        return AllOf(self, events)

    # -- execution -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Execute events until the heap drains or the clock passes ``until``.

        Failed processes that nothing waits on raise out of ``run`` so that
        programming errors inside simulated processes are never silently
        swallowed.
        """
        nowq = self._now_queue
        heap = self._heap
        pop = heapq.heappop
        popleft = nowq.popleft
        while True:
            # Drain everything due *now* before letting the clock move.
            while nowq:
                fn, args = popleft()
                fn(*args)
            if not heap:
                break
            if until is not None and heap[0][0] > until:
                self.now = until
                return
            at, _seq, fn, args = pop(heap)
            if at < self.now - 1e-12:
                raise SimulationError("event heap went backwards in time")
            self.now = at
            fn(*args)
        if until is not None and until > self.now:
            self.now = until

    def run_process(self, gen: ProcessGenerator) -> Any:
        """Convenience: run ``gen`` to completion and return its value."""
        proc = self.process(gen)
        self.run()
        if not proc.triggered:
            raise SimulationError("process did not complete (deadlock?)")
        if not proc.ok:
            raise proc.value
        return proc.value
