"""Shared resources for simulated processes.

``Resource`` models a pool of identical servers (e.g. the parallel command
channels of an SSD).  ``Lock`` is a single-holder mutex built on
``Resource``.  ``ReadAhead`` keeps a bounded window of operations in flight
and hands their results out in issue order.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from ..errors import SimulationError
from .engine import Event, Simulator


class Resource:
    """A counted resource with FIFO granting.

    Usage from a process::

        grant = yield resource.request()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        """An event that succeeds once a unit of the resource is granted."""
        event = self.sim.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            # Inline succeed: the event is brand new, so it cannot have
            # callbacks yet and there is nothing to dispatch.
            event.triggered = True
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one granted unit, waking the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            # Hand the unit directly to the next waiter; in_use is unchanged.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1


class Lock(Resource):
    """A mutex: a resource of capacity one."""

    def __init__(self, sim: Simulator):
        super().__init__(sim, capacity=1)


class ReadAhead:
    """A bounded, in-order window over a source of operations.

    ``issue()`` starts the next operation and returns its event, or
    ``None`` when there is nothing to start *right now*; it is asked
    again on every :meth:`take`, so a source that grows later (a rebuild
    chasing a moving write pointer) is picked up.  At most ``depth``
    operations are in flight, and :meth:`take` yields their values
    strictly in issue order however their completions interleave.
    """

    def __init__(self, issue: Callable[[], Optional[Event]], depth: int):
        if depth < 1:
            raise SimulationError(f"read-ahead depth must be >= 1, got {depth}")
        self.issue = issue
        self.depth = depth
        #: Issued operations not yet taken, oldest first.
        self.pending: Deque[Event] = deque()
        #: Most operations ever in flight at once.
        self.peak = 0

    def take(self):
        """Process-style: the oldest in-flight operation's value, or
        ``None`` (without waiting) when none is in flight and the source
        has nothing to issue."""
        pending = self.pending
        while len(pending) < self.depth:
            event = self.issue()
            if event is None:
                break
            pending.append(event)
        if not pending:
            return None
        if len(pending) > self.peak:
            self.peak = len(pending)
        return (yield pending.popleft())
