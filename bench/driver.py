"""Closed-loop bio driver: the benchmark's own client.

A *job* is one client: it draws bios from a source and keeps at most
``depth`` of them in flight, issuing the next one only when an earlier
one completes (closed loop — a slow stack receives less load).  Several
jobs run side by side on one simulator.  Everything here uses the
stack's public surface only: ``submit(bio) -> event``,
``event.add_callback``, ``Simulator.schedule`` and ``Simulator.run``.

Failed or refused bios are *counted*, never raised: the oracle turns
them into ``failed`` in the result line.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from repro.block import Bio, Op

#: Yielded by a source to make its job wait until everything it has in
#: flight completed (e.g. before resetting the zones it was writing).
BARRIER = object()


class Tally:
    """What the loop observed: per-bio simulated latencies and failures.

    Latency samples cover data bios only (reads and writes); flushes and
    zone resets are attempted operations but would otherwise own the
    tail percentiles of every workload that issues them.
    """

    __slots__ = ("read_lat", "write_lat", "attempted", "failed")

    def __init__(self) -> None:
        self.read_lat: List[float] = []
        self.write_lat: List[float] = []
        self.attempted = 0
        self.failed = 0


class Job:
    """One closed-loop client."""

    __slots__ = ("loop", "source", "depth", "in_flight", "exhausted",
                 "at_barrier", "on_complete")

    def __init__(self, loop: "ClosedLoop", source: Iterator, depth: int,
                 on_complete: Optional[Callable[[Bio], None]]):
        self.loop = loop
        self.source = source
        self.depth = depth
        self.in_flight = 0
        self.exhausted = False
        self.at_barrier = False
        self.on_complete = on_complete

    def pump(self) -> None:
        """Issue bios until the window is full or the source runs dry."""
        loop = self.loop
        submit = loop.submit
        tally = loop.tally
        done = self.done
        while self.in_flight < self.depth and not self.exhausted:
            item = next(self.source, None)
            if item is None:
                self.exhausted = True
                return
            if item is BARRIER:
                if self.in_flight:
                    self.at_barrier = True
                    return
                continue
            self.in_flight += 1
            tally.attempted += 1
            submit(item).add_callback(done)

    def done(self, event) -> None:
        """Completion callback: record the bio, then refill the window."""
        self.in_flight -= 1
        tally = self.loop.tally
        if event.ok:
            bio = event.value
            op = bio.op
            if op is Op.WRITE:
                tally.write_lat.append(bio.complete_time - bio.submit_time)
            elif op is Op.READ:
                tally.read_lat.append(bio.complete_time - bio.submit_time)
            if self.on_complete is not None:
                self.on_complete(bio)
        else:
            tally.failed += 1
        if self.at_barrier:
            if self.in_flight:
                return
            self.at_barrier = False
        self.pump()


class ClosedLoop:
    """A set of jobs sharing one simulator and one ``submit`` target."""

    def __init__(self, sim, submit: Callable[[Bio], object], tally: Tally):
        self.sim = sim
        self.submit = submit
        self.tally = tally
        self.jobs: List[Job] = []

    def add_job(self, source: Iterator, depth: int,
                on_complete: Optional[Callable[[Bio], None]] = None) -> None:
        self.jobs.append(Job(self, source, depth, on_complete))

    def run(self) -> None:
        """Start every job at the current simulated time and drain."""
        for job in self.jobs:
            self.sim.schedule(0.0, job.pump)
        self.sim.run()
        for job in self.jobs:
            if job.in_flight or not job.exhausted:
                raise RuntimeError("closed loop stalled before draining")
