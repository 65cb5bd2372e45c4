"""Host-time span tracer installed from the benchmark's side only.

``install`` swaps each layer's public entry point for a timing wrapper at
class level and ``uninstall`` puts the originals back, so traced and
untraced rounds can alternate on one array.  A span is (site, start,
end, parent); spans are kept in flat arrays in memory and written out
once, at the end.  A site's *self time* is its spans' duration minus the
part covered by their child spans, so self times of all sites add up to
the wall time of the enclosing round span exactly.

Spans inside the program (and event counters) are a later issue: until
then, work the stack does in engine callbacks — completions, joins,
inlined metadata appends — is charged to ``sim.run``.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from typing import Dict, List, Tuple

#: The span that encloses one traced round; its self time is benchmark
#: code that runs outside any driver callback (round preparation).
ROUND = "bench.round"

_now = time.perf_counter_ns


class ClassPatches:
    """Class-level attribute swaps that can be undone.

    An attribute the class only inherits is deleted again on ``undo`` so
    the base class's method shows through as before.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[type, str, bool, object]] = []

    def swap(self, cls: type, attr: str, make_wrapper) -> None:
        original = getattr(cls, attr)
        self._undo.append((cls, attr, attr in cls.__dict__, original))
        setattr(cls, attr, make_wrapper(original))

    def undo(self) -> None:
        for cls, attr, own, original in reversed(self._undo):
            if own:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)
        self._undo = []


class SpanTracer:
    def __init__(self, site_names) -> None:
        #: Site 0 is the round span; the rest are the layers' names, all
        #: known up front so every round reports every layer.
        self.sites: List[str] = [ROUND, *site_names]
        self._site_id: Dict[str, int] = {
            name: site for site, name in enumerate(self.sites)}
        self.site = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        #: Index of the first span of each traced round.
        self.round_start: List[int] = []
        #: Per traced round: self nanoseconds per site id.
        self.round_self: List[List[int]] = []
        self._self: List[int] = [0] * len(self.sites)
        self._patches = ClassPatches()
        self.enter, self.exit = self._recorders()

    # -- span recording -----------------------------------------------------

    def _recorders(self):
        """``enter(site)`` / ``exit()`` as closures over the arrays: they
        run twice per span, so every attribute lookup saved is overhead
        the traced round does not charge to the span's parent."""
        start, end, sites, own = self.start, self.end, self.site, self._self
        stack: List[int] = []   # indices of the open spans
        child: List[int] = []   # ns covered by children, per open span
        push_parent, push_site = self.parent.append, sites.append
        push_start, push_end = start.append, end.append
        push_stack, push_child = stack.append, child.append
        pop_stack, pop_child = stack.pop, child.pop

        def enter(site: int) -> None:
            push_parent(stack[-1] if stack else -1)
            push_stack(len(start))
            push_child(0)
            push_site(site)
            push_end(0)
            push_start(_now())

        def exit() -> None:
            now = _now()
            index = pop_stack()
            end[index] = now
            duration = now - start[index]
            own[sites[index]] += duration - pop_child()
            if child:
                child[-1] += duration

        return enter, exit

    def begin_round(self) -> None:
        self.round_start.append(len(self.start))
        self._self[:] = [0] * len(self.sites)
        self.enter(0)
        # One empty span per site: every site has a row in every round,
        # and a layer the workload never enters reads as the measurement
        # floor of one span instead of as a missing value.
        for site in range(1, len(self.sites)):
            self.enter(site)
            self.exit()

    def end_round(self) -> None:
        self.exit()
        self.round_self.append(list(self._self))

    # -- class-level wrappers -----------------------------------------------

    def install(self, targets) -> None:
        """Wrap ``(site name, class, attribute)`` entry points."""
        for name, cls, attr in targets:
            site = self._site_id[name]
            self._patches.swap(cls, attr,
                               functools.partial(_wrap, self, site))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- results ------------------------------------------------------------

    def self_seconds(self) -> Dict[str, List[float]]:
        """Per site: self seconds in each traced round."""
        return {name: [row[site] / 1e9 for row in self.round_self]
                for site, name in enumerate(self.sites)}

    def save(self, path: str) -> None:
        import numpy as np
        np.savez_compressed(
            path, sites=np.array(self.sites), site=np.asarray(self.site),
            start_ns=np.asarray(self.start), end_ns=np.asarray(self.end),
            parent=np.asarray(self.parent),
            round_start=np.asarray(self.round_start))


def _wrap(tracer: SpanTracer, site: int, fn):
    """A timing wrapper around one entry point (plain or generator)."""
    if inspect.isgeneratorfunction(fn):
        return _wrap_generator(tracer, site, fn)
    enter, leave = tracer.enter, tracer.exit

    def traced(*args, **kwargs):
        enter(site)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()
    traced.__wrapped__ = fn
    return traced


def _wrap_generator(tracer: SpanTracer, site: int, fn):
    """Time each resumption of a process-style (generator) entry point."""
    enter, leave = tracer.enter, tracer.exit

    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        send, value = gen.send, None
        while True:
            enter(site)
            try:
                item = send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                leave()
            try:
                value = yield item
                send = gen.send
            except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
                value, send = exc, gen.throw
    traced.__wrapped__ = fn
    return traced


class StreamRecorder:
    """Records the device-level command stream of one round.

    For every device it also keeps the zone write pointers seen just
    before that device's first command, which is the state a bare device
    must be put in before the stream can be replayed on it (ladder.py).
    """

    def __init__(self, slots: Dict[int, int]):
        #: id(device) -> array slot; devices that join later (a rebuild
        #: replacement) are added by the workload through ``slots``.
        self.slots = slots
        self.commands: List[tuple] = []
        self.start_wp: Dict[int, List[int]] = {}
        self._patches = ClassPatches()

    def install(self, device_classes) -> None:
        for cls in device_classes:
            self._patches.swap(cls, "submit", self._wrap)

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap(self, fn):
        commands, slots, start_wp = self.commands, self.slots, self.start_wp

        def recording(device, bio, *args, **kwargs):
            slot = slots.get(id(device))
            if slot is not None:
                if slot not in start_wp and hasattr(device, "report_zones"):
                    start_wp[slot] = [zone.write_pointer
                                      for zone in device.report_zones()]
                commands.append((slot, bio.op, bio.offset, bio.length,
                                 bio.flags))
            return fn(device, bio, *args, **kwargs)
        return recording
