"""Per-bio span tracing across the volume → stripe → device layers.

Debugging the reproduction's own anomalies (hedge accounting, retry
double-counts, GC interference à la Figure 10) needs to answer *where
time goes per bio*.  The tracer records one span per unit of work — the
logical bio at the :class:`~repro.raizn.volume.RaiznVolume` boundary,
stripe assembly, parity computation, metadata-log appends, and each
device command — into a bounded ring buffer plus cumulative
per-``(layer, name, device)`` aggregates that survive ring eviction, so
the time-attribution report always reconciles against the volume's
lifetime counters no matter how long the run was.

Design constraints, in order:

1. **Zero cost when disabled.**  Tracing is off unless
   ``RaiznConfig.tracing`` opts in; every instrumentation site in the
   datapath is guarded by a single ``is None`` test on a cached
   attribute, and no tracer object exists at all.
2. **Near-zero cost when enabled.**  The budget is < 3% wall-clock
   slowdown of a traced ``seq_write`` (perfbench's ``tracing_overhead``
   scenario against ``seq_write``), which at the simulator's IO rate
   leaves well under a microsecond per span.  Three things
   matter at that scale, and all shape the layout here.  First,
   per-span CPU: each ``(layer, name, device)`` triple is interned once
   into an integer *site id* (:meth:`Tracer.site`) and a whole ring
   record is written with a single ``struct.pack_into`` call.  Second,
   work deferred off the hot path: the cumulative aggregate rows are
   folded in only when a record is *evicted* from the ring (and the
   remainder scanned at read time), so a run shorter than the ring
   capacity never pays for aggregation at all.  Third, allocator
   pressure: a naive ring of span objects interleaves tens of thousands
   of small allocations with the simulator's large media buffers, which
   measurably slows the *rest* of the datapath (pymalloc churn); the
   ring is one preallocated ``bytearray``, open spans are pooled and
   recycled, and the per-bio trace state on a device command is two
   plain scalars.
3. **Inert.**  The tracer never schedules events, never draws from any
   RNG, and never touches device state, so a traced run produces
   byte-identical simulation results (``tests/test_perfbench.py``
   holds ``tracing_overhead`` to ``seq_write``'s digest).
"""

from __future__ import annotations

import json
import math
import struct
from typing import Dict, IO, List, Optional, Tuple

#: Names of the derived per-device breakdown rows in the report: device
#: span time re-expressed as queue wait (submit → channel grant) and
#: service (grant → complete).  Derived from the aggregate rows, never
#: stored as rows of their own.
BREAKDOWN_NAMES = frozenset({"queue", "service"})

#: Layers whose spans measure device commands (submit→complete on a
#: :class:`~repro.block.device.BlockDevice` subclass).  Only these count
#: toward per-device busy time: an ``md`` span also names a device but
#: *contains* the device command it issued, so summing it too would
#: double-count the overlap.
DEVICE_LAYERS = frozenset({"block", "zns", "conv"})

_NAN = float("nan")

#: Ring record layout: seven little-endian doubles — id, parent, site,
#: start, mark, end, bytes.  Ids and sizes are exact as doubles up to
#: 2**53; parent ``-1`` means no parent and a NaN mark means none.
_RECORD = struct.Struct("=7d")
RECORD_SIZE = _RECORD.size

#: Root-span ids and their site are packed into one int on the bio
#: (``code = span_id << SITE_BITS | site``) so the volume's completion
#: callback can record the span without any per-bio trace object.
SITE_BITS = 20
_SITE_MASK = (1 << SITE_BITS) - 1


def name_str(name) -> str:
    """Span/aggregate names may be enums (``Op``, ``MetadataRole``) —
    the hot path stores them unconverted; presentation goes through
    here."""
    return getattr(name, "value", name)


class Span:
    """One *open* traced unit of work, stamped in simulated seconds.

    Only spans whose close site is far from their open site (metadata-
    log appends, custom instrumentation) materialise as ``Span``
    objects; device commands go straight to the ring via
    :meth:`Tracer.complete_io`, logical bios via the packed-int root
    path (:meth:`Tracer.record_root`), and instants via cached
    aggregate rows.  ``parent_id`` links a sub-span to the logical
    bio's root span when the fan-out happened synchronously under it
    (``-1`` means no parent, matching the ring's encoding).

    A span is also its own completion callback: passing it to
    ``Event.add_callback`` closes it when the event fires, without a
    closure allocation.  Closed spans return to the tracer's free pool
    and are recycled by the next :meth:`Tracer.begin` — never retain a
    span past its end.
    """

    __slots__ = ("tracer", "span_id", "parent_id", "site", "start", "nbytes")

    def __init__(self, tracer: "Tracer", span_id: int, parent_id: int,
                 site: int, start: float, nbytes: int):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.site = site
        self.start = start
        self.nbytes = nbytes

    def __call__(self, _event) -> None:
        """Event-callback form of :meth:`Tracer.end`."""
        self.tracer.end(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span #{self.span_id} site={self.site} @{self.start}>"


class TraceSink:
    """Bounded span store: a packed ring buffer plus lossless aggregates.

    The ring — one preallocated ``bytearray`` of fixed-size records,
    overwritten circularly — holds the ``capacity`` most recent spans
    and feeds the JSONL dump.  The aggregates — one ``[count, seconds,
    bytes, queue_seconds]`` row per interned ``(layer, name, device)``
    site — cover every span ever recorded: ``rows`` accumulates spans
    as they are *evicted* from the ring (plus direct instant bumps via
    :meth:`Tracer.aggregate_row`), and the :attr:`aggregates` view
    folds in whatever is still sitting in the ring at read time.
    Eviction never skews the attribution report or its reconciliation
    against :class:`~repro.trace.metrics.MetricsRegistry` counters, and
    a run shorter than ``capacity`` pays nothing for aggregation on the
    hot path.  The fourth row slot accumulates the queue-wait portion
    of device spans (those with a channel-grant mark); service time is
    its complement.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("trace sink capacity must be >= 1")
        self.capacity = capacity
        #: The ring: ``capacity`` packed ``_RECORD`` slots.
        self.buf = bytearray(capacity * RECORD_SIZE)
        #: Spans ever recorded into the ring (ids are allocated
        #: separately — an open span holds its id before it records).
        self.total_recorded = 0
        #: Site interning: key triple → site id → aggregate row.
        self.sites: Dict[Tuple, int] = {}
        self.site_keys: List[Tuple] = []
        #: Evicted-span totals plus direct instant bumps; *not* the full
        #: cumulative totals — read :attr:`aggregates` for those.
        self.rows: List[List] = []

    def site(self, layer: str, name, device: Optional[str] = None) -> int:
        """Intern ``(layer, name, device)``; returns its stable site id."""
        key = (layer, name, device)
        site = self.sites.get(key)
        if site is None:
            site = self.sites[key] = len(self.site_keys)
            self.site_keys.append(key)
            self.rows.append([0, 0.0, 0, 0.0])
        return site

    def _fold_one(self, offset: int) -> None:
        """Fold the record at byte ``offset`` into ``rows`` (it is about
        to be overwritten)."""
        _id, _parent, site, start, mark, end, nbytes = \
            _RECORD.unpack_from(self.buf, offset)
        row = self.rows[int(site)]
        row[0] += 1
        row[1] += end - start
        row[2] += int(nbytes)
        if mark == mark:  # not NaN: a device span with a grant mark
            row[3] += mark - start

    @property
    def aggregates(self) -> Dict[Tuple, List]:
        """Cumulative per-site totals over *every* span ever recorded,
        keyed by ``(layer, name, device)`` — ``[count, seconds, bytes,
        queue_seconds]``.  Built fresh on each read: the evicted/instant
        ``rows`` plus a scan of the live ring."""
        agg = [row[:] for row in self.rows]
        buf = self.buf
        capacity = self.capacity
        unpack = _RECORD.unpack_from
        for ordinal in range(self.evicted, self.total_recorded):
            _id, _parent, site, start, mark, end, nbytes = \
                unpack(buf, (ordinal % capacity) * RECORD_SIZE)
            row = agg[int(site)]
            row[0] += 1
            row[1] += end - start
            row[2] += int(nbytes)
            if mark == mark:
                row[3] += mark - start
        return {key: agg[site] for key, site in self.sites.items()}

    @property
    def ring_count(self) -> int:
        """Spans currently held in the ring."""
        return min(self.total_recorded, self.capacity)

    @property
    def evicted(self) -> int:
        """Spans overwritten in the ring (still present in aggregates)."""
        return self.total_recorded - self.ring_count

    def device_seconds(self) -> Dict[str, float]:
        """Total device-command span seconds per device name.

        Sums the device-layer aggregates (see :data:`DEVICE_LAYERS` for
        why ``md`` spans are excluded); reconciles against
        ``DeviceStats.io_seconds``, which the device accumulates from
        the same submit→complete interval.
        """
        totals: Dict[str, float] = {}
        for (layer, _name, device), row in self.aggregates.items():
            if device is None or layer not in DEVICE_LAYERS:
                continue
            totals[device] = totals.get(device, 0.0) + row[1]
        return totals

    def _ring_record(self, ordinal: int) -> Dict[str, object]:
        span_id, parent, site, start, mark, end, nbytes = _RECORD.unpack_from(
            self.buf, (ordinal % self.capacity) * RECORD_SIZE)
        layer, name, device = self.site_keys[int(site)]
        return {
            "id": int(span_id),
            "parent": None if parent < 0 else int(parent),
            "layer": layer,
            "name": name_str(name),
            "device": device,
            "start": start,
            "mark": None if math.isnan(mark) else mark,
            "end": end,
            "bytes": int(nbytes),
        }

    def dump_jsonl(self, fh: IO[str]) -> int:
        """Write the ring's spans as JSON Lines (oldest first); returns
        the number of spans written."""
        written = 0
        dumps = json.dumps
        for ordinal in range(self.evicted, self.total_recorded):
            fh.write(dumps(self._ring_record(ordinal)))
            fh.write("\n")
            written += 1
        return written


class Tracer:
    """Span factory bound to one simulator clock and one sink.

    The volume creates a tracer when ``config.tracing`` is set and hands
    the same instance to every array device (``device.tracer``), so all
    layers stamp spans on one clock into one sink.  ``current_parent``
    is the root-span id of the logical bio whose synchronous fan-out is
    executing (``-1`` outside any); instrumentation sites read it to
    parent their sub-spans without threading a context argument through
    the datapath.
    """

    __slots__ = ("sim", "sink", "current_parent", "_next_id", "_pool")

    def __init__(self, sim, sink: Optional[TraceSink] = None):
        self.sim = sim
        self.sink = sink if sink is not None else TraceSink()
        #: Root-span id of the in-flight logical bio, ``-1`` outside any
        #: synchronous fan-out (the ring's no-parent encoding).
        self.current_parent: int = -1
        self._next_id = 0
        #: Closed spans awaiting reuse.  Steady state allocates nothing:
        #: pool depth is bounded by the maximum number of concurrently
        #: open spans (roughly the in-flight metadata appends), and
        #: recycling keeps the tracer from interleaving thousands of
        #: short-lived objects with the simulator's media buffers.
        self._pool: List[Span] = []

    def site(self, layer: str, name, device: Optional[str] = None) -> int:
        """Intern a span site; see :meth:`TraceSink.site`."""
        return self.sink.site(layer, name, device)

    def aggregate_row(self, layer: str, name,
                      device: Optional[str] = None) -> List:
        """The live ``[count, seconds, bytes, queue_seconds]`` aggregate
        row for a site.  The cheapest way to count zero-duration work on
        a hot path: cache the row once and bump ``row[0]``/``row[2]`` in
        place (no call, no ring entry) — stripe assembly and parity
        computation do exactly this."""
        sink = self.sink
        return sink.rows[sink.site(layer, name, device)]

    def root_code(self, site: int) -> int:
        """Allocate a root-span id and pack it with ``site`` into the
        single int the volume parks on the logical bio; the matching
        record call is :meth:`record_root`.  ``code >> SITE_BITS`` is
        the span id (feed it to ``current_parent``)."""
        span_id = self._next_id
        self._next_id = span_id + 1
        return span_id << SITE_BITS | site

    def record_root(self, code: int, start: float, nbytes: int) -> None:
        """Record the root span packed into ``code`` as ending now."""
        sink = self.sink
        ordinal = sink.total_recorded
        sink.total_recorded = ordinal + 1
        capacity = sink.capacity
        offset = (ordinal % capacity) * RECORD_SIZE
        if ordinal >= capacity:
            sink._fold_one(offset)
        _RECORD.pack_into(sink.buf, offset, code >> SITE_BITS, -1.0,
                          code & _SITE_MASK, start, _NAN, self.sim.now,
                          nbytes)

    def begin_at(self, site: int, nbytes: int = 0) -> Span:
        """Open a span starting now at an already-interned ``site``.

        The hot-path form of :meth:`begin`: call sites that fire per bio
        cache their site ids so opening a span neither allocates a key
        tuple nor hashes an enum.  Recycles a pooled span when one is
        free.
        """
        span_id = self._next_id
        self._next_id = span_id + 1
        pool = self._pool
        if pool:
            span = pool.pop()
            span.span_id = span_id
            span.parent_id = self.current_parent
            span.site = site
            span.start = self.sim.now
            span.nbytes = nbytes
            return span
        return Span(self, span_id, self.current_parent, site,
                    self.sim.now, nbytes)

    def begin(self, layer: str, name, device: Optional[str] = None,
              nbytes: int = 0) -> Span:
        """Open a span starting now; close it with :meth:`end`."""
        return self.begin_at(self.sink.site(layer, name, device), nbytes)

    def end(self, span: Span) -> None:
        """Close ``span`` now, record it, and recycle it."""
        sink = self.sink
        ordinal = sink.total_recorded
        sink.total_recorded = ordinal + 1
        capacity = sink.capacity
        offset = (ordinal % capacity) * RECORD_SIZE
        if ordinal >= capacity:
            sink._fold_one(offset)
        _RECORD.pack_into(sink.buf, offset, span.span_id, span.parent_id,
                          span.site, span.start, _NAN, self.sim.now,
                          span.nbytes)
        self._pool.append(span)

    def complete_io(self, site: int, start: float, mark: float,
                    nbytes: int, parent: int) -> None:
        """Record a device-command span ending now, sans ``Span`` object.

        The fast path for :class:`~repro.block.device.BlockDevice`
        completions: the device already holds every timestamp (submit
        time on the bio, service start computed by ``_serve``) and caches
        its per-op site ids, so the whole span is one call at
        completion.  ``mark`` is the channel-grant time; ``parent`` is
        the root-span id captured at submission (``-1`` for none).
        """
        span_id = self._next_id
        self._next_id = span_id + 1
        sink = self.sink
        ordinal = sink.total_recorded
        sink.total_recorded = ordinal + 1
        capacity = sink.capacity
        offset = (ordinal % capacity) * RECORD_SIZE
        if ordinal >= capacity:
            sink._fold_one(offset)
        _RECORD.pack_into(sink.buf, offset, span_id, parent, site, start,
                          mark, self.sim.now, nbytes)

    def discard(self, span: Span) -> None:
        """Drop an open span without recording it, and recycle it.

        Used when the measured work never completed (power loss or
        device failure mid-command): the device's ``io_seconds`` counter
        skips those too, keeping span totals reconcilable.
        """
        self._pool.append(span)

    def instant(self, layer: str, name, device: Optional[str] = None,
                nbytes: int = 0) -> None:
        """Record a zero-duration span (synchronous work whose
        information is the count and byte volume, not elapsed time — the
        simulated clock cannot advance inside a callback).  Convenience
        wrapper; the datapath's own instants bypass it via
        :meth:`aggregate_row`."""
        span_id = self._next_id
        self._next_id = span_id + 1
        sink = self.sink
        site = sink.site(layer, name, device)
        ordinal = sink.total_recorded
        sink.total_recorded = ordinal + 1
        capacity = sink.capacity
        offset = (ordinal % capacity) * RECORD_SIZE
        if ordinal >= capacity:
            sink._fold_one(offset)
        now = self.sim.now
        _RECORD.pack_into(sink.buf, offset, span_id, self.current_parent,
                          site, now, _NAN, now, nbytes)
