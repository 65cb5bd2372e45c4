"""End-to-end bio tracing: spans, sink aggregates, reconciliation.

The tracer's contract has three legs — it is off (and free) by default,
its per-``(layer, name, device)`` aggregates are lossless even when the
span ring evicts, and the per-device span totals reconcile exactly with
the ``DeviceStats.io_seconds`` counters the registry snapshots.
"""

import json

import pytest

from repro.block.bio import Bio, Op
from repro.harness.arrays import SMALL, make_raizn
from repro.harness.tracecli import _build, _workload, dump_spans, run_trace
from repro.trace import (MetricsRegistry, TraceSink, Tracer,
                         format_trace_report, reconcile)
from repro.trace.tracer import DEVICE_LAYERS, SITE_BITS
from repro.raizn import RaiznConfig, RaiznVolume
from repro.sim import Simulator
from repro.units import KiB
from repro.workloads.fio import issue
from repro.zns import ZNSDevice


class FakeSim:
    """A settable clock is all the tracer needs from the simulator."""

    def __init__(self) -> None:
        self.now = 0.0


def _drive(sim, volume, bios, iodepth):
    return sim.run_process(issue(sim, volume, bios, iodepth))


def _traced_volume():
    sim, volume, devices = _build(seed=7, quick=True)
    bios = _workload(volume, seed=7, quick=True)
    _drive(sim, volume, bios, 32)
    return sim, volume, devices


class TestDisabledByDefault:
    def test_no_tracer_without_config_flag(self):
        sim = Simulator()
        volume, devices = make_raizn(sim, SMALL, seed=3)
        bios = [Bio.write(offset, bytes(64 * KiB))
                for offset in range(0, volume.zone_capacity, 64 * KiB)]
        assert volume.tracer is None
        assert all(dev.tracer is None for dev in devices)
        _drive(sim, volume, bios, 64)
        # The per-bio trace slots never get touched.
        assert all(bio.span is None for bio in bios)


class TestTracerUnit:
    def test_span_records_duration_and_site(self):
        sim = FakeSim()
        tracer = Tracer(sim)
        span = tracer.begin("volume", Op.WRITE, None, 4096)
        sim.now = 0.25
        tracer.end(span)
        agg = tracer.sink.aggregates
        row = agg[("volume", Op.WRITE, None)]
        assert row[0] == 1
        assert row[1] == pytest.approx(0.25)
        assert row[2] == 4096

    def test_spans_are_pooled_and_recycled(self):
        tracer = Tracer(FakeSim())
        site = tracer.site("md", "general", "dev0")
        span = tracer.begin_at(site)
        tracer.end(span)
        assert tracer.begin_at(site) is span  # recycled, not reallocated

    def test_discard_records_nothing(self):
        tracer = Tracer(FakeSim())
        tracer.discard(tracer.begin("zns", Op.READ, "dev0"))
        assert tracer.sink.total_recorded == 0
        assert all(row[0] == 0 for row in tracer.sink.rows)

    def test_ring_eviction_keeps_aggregates_lossless(self):
        sim = FakeSim()
        tracer = Tracer(sim, TraceSink(capacity=4))
        for i in range(10):
            sim.now = float(i)
            span = tracer.begin("volume", Op.WRITE, None, 100)
            sim.now = float(i) + 0.5
            tracer.end(span)
        sink = tracer.sink
        assert sink.total_recorded == 10
        assert sink.ring_count == 4
        assert sink.evicted == 6
        row = sink.aggregates[("volume", Op.WRITE, None)]
        assert row[0] == 10  # evicted spans still counted
        assert row[1] == pytest.approx(5.0)
        assert row[2] == 1000

    def test_complete_io_equivalent_to_span(self):
        """The device fast path and the span path must aggregate
        identically (same count/seconds/bytes/queue split)."""
        sim = FakeSim()
        tracer = Tracer(sim)
        site = tracer.site("zns", Op.READ, "zns0")
        sim.now = 3.0
        tracer.complete_io(site, start=1.0, mark=2.0, nbytes=512, parent=-1)
        row = tracer.sink.aggregates[("zns", Op.READ, "zns0")]
        assert row == [1, pytest.approx(2.0), 512, pytest.approx(1.0)]

    def test_root_code_round_trips_site_and_id(self):
        tracer = Tracer(FakeSim())
        site = tracer.site("volume", Op.FLUSH)
        code = tracer.root_code(site)
        assert code & ((1 << SITE_BITS) - 1) == site
        sim_id = code >> SITE_BITS
        tracer.sim.now = 1.5
        tracer.record_root(code, start=1.0, nbytes=0)
        record = tracer.sink._ring_record(0)
        assert record["id"] == sim_id
        assert record["parent"] is None
        assert record["layer"] == "volume"
        assert record["end"] == pytest.approx(1.5)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceSink(capacity=0)


class TestTracedRun:
    def test_spans_cover_all_layers(self):
        _sim, volume, _devices = _traced_volume()
        sink = volume.tracer.sink
        layers = {layer for (layer, _n, _d) in sink.aggregates}
        assert {"volume", "stripe", "parity", "md", "zns"} <= layers

    def test_device_spans_reconcile_exactly(self):
        _sim, volume, _devices = _traced_volume()
        registry = MetricsRegistry.for_volume(volume)
        rows = reconcile(volume.tracer.sink, registry)
        assert rows, "expected one reconcile row per device"
        for row in rows:
            assert row.ok, (row.device, row.delta_fraction)
            # Same clock, same completion rule: the match is exact, the
            # 1% tolerance is headroom, not slack being consumed.
            assert row.span_seconds == pytest.approx(row.registry_seconds,
                                                     rel=1e-9)

    def test_report_renders_queue_service_split(self):
        _sim, volume, _devices = _traced_volume()
        registry = MetricsRegistry.for_volume(volume)
        report = format_trace_report(volume.tracer.sink, registry)
        assert "queue" in report and "service" in report
        assert "reconciliation" in report
        assert "MISMATCH" not in report

    def test_child_spans_parent_under_roots(self):
        _sim, volume, _devices = _traced_volume()
        sink = volume.tracer.sink
        ids = set()
        parented = 0
        for ordinal in range(sink.evicted, sink.total_recorded):
            record = sink._ring_record(ordinal)
            ids.add(record["id"])
            if record["parent"] is not None:
                parented += 1
                assert record["layer"] != "volume"
        assert parented > 0
        for ordinal in range(sink.evicted, sink.total_recorded):
            parent = sink._ring_record(ordinal)["parent"]
            if parent is not None:
                assert parent in ids

    def test_device_reads_parent_under_their_logical_read(self):
        """Every device read issued for a logical read — first attempt,
        transient retry, healing and degraded survivor reads — names that
        read's root span as its parent; the read fan-out is deferred one
        hop past ``submit``, so the parent rides the piece context."""
        from repro.block import Bio
        from repro.errors import TransientCommandError

        sim, volume, devices = _build(seed=11, quick=True)
        su = volume.config.stripe_unit_bytes
        data = bytes(range(256)) * (8 * su // 256)
        volume.execute(Bio.write(0, data))
        flaky = [2]

        def transient_once(dev, bio):
            if bio.op is Op.READ and flaky[0]:
                flaky[0] -= 1
                raise TransientCommandError(f"{dev.name}: injected")
        devices[volume.mapper.lba_to_pba(0)[0]].add_hook("pre_apply",
                                                         transient_once)
        bad_device, bad_pba = volume.mapper.lba_to_pba(5 * su)
        devices[bad_device].mark_bad(bad_pba, 4096)
        first = volume.tracer.sink.total_recorded
        _drive(sim, volume, [Bio.read(0, 4 * su), Bio.read(4 * su, 4 * su)],
               2)
        volume.fail_device(volume.mapper.lba_to_pba(2 * su)[0])
        _drive(sim, volume, [Bio.read(0, 8 * su), Bio.read(su, 4096)], 2)
        assert volume.health.transient_retries == 2
        assert volume.health.heals == 1

        sink = volume.tracer.sink
        records = [sink._ring_record(ordinal)
                   for ordinal in range(first, sink.total_recorded)]
        roots = {record["id"] for record in records
                 if record["layer"] == "volume" and record["name"] == "read"}
        assert len(roots) == 4
        device_reads = [record for record in records
                        if record["layer"] == "zns"
                        and record["name"] == "read"]
        assert len(device_reads) > 8 + 4  # pieces plus survivor reads
        for record in device_reads:
            assert record["parent"] in roots, record
        # The healed unit's log append parents under its read as well.
        assert any(record["layer"] == "md" and record["parent"] in roots
                   for record in records)

    def test_shared_degraded_read_parents_under_its_first_submitter(self):
        """Two logical reads in flight over a lost device, the second
        reconstructing from the unit the first reads directly: one device
        command serves both and its span belongs to the read that
        submitted it."""
        from repro.block import Bio

        sim, volume, _devices = _build(seed=11, quick=True)
        su = volume.config.stripe_unit_bytes
        volume.execute(Bio.write(0, bytes(range(256)) * (4 * su // 256)))
        volume.fail_device(volume.mapper.lba_to_pba(2 * su)[0])
        sink = volume.tracer.sink
        first = sink.total_recorded
        direct, degraded = Bio.read(0, su), Bio.read(2 * su, su)
        _drive(sim, volume, [direct, degraded], 2)
        assert volume.readpath.joined_reads == 1
        records = [sink._ring_record(ordinal)
                   for ordinal in range(first, sink.total_recorded)]
        # Span ids are handed out at submission: the direct read's first.
        direct_root, degraded_root = sorted(
            record["id"] for record in records
            if record["layer"] == "volume" and record["name"] == "read")
        parents = [record["parent"] for record in records
                   if record["layer"] == "zns" and record["name"] == "read"]
        assert sorted(parents) == [direct_root] + [degraded_root] * 3

    def test_jsonl_dump_schema(self, tmp_path):
        _sim, volume, _devices = _traced_volume()
        path = tmp_path / "spans.jsonl"
        written = dump_spans(volume, str(path))
        lines = path.read_text().splitlines()
        assert written == len(lines) > 0
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"id", "parent", "layer", "name", "device",
                                   "start", "mark", "end", "bytes"}
            # Enum names are normalized to their string values.
            assert isinstance(record["name"], str)
            assert not record["name"].startswith("Op.")
            assert record["end"] >= record["start"]
            if record["layer"] in DEVICE_LAYERS:
                assert record["device"] is not None

    def test_run_trace_quick_passes(self, tmp_path, capsys):
        out = tmp_path / "spans.jsonl"
        assert run_trace(quick=True, seed=0, out=str(out)) == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "trace PASSED" in captured


class TestMetricsRegistry:
    def test_for_volume_names(self):
        _sim, volume, devices = _traced_volume()
        registry = MetricsRegistry.for_volume(volume)
        names = set(registry.names())
        assert "volume" in names and "health" in names
        for dev in devices:
            assert f"device.{dev.name}" in names

    def test_snapshot_and_flat_agree(self):
        _sim, volume, _devices = _traced_volume()
        registry = MetricsRegistry.for_volume(volume)
        snap = registry.snapshot()
        flat = registry.flat()
        for name, counters in snap.items():
            for key, value in counters.items():
                if isinstance(value, (int, float)):
                    assert flat[f"{name}.{key}"] == value

    def test_to_json_parses(self):
        _sim, volume, _devices = _traced_volume()
        registry = MetricsRegistry.for_volume(volume)
        decoded = json.loads(registry.to_json())
        assert decoded.keys() == registry.snapshot().keys()


class TestMetadataGcObservability:
    """Metadata-zone GC is as visible as ``submit``: one ``md``/``reclaim``
    span per rotation, tiled by the commands it waited for, and the
    stall it used to cause as a registry counter."""

    @staticmethod
    def _rotating_volume(**config):
        # 256 KiB zones: a metadata zone holds 32 partial-parity entries
        # of a 4 KiB write, so the logs rotate under a QD-8 loop.
        sim = Simulator()
        devices = [ZNSDevice(sim, name=f"zns{i}", num_zones=12,
                             zone_capacity=256 * KiB, seed=40 + i)
                   for i in range(5)]
        volume = RaiznVolume.create(
            sim, devices, RaiznConfig(num_data=4, stripe_unit_bytes=64 * KiB,
                                      tracing=True, **config))
        offsets = iter(range(0, 900 * KiB, 4 * KiB))

        def pump(_event=None):
            offset = next(offsets, None)
            if offset is not None:
                volume.submit(Bio.write(offset, bytes(4 * KiB))) \
                    .add_callback(pump)
        for _ in range(8):
            pump()
        sim.run()
        return volume, devices

    def test_one_reclaim_span_per_rotation_tiled_by_its_commands(self):
        volume, devices = self._rotating_volume()
        sink = volume.tracer.sink
        assert sink.evicted == 0
        records = [sink._ring_record(n) for n in range(sink.total_recorded)]
        rotations = 0
        for dev, mdz in zip(devices, volume.mdzones):
            mine = [r for r in records if r["device"] == dev.name]
            reclaims = [r for r in mine
                        if (r["layer"], r["name"]) == ("md", "reclaim")]
            assert len(reclaims) == mdz.gc_cycles
            rotations += len(reclaims)
            flushes = [r for r in mine if r["name"] == "flush"]
            resets = [r for r in mine if r["name"] == "zone_reset"]
            appends = [r for r in mine if r["name"] == "zone_append"]
            for span in reclaims:
                # checkpoint-await -> flush -> reset, back to back, the
                # span ending with the old zone's reset.
                reset = next(r for r in resets if r["end"] == span["end"])
                flush = next(r for r in flushes if r["end"] == reset["start"])
                assert span["start"] <= flush["start"]
                checkpoint = [r["end"] for r in appends
                              if r["start"] == span["start"]]
                assert flush["start"] == max(checkpoint, default=span["start"])
        assert rotations >= 5

    def test_registry_exports_the_stall(self):
        # One stripe of 4 KiB writes is two log zones of partial parity
        # on one device: with a single swap zone the second rotation
        # waits out the first one's reset, and the appends behind it too.
        volume, devices = self._rotating_volume()
        flat = MetricsRegistry.for_volume(volume).flat()
        for dev, mdz in zip(devices, volume.mdzones):
            assert flat[f"mdzone.{dev.name}.gc_cycles"] == mdz.gc_cycles
            assert flat[f"mdzone.{dev.name}.swap_waits"] == mdz.swap_waits
            assert flat[f"mdzone.{dev.name}.lock_wait_s"] == mdz.lock_wait_s
            assert (mdz.lock_wait_s > 1e-3) == bool(mdz.swap_waits)
        assert sum(mdz.swap_waits for mdz in volume.mdzones) >= 3

    def test_no_append_waits_out_a_flush_or_a_reset(self):
        """With a swap zone per rotation in flight the role lock is held
        for the checkpoint submission only."""
        volume, _devices = self._rotating_volume(num_metadata_zones=4)
        assert sum(mdz.gc_cycles for mdz in volume.mdzones) >= 5
        assert not any(mdz.swap_waits for mdz in volume.mdzones)
        assert sum(mdz.lock_wait_s for mdz in volume.mdzones) == 0.0
