"""Unit tests for the Telemetry facade and JSONL stream loading."""

import pytest

from repro.obs import (
    Telemetry,
    TelemetryBus,
    TelemetryError,
    aggregate_jsonl,
    iter_jsonl,
    registry_from_aggregate,
)
from repro.obs.events import EV_SIM_DROP, EV_SIM_INJECT


class TestFacade:
    def test_defaults_build_bus_and_registry(self):
        telemetry = Telemetry(capacity=16)
        assert telemetry.bus.capacity == 16
        assert len(telemetry.registry) == 0

    def test_packet_events_is_set_once(self):
        assert Telemetry().bus.packet_events is False
        assert Telemetry(packet_events=True).bus.packet_events is True
        own = TelemetryBus(packet_events=True)
        assert Telemetry(bus=own).bus is own
        with pytest.raises(TelemetryError, match="packet_events"):
            Telemetry(bus=TelemetryBus(), packet_events=True)

    def test_clock_binding_stamps_events(self):
        telemetry = Telemetry()
        assert telemetry.now() == 0.0
        ticks = iter([1.5, 2.5])
        telemetry.bind_clock(lambda: next(ticks))
        telemetry.emit(EV_SIM_INJECT, flow=1)
        telemetry.emit(EV_SIM_INJECT, time=9.0, flow=2)  # explicit wins
        times = [event.time for event in telemetry.bus.events()]
        assert times == [1.5, 9.0]
        telemetry.bind_clock(None)
        telemetry.emit(EV_SIM_INJECT, flow=3)
        assert telemetry.bus.events()[-1].time == 0.0

    def test_snapshot_bundles_events_and_metrics(self):
        telemetry = Telemetry()
        telemetry.emit(EV_SIM_INJECT, flow=1)
        telemetry.registry.counter("x_total", "X.").inc()
        snapshot = telemetry.snapshot()
        assert snapshot["events"]["total"] == 1
        assert snapshot["metrics"]["x_total"]["samples"][0]["value"] == 1

    def test_export_and_render(self, tmp_path):
        telemetry = Telemetry()
        telemetry.emit(EV_SIM_INJECT, flow=1)
        telemetry.registry.gauge("g", "G.").set(3)
        path = tmp_path / "t.jsonl"
        assert telemetry.export_jsonl(str(path)) == 1
        assert "g 3" in telemetry.render_prometheus()


class TestIterJsonl:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"ts":0,"kind":"sim.packet.inject","flow":1}\n\n')
        rows = list(iter_jsonl(str(path)))
        assert len(rows) == 1
        assert rows[0][0] == 1  # line number

    def test_malformed_json_raises_with_location(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"ts":0,"kind":"sim.packet.inject","flow":1}\n{oops\n')
        with pytest.raises(TelemetryError, match=r"s\.jsonl:2.*malformed"):
            list(iter_jsonl(str(path)))

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(TelemetryError, match="not a JSON object"):
            list(iter_jsonl(str(path)))


class TestAggregateJsonl:
    def _write(self, tmp_path, telemetry):
        path = tmp_path / "stream.jsonl"
        telemetry.export_jsonl(str(path))
        return str(path)

    def test_aggregates_by_kind_and_span(self, tmp_path):
        telemetry = Telemetry()
        telemetry.emit(EV_SIM_INJECT, time=0.5, flow=1)
        telemetry.emit(EV_SIM_INJECT, time=2.0, flow=2)
        telemetry.emit(EV_SIM_DROP, time=1.0, reason="ttl")
        aggregate = aggregate_jsonl(self._write(tmp_path, telemetry))
        assert aggregate == {
            "events": 3,
            "by_kind": {EV_SIM_DROP: 1, EV_SIM_INJECT: 2},
            "first_ts": 0.5,
            "last_ts": 2.0,
        }

    def test_empty_stream_aggregates_to_zero(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        aggregate = aggregate_jsonl(str(path))
        assert aggregate["events"] == 0
        assert aggregate["first_ts"] is None

    def test_schema_violation_raises_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"ts":0,"kind":"sim.packet.inject","flow":1}\n'
            '{"ts":0,"kind":"made.up"}\n'
        )
        with pytest.raises(TelemetryError, match=r"bad\.jsonl:2.*unknown"):
            aggregate_jsonl(str(path))


class TestRegistryFromAggregate:
    def test_rebuilds_scrape_counters(self, tmp_path):
        telemetry = Telemetry()
        telemetry.emit(EV_SIM_INJECT, time=1.0, flow=1)
        telemetry.emit(EV_SIM_INJECT, time=4.0, flow=2)
        path = tmp_path / "s.jsonl"
        telemetry.export_jsonl(str(path))
        registry = registry_from_aggregate(aggregate_jsonl(str(path)))
        text = registry.render_prometheus()
        assert 'telemetry_events_total{kind="sim.packet.inject"} 2' in text
        assert "telemetry_stream_span_seconds 3" in text

    def test_empty_aggregate_has_no_span_sample(self):
        registry = registry_from_aggregate(
            {"events": 0, "by_kind": {}, "first_ts": None, "last_ts": None}
        )
        sample_lines = [
            line
            for line in registry.render_prometheus().splitlines()
            if line.startswith("telemetry_stream_span_seconds ")
        ]
        assert sample_lines == []
