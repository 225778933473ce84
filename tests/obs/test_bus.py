"""Unit tests for the telemetry bus (ring buffer + lossless counts)."""

import json

import pytest

from repro.obs import TelemetryBus, TelemetryError
from repro.obs import bus as bus_module
from repro.obs.events import (
    EV_SIM_DELIVER,
    EV_SIM_DROP,
    EV_SIM_INJECT,
    EV_SIM_PAUSE,
    EVENT_SCHEMA,
    validate_fields,
)


class Label(str):
    """A ``str`` subclass (misses the bus's exact-type check)."""


class FlowId(int):
    """An ``int`` subclass (misses the bus's exact-type check)."""


def warm_bus(**kwargs):
    """A bus that has accepted one valid event of every registered shape."""
    bus = TelemetryBus(**kwargs)
    for kind, required in EVENT_SCHEMA.items():
        bus.emit(0.0, kind, **{name: 0 for name in required})
    return bus


def cold_verdict(time, kind, fields):
    """The message a bus with no cached shape raises (None: accepted)."""
    try:
        TelemetryBus().emit(time, kind, **fields)
    except TelemetryError as exc:
        return str(exc)
    return None


class TestEmit:
    def test_emit_appends_and_counts(self):
        bus = TelemetryBus()
        event = bus.emit(0.5, EV_SIM_INJECT, flow=3)
        assert event.time == 0.5
        assert event.kind == EV_SIM_INJECT
        assert event.fields["flow"] == 3
        assert len(bus) == 1
        assert bus.total_emitted == 1
        assert bus.count(EV_SIM_INJECT) == 1
        assert bus.count(EV_SIM_DROP) == 0

    def test_events_filter_by_kind(self):
        bus = TelemetryBus()
        bus.emit(0.0, EV_SIM_INJECT, flow=1)
        bus.emit(0.1, EV_SIM_DROP, reason="ttl")
        bus.emit(0.2, EV_SIM_INJECT, flow=2)
        assert [e.fields["flow"] for e in bus.events(EV_SIM_INJECT)] == [1, 2]
        assert len(bus.events()) == 3
        assert [e.kind for e in bus] == [
            EV_SIM_INJECT, EV_SIM_DROP, EV_SIM_INJECT
        ]

    def test_subscriber_sees_every_emit(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(0.0, EV_SIM_INJECT, flow=1)
        bus.emit(0.1, EV_SIM_DROP, reason="ttl")
        assert [e.kind for e in seen] == [EV_SIM_INJECT, EV_SIM_DROP]


class TestValidation:
    def test_unknown_kind_rejected_when_strict(self):
        bus = TelemetryBus()
        with pytest.raises(TelemetryError, match="unknown event kind"):
            bus.emit(0.0, "sim.made.up")

    def test_missing_required_field_rejected(self):
        bus = TelemetryBus()
        with pytest.raises(TelemetryError, match="missing required field"):
            bus.emit(0.0, EV_SIM_PAUSE, sender="A", receiver="B")

    def test_non_scalar_field_rejected(self):
        bus = TelemetryBus()
        with pytest.raises(TelemetryError, match="not a JSON scalar"):
            bus.emit(0.0, EV_SIM_INJECT, flow=[1, 2])

    def test_reserved_field_shadow_rejected(self):
        bus = TelemetryBus()
        with pytest.raises(TelemetryError, match="reserved"):
            bus.emit(0.0, EV_SIM_INJECT, flow=1, ts=9.0)

    def test_non_strict_accepts_unregistered_kinds(self):
        bus = TelemetryBus(strict=False)
        bus.emit(0.0, "custom.kind", anything=1)
        assert bus.count("custom.kind") == 1

    # -- the shape cache never weakens the schema ----------------------
    # Every case below is emitted on a bus that has already accepted one
    # valid event of every registered shape, and must get exactly the
    # verdict (and message) a fresh bus with nothing cached gives.

    @pytest.mark.parametrize(
        "time, kind, fields, message",
        [
            (0.0, EV_SIM_DELIVER, {"flow": [1, 2], "size": 1},
             "sim.packet.deliver: field 'flow' is not a JSON scalar (list)"),
            (0.0, EV_SIM_DELIVER, {"flow": 1, "size": {"a": 1}},
             "sim.packet.deliver: field 'size' is not a JSON scalar (dict)"),
            ("0.0", EV_SIM_INJECT, {"flow": 1},
             "sim.packet.inject: event is missing a numeric 'ts'"),
            (True, EV_SIM_INJECT, {"flow": 1},
             "sim.packet.inject: event is missing a numeric 'ts'"),
            (None, EV_SIM_INJECT, {"flow": 1},
             "sim.packet.inject: event is missing a numeric 'ts'"),
            (0.0, EV_SIM_INJECT, {"flow": 1, "ts": 9.0},
             "sim.packet.inject: field 'ts' shadows a reserved key"),
            (0.0, EV_SIM_DELIVER, {"flow": 1},
             "sim.packet.deliver: missing required field 'size'"),
            (0.0, EV_SIM_PAUSE, {"sender": "A", "queue": 1},
             "sim.pfc.pause: missing required field 'receiver'"),
            (0.0, ["sim.packet.inject"], {"flow": 1},
             "event is missing a string 'kind'"),
            (0.0, "sim.made.up", {"flow": 1},
             "unknown event kind 'sim.made.up'"),
            (float("nan"), EV_SIM_INJECT, {"flow": 1},
             "sim.packet.inject: 'ts' is not a finite number (nan)"),
            (float("inf"), EV_SIM_INJECT, {"flow": 1},
             "sim.packet.inject: 'ts' is not a finite number (inf)"),
            (float("-inf"), EV_SIM_INJECT, {"flow": 1},
             "sim.packet.inject: 'ts' is not a finite number (-inf)"),
            (0.0, EV_SIM_DELIVER, {"flow": 1, "size": float("inf")},
             "sim.packet.deliver: field 'size' is not a finite number (inf)"),
            (0.0, EV_SIM_DELIVER, {"flow": 1, "size": float("-inf")},
             "sim.packet.deliver: field 'size' is not a finite number (-inf)"),
            (0.0, EV_SIM_DELIVER, {"flow": float("nan"), "size": 1},
             "sim.packet.deliver: field 'flow' is not a finite number (nan)"),
        ],
        ids=[
            "list-value", "dict-value", "str-ts", "bool-ts", "none-ts",
            "ts-field", "missing-size", "missing-receiver", "list-kind",
            "unknown-kind", "nan-ts", "inf-ts", "neg-inf-ts", "inf-value",
            "neg-inf-value", "nan-value",
        ],
    )
    def test_warm_bus_rejects_what_a_cold_bus_rejects(
        self, time, kind, fields, message
    ):
        bus = warm_bus()
        expected = f"invalid telemetry event: {message}"
        assert cold_verdict(time, kind, fields) == expected
        with pytest.raises(TelemetryError) as caught:
            bus.emit(time, kind, **fields)
        assert str(caught.value) == expected
        assert bus.total_emitted == len(EVENT_SCHEMA)

    @pytest.mark.parametrize(
        "value", [Label("L1"), FlowId(7)], ids=["str-subclass", "int-subclass"]
    )
    def test_scalar_subclass_gets_the_full_validators_verdict(self, value):
        """A subclass misses the exact-type check and is judged by the
        full validator, whose ``isinstance`` admits it: warm or cold, the
        verdict is the same."""
        bus = warm_bus()
        assert cold_verdict(0.0, EV_SIM_INJECT, {"flow": value}) is None
        event = bus.emit(0.0, EV_SIM_INJECT, flow=value)
        assert event.fields["flow"] is value

    def test_kind_field_cannot_reach_the_ring(self):
        """``kind`` (like ``time``) binds to emit's own parameter, so a
        field of that name fails at the call; the validator the bus
        delegates to rejects it as reserved either way."""
        bus = warm_bus()
        with pytest.raises(TypeError):
            bus.emit(0.0, EV_SIM_INJECT, **{"flow": 1, "kind": "x"})
        assert bus.total_emitted == len(EVENT_SCHEMA)
        assert validate_fields(0.0, EV_SIM_INJECT, {"flow": 1, "kind": "x"}) == (
            "sim.packet.inject: field 'kind' shadows a reserved key"
        )

    def test_rejected_shape_is_not_cached(self):
        bus = TelemetryBus()
        for _ in range(2):
            with pytest.raises(TelemetryError, match="missing required field"):
                bus.emit(0.0, EV_SIM_DELIVER, flow=1)
        assert bus.total_emitted == 0

    def test_known_shape_skips_the_full_validator(self, monkeypatch):
        bus = warm_bus()
        calls = []
        real = bus_module.validate_fields
        monkeypatch.setattr(
            bus_module,
            "validate_fields",
            lambda *args: calls.append(args) or real(*args),
        )
        bus.emit(0.5, EV_SIM_DELIVER, flow=3, size=1000)
        bus.emit(1, EV_SIM_DROP, reason="ttl")
        assert calls == []
        for _ in range(2):
            bus.emit(0.5, EV_SIM_DROP, reason="ttl", flow=None)
        assert len(calls) == 1  # a new shape is validated once

    def test_non_strict_warm_bus_still_accepts_unregistered_kinds(self):
        bus = warm_bus(strict=False)
        bus.emit(0.0, "custom.kind", anything=[1])
        assert bus.count("custom.kind") == 1


class TestRingBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(TelemetryError, match="capacity"):
            TelemetryBus(capacity=0)

    def test_eviction_keeps_counts_lossless(self):
        bus = TelemetryBus(capacity=4)
        for flow in range(10):
            bus.emit(flow * 0.1, EV_SIM_INJECT, flow=flow)
        assert len(bus) == 4
        assert bus.total_emitted == 10
        assert bus.evicted == 6
        # Counts survive eviction; the ring holds only the newest events.
        assert bus.count(EV_SIM_INJECT) == 10
        assert [e.fields["flow"] for e in bus.events()] == [6, 7, 8, 9]

    def test_stats_block(self):
        bus = TelemetryBus(capacity=2)
        bus.emit(0.0, EV_SIM_INJECT, flow=1)
        bus.emit(0.1, EV_SIM_DROP, reason="ttl")
        bus.emit(0.2, EV_SIM_DROP, reason="ttl")
        assert bus.stats() == {
            "total": 3,
            "buffered": 2,
            "evicted": 1,
            "folded": 0,
            "capacity": 2,
            "by_kind": {EV_SIM_DROP: 2, EV_SIM_INJECT: 1},
        }

    def test_repr_mentions_occupancy(self):
        bus = TelemetryBus(capacity=8)
        bus.emit(0.0, EV_SIM_INJECT, flow=1)
        assert "1/8" in repr(bus)


class TestFold:
    def test_fold_counts_without_building(self):
        bus = TelemetryBus(capacity=2)
        seen = []
        bus.subscribe(seen.append)
        bus.emit(0.0, EV_SIM_DROP, reason="ttl")
        bus.fold(EV_SIM_INJECT, 5)
        bus.fold(EV_SIM_DELIVER, 3)
        bus.fold(EV_SIM_INJECT, 2)
        assert bus.count(EV_SIM_INJECT) == 7
        assert bus.count(EV_SIM_DELIVER) == 3
        assert bus.total_emitted == 11
        assert bus.folded == 10
        # Nothing was built: the ring and the subscriber saw one event,
        # and folded events are not counted as evicted.
        assert [e.kind for e in bus.events()] == [EV_SIM_DROP]
        assert [e.kind for e in seen] == [EV_SIM_DROP]
        assert bus.evicted == 0
        assert bus.stats()["folded"] == 10

    def test_evicted_counts_only_built_events(self):
        bus = TelemetryBus(capacity=2)
        bus.fold(EV_SIM_INJECT, 100)
        for flow in range(5):
            bus.emit(0.0, EV_SIM_DROP, reason="ttl", flow=flow)
        assert bus.evicted == 3

    def test_fold_rejects_unknown_kind(self):
        bus = TelemetryBus()
        with pytest.raises(TelemetryError, match="sim.made.up"):
            bus.fold("sim.made.up", 1)
        assert bus.total_emitted == 0


class TestExport:
    def test_jsonl_lines_are_compact_and_key_sorted(self):
        bus = TelemetryBus()
        bus.emit(0.25, EV_SIM_INJECT, flow=7)
        (line,) = bus.to_jsonl_lines()
        assert line == '{"flow":7,"kind":"sim.packet.inject","ts":0.25}'

    def test_export_jsonl_round_trips(self, tmp_path):
        bus = TelemetryBus()
        bus.emit(0.0, EV_SIM_INJECT, flow=1)
        bus.emit(0.1, EV_SIM_DROP, reason="ttl", flow=1)
        path = tmp_path / "stream.jsonl"
        assert bus.export_jsonl(str(path)) == 2
        lines = path.read_text().splitlines()
        blobs = [json.loads(line) for line in lines]
        assert [b["kind"] for b in blobs] == [EV_SIM_INJECT, EV_SIM_DROP]
        assert blobs[1]["reason"] == "ttl"
