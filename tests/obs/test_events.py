"""Unit tests for the event taxonomy and schema validation."""

from repro.obs import EVENT_SCHEMA, Event
from repro.obs.events import (
    EV_DEPLOY_RPC,
    EV_SIM_DELIVER,
    EV_SIM_INJECT,
    validate_event_dict,
    validate_fields,
)


class TestTaxonomy:
    def test_every_kind_is_namespaced(self):
        for kind in EVENT_SCHEMA:
            subsystem, _, action = kind.partition(".")
            assert subsystem in (
                "sim", "detect", "trace", "replan", "deploy", "fuzz",
                "selfcheck",
            )
            assert action


class TestEventEnvelope:
    def test_to_dict_flattens_fields(self):
        event = Event(time=1.5, kind=EV_SIM_DELIVER, fields={
            "flow": 2, "size": 4096,
        })
        assert event.to_dict() == {
            "ts": 1.5, "kind": EV_SIM_DELIVER, "flow": 2, "size": 4096,
        }


class TestValidateDict:
    def test_valid_event_passes(self):
        blob = {"ts": 0.0, "kind": EV_SIM_INJECT, "flow": 1}
        assert validate_event_dict(blob) is None

    def test_extra_scalar_fields_allowed(self):
        blob = {"ts": 0.0, "kind": EV_SIM_INJECT, "flow": 1, "note": "x"}
        assert validate_event_dict(blob) is None

    def test_missing_kind(self):
        assert "kind" in validate_event_dict({"ts": 0.0})

    def test_non_string_kind(self):
        assert "kind" in validate_event_dict({"ts": 0.0, "kind": 3})

    def test_missing_ts(self):
        problem = validate_event_dict({"kind": EV_SIM_INJECT, "flow": 1})
        assert "ts" in problem

    def test_boolean_ts_rejected(self):
        problem = validate_event_dict(
            {"ts": True, "kind": EV_SIM_INJECT, "flow": 1}
        )
        assert "ts" in problem

    def test_unknown_kind(self):
        problem = validate_event_dict({"ts": 0.0, "kind": "no.such"})
        assert "unknown event kind" in problem

    def test_missing_required_field(self):
        problem = validate_event_dict({"ts": 0.0, "kind": EV_DEPLOY_RPC})
        assert "missing required field" in problem
        assert "switch" in problem

    def test_non_scalar_field(self):
        problem = validate_event_dict(
            {"ts": 0.0, "kind": EV_SIM_INJECT, "flow": {"a": 1}}
        )
        assert "not a JSON scalar" in problem


class TestValidateEvent:
    def test_reserved_field_shadowing(self):
        event = Event(time=0.0, kind=EV_SIM_INJECT, fields={
            "flow": 1, "ts": 9.0,
        })
        assert "reserved" in validate_fields(event.time, event.kind, event.fields)

    def test_valid_live_event(self):
        event = Event(time=0.0, kind=EV_SIM_INJECT, fields={"flow": 1})
        assert validate_fields(event.time, event.kind, event.fields) is None
