"""Telemetry event taxonomy: typed, timestamped structured events.

Every event the bus carries has a registered *kind* (a dotted name
grouping subsystem and action, e.g. ``sim.packet.drop``) and a schema —
the set of field names the kind requires. Registration is what makes the
JSONL export machine-checkable: ``repro-tagger stats`` (and the CI
telemetry smoke step) reject streams whose events carry unknown kinds,
missing fields, or non-scalar values.

The taxonomy and per-kind field lists are documented for humans in
``docs/OBSERVABILITY.md``; this module is the source of truth.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

# ----------------------------------------------------------------------
# Event kinds
# ----------------------------------------------------------------------
# Simulator data plane ------------------------------------------------
EV_SIM_INJECT = "sim.packet.inject"
EV_SIM_DELIVER = "sim.packet.deliver"
EV_SIM_DROP = "sim.packet.drop"
EV_SIM_PAUSE = "sim.pfc.pause"
EV_SIM_RESUME = "sim.pfc.resume"
EV_SIM_DEMOTE = "sim.tag.demote"
EV_SIM_WATCHDOG = "sim.watchdog.storm"
EV_SIM_DEADLOCK = "sim.deadlock.detect"

# Packet tracing (per-hop view, carried by PacketTracer's bus) ---------
EV_TRACE_RECEIVE = "trace.receive"
EV_TRACE_FORWARD = "trace.forward"
EV_TRACE_DELIVER = "trace.deliver"
EV_TRACE_DROP = "trace.drop"
EV_TRACE_PAUSE = "trace.pause"
EV_TRACE_RESUME = "trace.resume"

# Planner / incremental re-planner ------------------------------------
EV_REPLAN_APPLY = "replan.apply"

# Deployment orchestrator ---------------------------------------------
EV_DEPLOY_RPC = "deploy.rpc"
EV_DEPLOY_RETRY = "deploy.retry"
EV_DEPLOY_BREAKER_OPEN = "deploy.breaker.open"
EV_DEPLOY_BREAKER_CLOSE = "deploy.breaker.close"
EV_DEPLOY_ROLLBACK = "deploy.rollback"
EV_DEPLOY_QUARANTINE = "deploy.quarantine"
EV_DEPLOY_OUTCOME = "deploy.outcome"

# Runtime deadlock detection (DCFIT-style detector + recovery loop) ----
EV_DETECT_TRIGGER = "detect.trigger"
EV_DETECT_SUSPECT = "detect.suspect"
EV_DETECT_CONFIRM = "detect.confirm"
EV_DETECT_CLEAR = "detect.clear"
EV_DETECT_QUARANTINE = "detect.quarantine"
EV_DETECT_REARM = "detect.rearm"
EV_DETECT_ROLLBACK = "detect.rollback"

# Fuzzing harness ------------------------------------------------------
EV_FUZZ_SCENARIO = "fuzz.scenario"
EV_FUZZ_VIOLATION = "fuzz.violation"

# Repo self-check (static analyzer) ------------------------------------
EV_SELFCHECK_FINDING = "selfcheck.finding"
EV_SELFCHECK_RUN = "selfcheck.run"

#: kind -> field names every event of that kind must carry. Extra
#: fields are allowed (they must still be JSON scalars); missing
#: required fields are a schema violation.
EVENT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    EV_SIM_INJECT: ("flow",),
    EV_SIM_DELIVER: ("flow", "size"),
    EV_SIM_DROP: ("reason",),
    EV_SIM_PAUSE: ("sender", "receiver", "queue"),
    EV_SIM_RESUME: ("sender", "receiver", "queue"),
    EV_SIM_DEMOTE: ("switch", "old_tag", "new_tag"),
    EV_SIM_WATCHDOG: ("switch", "port", "queue", "dropped"),
    EV_SIM_DEADLOCK: ("switch", "port", "queue", "dropped"),
    EV_TRACE_RECEIVE: ("node",),
    EV_TRACE_FORWARD: ("node",),
    EV_TRACE_DELIVER: ("node",),
    EV_TRACE_DROP: ("node",),
    EV_TRACE_PAUSE: ("node",),
    EV_TRACE_RESUME: ("node",),
    EV_REPLAN_APPLY: (
        "delta_kind",
        "mode",
        "certified",
        "dirty_pairs",
        "changed_paths",
    ),
    EV_DEPLOY_RPC: ("switch", "status", "attempt"),
    EV_DEPLOY_RETRY: ("switch", "attempt"),
    EV_DEPLOY_BREAKER_OPEN: ("switch", "failures"),
    EV_DEPLOY_BREAKER_CLOSE: ("switch",),
    EV_DEPLOY_ROLLBACK: ("switches",),
    EV_DEPLOY_QUARANTINE: ("switch", "wiped"),
    EV_DEPLOY_OUTCOME: ("outcome", "rpcs"),
    EV_DETECT_TRIGGER: ("node", "port", "queue"),
    EV_DETECT_SUSPECT: ("switch", "port", "queue", "chain_len"),
    EV_DETECT_CONFIRM: ("switch", "port", "queue", "observations", "latency"),
    EV_DETECT_CLEAR: ("switch", "port", "queue", "reason"),
    EV_DETECT_QUARANTINE: ("switch", "port", "queue", "moved"),
    EV_DETECT_REARM: ("switch", "port", "queue", "backoff"),
    EV_DETECT_ROLLBACK: ("switch", "outcome"),
    EV_FUZZ_SCENARIO: ("scenario", "scenario_kind"),
    EV_FUZZ_VIOLATION: ("scenario", "invariant"),
    EV_SELFCHECK_FINDING: ("code", "module", "line", "allowlisted"),
    EV_SELFCHECK_RUN: ("files", "findings", "errors", "warnings"),
}

#: Reserved JSONL keys an event field may not shadow.
RESERVED_FIELDS = ("ts", "kind")

_SCALAR_TYPES = (str, int, float, bool, type(None))

#: Exact-type sets the bus's shape cache checks per emit (see
#: :meth:`~repro.obs.bus.TelemetryBus.emit`). A subclass misses them and
#: is judged by the full validator, whose ``isinstance`` checks decide.
SCALAR_TYPE_SET = frozenset(_SCALAR_TYPES)
TIMESTAMP_TYPE_SET = frozenset((int, float))


class Event(NamedTuple):
    """One structured telemetry event.

    ``time`` is whatever clock the emitting subsystem runs on —
    simulated seconds for the simulator, the orchestrator's virtual
    clock for deployments, elapsed wall seconds for the fuzzer. Events
    of one stream therefore share a clock; streams from different
    subsystems should be compared by kind, not by timestamp.

    A named tuple because the bus builds one per emit: it is immutable
    like a frozen dataclass, and about half the cost to build and four
    fifths of the memory to hold.
    """

    time: float
    kind: str
    fields: Mapping[str, Any] = MappingProxyType({})

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSONL-ready dict (``ts`` + ``kind`` + the fields)."""
        blob: Dict[str, Any] = {"ts": self.time, "kind": self.kind}
        blob.update(self.fields)
        return blob


def validate_event_dict(blob: Mapping[str, Any]) -> Optional[str]:
    """Schema-check one exported event dict; None when valid.

    Returns a human-readable description of the first violation found:
    unknown kind, missing required field, non-scalar value, a NaN or
    infinite float (not JSON, RFC 8259), or a malformed envelope
    (missing/ill-typed ``ts``/``kind``).
    """
    kind = blob.get("kind")
    if not isinstance(kind, str):
        return "event is missing a string 'kind'"
    ts = blob.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        return f"{kind}: event is missing a numeric 'ts'"
    if isinstance(ts, float) and not math.isfinite(ts):
        return f"{kind}: 'ts' is not a finite number ({ts!r})"
    required = EVENT_SCHEMA.get(kind)
    if required is None:
        return f"unknown event kind {kind!r}"
    for name in required:
        if name not in blob:
            return f"{kind}: missing required field {name!r}"
    for name, value in blob.items():
        if not isinstance(value, _SCALAR_TYPES):
            return (
                f"{kind}: field {name!r} is not a JSON scalar "
                f"({type(value).__name__})"
            )
        if isinstance(value, float) and not math.isfinite(value):
            return f"{kind}: field {name!r} is not a finite number ({value!r})"
    return None


def validate_fields(
    time: Any, kind: Any, fields: Mapping[str, Any]
) -> Optional[str]:
    """Schema-check an event given as its parts; None when valid."""
    for name in fields:
        if name in RESERVED_FIELDS:
            return f"{kind}: field {name!r} shadows a reserved key"
    return validate_event_dict({"ts": time, "kind": kind, **fields})
