"""Unified observability layer: telemetry bus + metrics registry.

One coherent event/metric substrate spanning the simulator, the
planner/re-planner, the deployment orchestrator and the fuzzing
harness. See ``docs/OBSERVABILITY.md`` for the event taxonomy, metric
names and the reconciliation guarantee.
"""

from repro.obs.bus import TelemetryBus, TelemetryError
from repro.obs.events import (
    EVENT_SCHEMA,
    Event,
    validate_event_dict,
)
from repro.obs.instrument import (
    derive_sim_counts,
    observe_plan,
    observe_selfcheck,
    observe_timings,
    sample_queue_gauges,
    sim_metric_handles,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.telemetry import (
    Telemetry,
    aggregate_jsonl,
    iter_jsonl,
    registry_from_aggregate,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "EVENT_SCHEMA",
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "TelemetryBus",
    "TelemetryError",
    "aggregate_jsonl",
    "derive_sim_counts",
    "iter_jsonl",
    "observe_plan",
    "observe_selfcheck",
    "observe_timings",
    "registry_from_aggregate",
    "sample_queue_gauges",
    "sim_metric_handles",
    "validate_event_dict",
]
