"""The ``Telemetry`` facade: one bus + one registry + one clock.

Subsystems receive a single ``Telemetry`` object and get both export
surfaces — the event stream (JSONL) and the metrics registry
(Prometheus text / JSON snapshot). The facade also owns the *clock
binding*: whichever component is currently driving (the simulator, the
rollout orchestrator's virtual clock, the fuzzer's elapsed timer) binds
its own time source, so event timestamps are deterministic wherever the
underlying clock is. Per-packet emitters (the simulator's
``MetricsRecorder`` and ``PfcLog``) skip the facade: they hold the
bus's ``emit`` and stamp each event with the simulated time they
already have.

Everything here is a pure observer: attaching a ``Telemetry`` to a
simulation, planner, rollout or fuzz run must not change any observable
behavior (asserted by ``tests/obs/test_zero_perturbation.py``).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.bus import TelemetryBus, TelemetryError
from repro.obs.events import validate_event_dict
from repro.obs.registry import MetricsRegistry

Clock = Callable[[], float]


class Telemetry:
    """Bundles a :class:`TelemetryBus` and a :class:`MetricsRegistry`."""

    def __init__(
        self,
        bus: Optional[TelemetryBus] = None,
        registry: Optional[MetricsRegistry] = None,
        capacity: int = 65536,
    ) -> None:
        self.bus = bus if bus is not None else TelemetryBus(capacity=capacity)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock: Optional[Clock] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def bind_clock(self, clock: Optional[Clock]) -> None:
        """Set the time source for events emitted without explicit time."""
        self._clock = clock

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def emit(
        self, kind: str, time: Optional[float] = None, **fields: Any
    ) -> None:
        """Emit one event, stamped with the bound clock by default."""
        self.bus.emit(self.now() if time is None else time, kind, **fields)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Scrape-style block embedded in the CLI's JSON reports."""
        return {
            "events": self.bus.stats(),
            "metrics": self.registry.to_dict(),
        }

    def export_jsonl(self, path: str) -> int:
        """Write the buffered event stream as JSONL; returns line count."""
        return self.bus.export_jsonl(path)

    def render_prometheus(self) -> str:
        return self.registry.render_prometheus()


# ----------------------------------------------------------------------
# JSONL stream loading / validation (the `repro-tagger stats` backend)
# ----------------------------------------------------------------------
def iter_jsonl(path: str) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Yield ``(line number, event dict)`` from a telemetry JSONL file."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                blob = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TelemetryError(
                    f"{path}:{number}: malformed JSON: {exc}"
                ) from exc
            if not isinstance(blob, dict):
                raise TelemetryError(
                    f"{path}:{number}: event is not a JSON object"
                )
            yield number, blob


def aggregate_jsonl(path: str) -> Dict[str, Any]:
    """Validate and aggregate a telemetry JSONL stream.

    Raises :class:`TelemetryError` on the first schema violation —
    this is the machine check CI's telemetry smoke step relies on.
    Returns ``{"events", "by_kind", "first_ts", "last_ts"}``.
    """
    by_kind: Dict[str, int] = {}
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None
    total = 0
    for number, blob in iter_jsonl(path):
        problem = validate_event_dict(blob)
        if problem is not None:
            raise TelemetryError(f"{path}:{number}: {problem}")
        kind = blob["kind"]
        by_kind[kind] = by_kind.get(kind, 0) + 1
        ts = float(blob["ts"])
        first_ts = ts if first_ts is None else min(first_ts, ts)
        last_ts = ts if last_ts is None else max(last_ts, ts)
        total += 1
    return {
        "events": total,
        "by_kind": dict(sorted(by_kind.items())),
        "first_ts": first_ts,
        "last_ts": last_ts,
    }


def registry_from_aggregate(aggregate: Dict[str, Any]) -> MetricsRegistry:
    """Rebuild a scrape-style registry from an aggregated event stream."""
    registry = MetricsRegistry()
    events = registry.counter(
        "telemetry_events_total",
        "Events per kind in the replayed JSONL stream.",
        labelnames=("kind",),
    )
    for kind, count in aggregate["by_kind"].items():
        events.inc(count, kind=kind)
    span = registry.gauge(
        "telemetry_stream_span_seconds",
        "Timestamp span covered by the replayed stream.",
    )
    if aggregate["first_ts"] is not None:
        span.set(aggregate["last_ts"] - aggregate["first_ts"])
    return registry


__all__: List[str] = [
    "Telemetry",
    "aggregate_jsonl",
    "iter_jsonl",
    "registry_from_aggregate",
]
