"""Process-local telemetry bus: bounded ring buffer + lossless counts.

The bus is the single substrate every subsystem publishes structured
events onto. Design points:

- **Bounded memory.** Events live in a ring buffer (``capacity``); long
  runs evict the oldest events instead of growing without bound.
- **Lossless counting.** Per-kind counts are tracked independently of
  the ring, so aggregate reconciliation (events vs
  :class:`~repro.simulator.metrics.MetricsRecorder` counters) stays
  exact even after eviction.
- **Pure observer.** Emitting never touches simulation state, RNGs, or
  scheduling — a fabric runs byte-identically with or without a bus
  attached (pinned by ``tests/obs/test_zero_perturbation.py``).
- **Schema-checked at the edge.** ``strict=True`` (the default)
  validates each event against the registered taxonomy on emit, so a
  typo'd kind fails the emitting test instead of producing an export
  ``repro-tagger stats`` rejects later. The full validator runs once per
  event *shape* (kind + field names); later events of a shape it passed
  only have their value types checked (see :meth:`TelemetryBus.emit`).
"""

from __future__ import annotations

import json
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import ReproError
from repro.obs.events import (
    SCALAR_TYPE_SET,
    TIMESTAMP_TYPE_SET,
    Event,
    validate_fields,
)

Subscriber = Callable[[Event], None]


class TelemetryError(ReproError):
    """An event failed schema validation or an export went wrong."""


class TelemetryBus:
    """Bounded, typed, append-only event stream."""

    def __init__(self, capacity: int = 65536, strict: bool = True) -> None:
        if capacity < 1:
            raise TelemetryError(f"bus capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.strict = strict
        self._ring: Deque[Event] = deque(maxlen=capacity)
        self._counts: Dict[str, int] = {}
        self._total = 0
        self._subscribers: List[Subscriber] = []
        #: ``(kind, *field names)`` of every shape the full validator
        #: has passed on this bus.
        self._shapes: Set[Tuple[str, ...]] = set()

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def emit(self, time: float, kind: str, **fields: Any) -> Event:
        """Append one event; returns it (mostly for tests).

        When strict, an event whose shape already passed the full
        validator is accepted if ``type(time)`` is exactly ``int`` or
        ``float``, ``kind`` is exactly a ``str`` and every value's type
        is exactly a JSON scalar type; anything else (a new shape, a
        ``bool`` timestamp, a list, a ``str`` subclass...) goes through
        :func:`validate_fields`, so each event is accepted or rejected
        exactly as the full validator alone would, with the same message.
        """
        if self.strict:
            valid = (
                type(time) in TIMESTAMP_TYPE_SET
                and type(kind) is str
                and (kind, *fields) in self._shapes
            )
            if valid:
                for value in fields.values():
                    if type(value) not in SCALAR_TYPE_SET:
                        valid = False
                        break
            if not valid:
                problem = validate_fields(time, kind, fields)
                if problem is not None:
                    raise TelemetryError(f"invalid telemetry event: {problem}")
                self._shapes.add((kind, *fields))
        event = Event(time, kind, fields)
        self._ring.append(event)
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        self._total += 1
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def subscribe(self, subscriber: Subscriber) -> None:
        """Call ``subscriber`` synchronously on every future emit."""
        self._subscribers.append(subscriber)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def events(self, kind: Optional[str] = None) -> List[Event]:
        """Buffered events in emit order, optionally filtered by kind."""
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event.kind == kind]

    def count(self, kind: str) -> int:
        """Lossless total emitted of ``kind`` (survives ring eviction)."""
        return self._counts.get(kind, 0)

    def counts_by_kind(self) -> Dict[str, int]:
        return dict(self._counts)

    @property
    def total_emitted(self) -> int:
        return self._total

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by the capacity bound."""
        return self._total - len(self._ring)

    def stats(self) -> Dict[str, Any]:
        """Summary block embedded in JSON reports."""
        return {
            "total": self._total,
            "buffered": len(self._ring),
            "evicted": self.evicted,
            "capacity": self.capacity,
            "by_kind": dict(sorted(self._counts.items())),
        }

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Event]:
        return iter(list(self._ring))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl_lines(self) -> List[str]:
        """One compact, key-sorted JSON document per buffered event."""
        return [
            json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
            for event in self._ring
        ]

    def export_jsonl(self, path: str) -> int:
        """Write the buffered events as JSONL; returns the line count."""
        lines = self.to_jsonl_lines()
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        return len(lines)

    def __repr__(self) -> str:
        return (
            f"TelemetryBus({len(self._ring)}/{self.capacity} buffered, "
            f"{self._total} emitted)"
        )
