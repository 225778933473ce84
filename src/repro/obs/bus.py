"""Process-local telemetry bus: bounded ring buffer + lossless counts.

The bus is the single substrate every subsystem publishes structured
events onto. Design points:

- **Bounded memory.** Events live in a ring buffer (``capacity``); long
  runs evict the oldest events instead of growing without bound.
- **Lossless counting.** Per-kind counts are tracked independently of
  the ring, so aggregate reconciliation (events vs
  :class:`~repro.simulator.metrics.MetricsRecorder` counters) stays
  exact even after eviction.
- **Folded per-packet kinds.** Unless the bus is built with
  ``packet_events=True``, the simulator builds no event per injected or
  delivered packet: it adds those kinds' counts with :meth:`fold` when a
  run returns, so counts and totals stay lossless while the ring keeps
  the control-plane story (PFC, detection, rollout).
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
from math import isfinite
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
    EVENT_SCHEMA,
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

    def __init__(
        self,
        capacity: int = 65536,
        strict: bool = True,
        packet_events: bool = False,
    ) -> None:
        if capacity < 1:
            raise TelemetryError(f"bus capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.strict = strict
        #: Whether the simulator emits ``sim.packet.inject``/``deliver``
        #: as events here (True) or folds their counts in (False).
        self.packet_events = packet_events
        self._ring: Deque[Event] = deque(maxlen=capacity)
        self._counts: Dict[str, int] = {}
        self._total = 0
        self._folded = 0
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
        ``float``, ``kind`` is exactly a ``str``, every value's type is
        exactly a JSON scalar type and every float (``time`` included)
        is finite; anything else (a new shape, a ``bool`` timestamp, a
        list, a ``str`` subclass, a NaN...) goes through
        :func:`validate_fields`, so each event is accepted or rejected
        exactly as the full validator alone would, with the same message.
        """
        if self.strict:
            valid = (
                type(time) in TIMESTAMP_TYPE_SET
                and (type(time) is int or isfinite(time))
                and type(kind) is str
                and (kind, *fields) in self._shapes
            )
            if valid:
                for value in fields.values():
                    value_type = type(value)
                    if value_type not in SCALAR_TYPE_SET or (
                        value_type is float and not isfinite(value)
                    ):
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

    def fold(self, kind: str, count: int) -> None:
        """Count ``count`` events of ``kind`` without building them.

        The folded events reach no ring and no subscriber; only
        :meth:`count`, :meth:`counts_by_kind`, the total and
        :attr:`folded` see them.
        """
        if kind not in EVENT_SCHEMA:
            raise TelemetryError(f"cannot fold unknown event kind {kind!r}")
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + count
        self._total += count
        self._folded += count

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
    def folded(self) -> int:
        """Events counted by :meth:`fold`, never built."""
        return self._folded

    @property
    def evicted(self) -> int:
        """Built events pushed out of the ring by the capacity bound."""
        return self._total - self._folded - len(self._ring)

    def stats(self) -> Dict[str, Any]:
        """Summary block embedded in JSON reports."""
        return {
            "total": self._total,
            "buffered": len(self._ring),
            "evicted": self.evicted,
            "folded": self._folded,
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
