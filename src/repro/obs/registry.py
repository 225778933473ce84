"""Metrics registry: counters, gauges and histograms with labels.

A deliberately small, dependency-free subset of the Prometheus data
model: named metrics carry a fixed label schema; each distinct label
assignment is an independent time series. Two export surfaces:

- :meth:`MetricsRegistry.render_prometheus` — the text exposition
  format (``# HELP`` / ``# TYPE`` plus one line per sample), stable and
  sorted so snapshots diff cleanly and can be frozen as golden files;
- :meth:`MetricsRegistry.to_dict` — a JSON-ready snapshot embedded in
  the CLI's machine-readable reports.

Metric updates never raise on hot paths once a metric is registered;
all schema errors (label mismatches, negative counter increments,
name collisions) surface as :class:`TelemetryError` at the call site.
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.bus import TelemetryError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds) — tuned for planner stage
#: timings, which span ~100 us (diff) to seconds (64-ToR scratch).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0
)

LabelValues = Tuple[str, ...]


def _format_value(value: float) -> str:
    """Render a sample value the way the golden files freeze it.

    Integral values print as integers (``3`` not ``3.0``) so counters
    stay readable; everything else uses ``repr`` which round-trips.
    """
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labelnames: Sequence[str], values: LabelValues) -> str:
    if not labelnames:
        return ""
    body = ",".join(
        f'{name}="{value}"' for name, value in zip(labelnames, values)
    )
    return "{" + body + "}"


class _Metric:
    """Shared plumbing: name/label validation and per-series keying."""

    metric_type = "untyped"

    def __init__(
        self, name: str, help_text: str, labelnames: Sequence[str]
    ) -> None:
        if not _NAME_RE.match(name):
            raise TelemetryError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise TelemetryError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        self.name = name
        self.help_text = help_text
        self.labelnames: Tuple[str, ...] = tuple(labelnames)

    def _key(self, labels: Dict[str, Any]) -> LabelValues:
        names = self.labelnames
        # Fast paths for the common unlabeled and one-label metrics.
        if not names and not labels:
            return ()
        if len(names) == 1 and len(labels) == 1 and names[0] in labels:
            return (str(labels[names[0]]),)
        if set(labels) != set(names):
            raise TelemetryError(
                f"metric {self.name!r} takes labels "
                f"{sorted(names)}, got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in names)

    def header_lines(self) -> List[str]:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} {self.metric_type}")
        return lines


class Counter(_Metric):
    """Monotonically increasing value (events, packets, retries)."""

    metric_type = "counter"

    def __init__(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> Dict[LabelValues, float]:
        return dict(self._values)

    def render(self) -> List[str]:
        lines = self.header_lines()
        for key in sorted(self._values):
            lines.append(
                f"{self.name}{_format_labels(self.labelnames, key)} "
                f"{_format_value(self._values[key])}"
            )
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.metric_type,
            "help": self.help_text,
            "samples": [
                {
                    "labels": dict(zip(self.labelnames, key)),
                    "value": value,
                }
                for key, value in sorted(self._values.items())
            ],
        }


class Gauge(Counter):
    """A value that can go up and down (queue depths, rule counts)."""

    metric_type = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise TelemetryError(f"histogram {name!r} needs >= 1 bucket")
        if bounds[-1] != math.inf:
            bounds.append(math.inf)
        self.buckets: Tuple[float, ...] = tuple(bounds)
        #: label values -> (per-bucket counts, sum, count)
        self._series: Dict[LabelValues, List[Any]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = [[0] * len(self.buckets), 0.0, 0]
            self._series[key] = series
        counts, _, _ = series
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
                break
        series[1] += value
        series[2] += 1

    def sample_count(self, **labels: Any) -> int:
        series = self._series.get(self._key(labels))
        return 0 if series is None else int(series[2])

    def sample_sum(self, **labels: Any) -> float:
        series = self._series.get(self._key(labels))
        return 0.0 if series is None else float(series[1])

    def _bucket_label(self, bound: float) -> str:
        return "+Inf" if bound == math.inf else _format_value(bound)

    def render(self) -> List[str]:
        lines = self.header_lines()
        bucket_names = self.labelnames + ("le",)
        for key in sorted(self._series):
            counts, total, count = self._series[key]
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                labels = _format_labels(
                    bucket_names, key + (self._bucket_label(bound),)
                )
                lines.append(
                    f"{self.name}_bucket{labels} {_format_value(cumulative)}"
                )
            plain = _format_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(total)}")
            lines.append(f"{self.name}_count{plain} {_format_value(count)}")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.metric_type,
            "help": self.help_text,
            "buckets": [self._bucket_label(b) for b in self.buckets],
            "samples": [
                {
                    "labels": dict(zip(self.labelnames, key)),
                    "bucket_counts": list(series[0]),
                    "sum": series[1],
                    "count": series[2],
                }
                for key, series in sorted(self._series.items())
            ],
        }


class MetricsRegistry:
    """Named metrics with idempotent registration and stable export."""

    def __init__(self) -> None:
        self._metrics: "OrderedDict[str, _Metric]" = OrderedDict()

    # ------------------------------------------------------------------
    # Registration (idempotent: same name + type + labels returns the
    # existing metric, so independent subsystems can share series).
    # ------------------------------------------------------------------
    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is None:
            self._metrics[metric.name] = metric
            return metric
        if (
            existing.metric_type != metric.metric_type
            or existing.labelnames != metric.labelnames
        ):
            raise TelemetryError(
                f"metric {metric.name!r} re-registered with a different "
                f"type or label schema"
            )
        return existing

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        metric = self._register(Counter(name, help_text, labelnames))
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        metric = self._register(Gauge(name, help_text, labelnames))
        if not isinstance(metric, Gauge):
            raise TelemetryError(f"metric {name!r} is not a gauge")
        return metric

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._register(
            Histogram(name, help_text, labelnames, buckets)
        )
        assert isinstance(metric, Histogram)
        return metric

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def render_prometheus(self) -> str:
        """Prometheus text exposition, metrics sorted by name."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            render = getattr(metric, "render", None)
            if render is not None:
                lines.extend(render())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot: ``{metric name: samples}``, sorted."""
        out: Dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            to_dict = getattr(metric, "to_dict", None)
            if to_dict is not None:
                out[name] = to_dict()
        return out

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: object) -> bool:
        return name in self._metrics
