"""Simulation metrics: flow rates, drops, PFC activity, queue occupancy.

Deliveries are bucketed on the fly (fixed-width time bins), which keeps
memory bounded for long runs while still letting benchmarks plot the
rate-vs-time series the paper's Figs 10-12 show.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.obs.events import (
    EV_SIM_DELIVER,
    EV_SIM_DEMOTE,
    EV_SIM_DROP,
    EV_SIM_INJECT,
)
from repro.obs.instrument import sim_metric_handles
from repro.obs.registry import LabelValues
from repro.simulator.pfc import PfcLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import Telemetry


@dataclass(frozen=True)
class LatencyStats:
    """Summary of per-packet one-way delays (seconds)."""

    count: int
    mean: float
    p50: float
    p99: float
    maximum: float


def _percentile(
    ordered: List[float], fraction: float, name: str = "sample"
) -> float:
    """Nearest-rank percentile of a pre-sorted sample.

    ``name`` identifies the metric in the error raised on an empty
    sample, so callers see *which* series had no data instead of a bare
    "empty sample".
    """
    if not ordered:
        raise ValueError(
            f"cannot compute percentile of metric {name!r}: empty sample"
        )
    rank = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[rank]


#: Drop reasons.
DROP_TTL = "ttl_expired"
DROP_LOSSY = "lossy_overflow"
DROP_LOSSLESS = "lossless_overflow"
DROP_NO_ROUTE = "no_route"
DROP_LINK_DOWN = "link_down"


@dataclass
class MetricsRecorder:
    """Fabric-wide counters and time series for one simulation run."""

    bucket_width: float = 0.001  # seconds
    delivered_bytes: Counter = field(default_factory=Counter)   # flow -> bytes
    delivered_packets: Counter = field(default_factory=Counter)
    injected_packets: Counter = field(default_factory=Counter)
    drops: Counter = field(default_factory=Counter)             # reason -> count
    drops_per_flow: Counter = field(default_factory=Counter)
    pfc: PfcLog = field(default_factory=PfcLog)
    _buckets: Dict[int, Dict[int, int]] = field(
        default_factory=lambda: defaultdict(dict)
    )  # flow -> bucket index -> bytes
    _latencies: Dict[int, List[float]] = field(
        default_factory=lambda: defaultdict(list)
    )  # flow -> per-packet one-way delays (seconds)
    demotions: Counter = field(default_factory=Counter)  # switch -> count
    #: Optional telemetry hookup (see :meth:`attach_telemetry`): the
    #: attached bus's ``emit``, None when detached. Every recorded fact
    #: is also emitted as a structured event (same call, same data, so
    #: the bus view reconciles exactly with these counters by
    #: construction), and :meth:`publish` folds the tallies into the
    #: registry's ``sim_*`` counters.
    _emit: Optional[Callable[..., Any]] = field(default=None, repr=False)
    _handles: Dict[str, Any] = field(default_factory=dict, repr=False)
    #: :meth:`_tallies` as of the last publish (or attach).
    _published: Dict[Tuple[str, LabelValues], float] = field(
        default_factory=dict, repr=False
    )

    # ------------------------------------------------------------------
    # Telemetry hookup
    # ------------------------------------------------------------------
    def attach_telemetry(self, telemetry: Optional["Telemetry"]) -> None:
        """Publish every future recording onto ``telemetry`` as well.

        Pure observer: attaching never alters what the recorder itself
        accumulates. The bus's ``emit`` and the metric handles are cached
        here so the per-packet path is one call with no lookups. Tallies
        recorded before the attach are not published; those recorded
        while a previous telemetry was attached are published to it
        first.
        """
        self.publish()
        self.pfc.attach_telemetry(telemetry)
        if telemetry is None:
            self._emit = None
            self._handles = {}
            return
        self._emit = telemetry.bus.emit
        self._handles = sim_metric_handles(telemetry.registry)
        self._published = self._tallies()

    def _tallies(self) -> Dict[Tuple[str, LabelValues], float]:
        """Running total of every ``sim_*`` series :meth:`publish` folds,
        keyed by (metric handle, label values)."""
        tallies: Dict[Tuple[str, LabelValues], float] = {
            ("injected", ()): sum(self.injected_packets.values()),
            ("delivered", ()): sum(self.delivered_packets.values()),
            ("delivered_bytes", ()): sum(self.delivered_bytes.values()),
            ("pfc", ("pause",)): self.pfc.pause_count,
            ("pfc", ("resume",)): self.pfc.resume_count,
        }
        for reason, count in self.drops.items():
            tallies[("dropped", (reason,))] = count
        for switch, count in self.demotions.items():
            tallies[("demotions", (switch,))] = count
        return tallies

    def publish(self) -> None:
        """Fold the tallies recorded since the last publish into the
        registry's ``sim_*`` counters (no-op when detached).

        ``SimNetwork.run`` calls this when the run returns, so those
        counters are exact between runs; the events are exact at emit.
        """
        if self._emit is None:
            return
        tallies = self._tallies()
        published = self._published
        for (name, labels), total in tallies.items():
            delta = total - published.get((name, labels), 0)
            if delta:
                handle = self._handles[name]
                handle.inc(delta, **dict(zip(handle.labelnames, labels)))
        self._published = tallies

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_injection(self, time: float, flow_id: int) -> None:
        self.injected_packets[flow_id] += 1
        emit = self._emit
        if emit is not None:
            emit(time, EV_SIM_INJECT, flow=flow_id)

    def record_delivery(
        self,
        time: float,
        flow_id: int,
        size: int,
        created_at: Optional[float] = None,
    ) -> None:
        self.delivered_bytes[flow_id] += size
        self.delivered_packets[flow_id] += 1
        bucket = int(time / self.bucket_width)
        flow_buckets = self._buckets[flow_id]
        flow_buckets[bucket] = flow_buckets.get(bucket, 0) + size
        if created_at is not None:
            self._latencies[flow_id].append(time - created_at)
        emit = self._emit
        if emit is not None:
            emit(time, EV_SIM_DELIVER, flow=flow_id, size=size)

    def record_drop(
        self, time: float, reason: str, flow_id: Optional[int] = None
    ) -> None:
        self.drops[reason] += 1
        if flow_id is not None:
            self.drops_per_flow[flow_id] += 1
        emit = self._emit
        if emit is not None:
            emit(time, EV_SIM_DROP, reason=reason, flow=flow_id)

    def record_demotion(
        self, time: float, switch: str, old_tag: int, new_tag: int,
        flow_id: Optional[int] = None,
    ) -> None:
        """A rewrite changed a packet's tag (Tagger demotion/promotion)."""
        self.demotions[switch] += 1
        emit = self._emit
        if emit is not None:
            emit(
                time,
                EV_SIM_DEMOTE,
                switch=switch,
                old_tag=old_tag,
                new_tag=new_tag,
                flow=flow_id,
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rate_series(
        self, flow_id: int, start: float = 0.0, end: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """Per-bucket delivery rate in bits/s as ``(bucket_start, rate)``.

        Buckets with no deliveries appear with rate 0 so deadlocks show as
        a flat zero line rather than a gap.
        """
        flow_buckets = self._buckets.get(flow_id, {})
        if end is None:
            end = (max(flow_buckets) + 1) * self.bucket_width if flow_buckets else start
        first = int(start / self.bucket_width)
        last = int(end / self.bucket_width)
        series = []
        for bucket in range(first, last):
            size = flow_buckets.get(bucket, 0)
            series.append(
                (bucket * self.bucket_width, size * 8.0 / self.bucket_width)
            )
        return series

    def mean_rate(self, flow_id: int, start: float, end: float) -> float:
        """Average delivery rate (bits/s) of a flow over [start, end)."""
        if end <= start:
            return 0.0
        flow_buckets = self._buckets.get(flow_id, {})
        first = int(start / self.bucket_width)
        last = int(end / self.bucket_width)
        total = sum(
            size for bucket, size in flow_buckets.items() if first <= bucket < last
        )
        return total * 8.0 / (end - start)

    def latency_stats(self, flow_id: int) -> Optional["LatencyStats"]:
        """Per-packet one-way delay statistics for a flow (None = no data)."""
        samples = self._latencies.get(flow_id)
        if not samples:
            return None
        ordered = sorted(samples)
        return LatencyStats(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=_percentile(ordered, 0.50, name=f"latency[flow={flow_id}]"),
            p99=_percentile(ordered, 0.99, name=f"latency[flow={flow_id}]"),
            maximum=ordered[-1],
        )

    def total_drops(self, reason: Optional[str] = None) -> int:
        if reason is None:
            return sum(self.drops.values())
        return self.drops.get(reason, 0)

    def summary(self) -> str:
        flows = sorted(self.delivered_bytes)
        lines = [
            f"flows={len(flows)} "
            f"delivered={sum(self.delivered_bytes.values())}B "
            f"drops={dict(self.drops)} "
            f"pauses={self.pfc.pause_count} resumes={self.pfc.resume_count}"
        ]
        return "".join(lines)
