"""Instrumentation helpers: turn domain state into metrics samples.

These are the thin adapters between subsystems and the registry, kept
out of the hot paths: stage-timing dictionaries become histogram
samples, compiled plans become gauges, and a live simulated fabric's
queues can be sampled into queue-depth gauges. They are also where the
reconciliation tests derive "bus-side" aggregates from raw events.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import TYPE_CHECKING, Dict

from repro.obs.bus import TelemetryBus, TelemetryError
from repro.obs.events import (
    EV_SELFCHECK_FINDING,
    EV_SELFCHECK_RUN,
    EV_SIM_DELIVER,
    EV_SIM_DROP,
    EV_SIM_INJECT,
    EV_SIM_PAUSE,
    EV_SIM_RESUME,
)
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - type-only imports, no cycles
    from repro.core.planner import TaggerPlan
    from repro.devcheck.diagnostics import SelfCheckReport
    from repro.obs.telemetry import Telemetry
    from repro.simulator.network import SimNetwork


def observe_timings(
    registry: MetricsRegistry,
    component: str,
    timings: Dict[str, float],
) -> None:
    """Record a ``StageTimer``-style dict as per-stage histogram samples."""
    histogram = registry.histogram(
        "planner_stage_seconds",
        "Wall-clock seconds per pipeline stage.",
        labelnames=("component", "stage"),
    )
    for stage, seconds in timings.items():
        histogram.observe(seconds, component=component, stage=stage)


def observe_plan(registry: MetricsRegistry, plan: "TaggerPlan") -> None:
    """Publish a compiled plan's size as gauges (rules, tags, queues)."""
    registry.gauge(
        "planner_rules", "Deployed rewrite rules across all switches."
    ).set(plan.total_rules)
    registry.gauge(
        "planner_lossless_queues", "Lossless priority queues the plan uses."
    ).set(plan.num_lossless_queues)
    registry.gauge(
        "planner_switches", "Switches carrying a non-empty rule table."
    ).set(sum(1 for table in plan.tables.values() if table.rules))
    elp_paths = plan.meta.get("elp_paths")
    if elp_paths is not None:
        registry.gauge(
            "planner_elp_paths",
            "ELP paths the plan covers (counted or closed-form).",
        ).set(elp_paths)


def sample_queue_gauges(
    registry: MetricsRegistry, net: "SimNetwork"
) -> None:
    """Snapshot the fabric's buffer state into gauges.

    Point-in-time by design (gauges, not counters): call it at the
    moments that matter — end of run, around a failure injection — the
    way a scrape would.
    """
    egress = registry.gauge(
        "sim_queue_depth_bytes",
        "Egress bytes queued per (switch, port, queue).",
        labelnames=("switch", "port", "queue"),
    )
    buffered = registry.gauge(
        "sim_buffered_bytes", "Ingress bytes buffered per switch."
    )
    total = 0
    for name in sorted(net.switches):
        switch = net.switches[name]
        total += switch.accounting.total_bytes
        for port in sorted(switch.tx_ports):
            tx = switch.tx_ports[port]
            for queue in sorted(tx.queues):
                egress.set(
                    tx.bytes_queued(queue),
                    switch=name,
                    port=port,
                    queue=queue,
                )
    buffered.set(total)
    registry.gauge(
        "sim_pending_events", "Events waiting in the simulator heap."
    ).set(net.sim.pending_events)
    registry.gauge(
        "sim_events_run", "Events the simulator has processed so far."
    ).set(net.sim.total_events_run)


def observe_selfcheck(
    telemetry: "Telemetry", report: "SelfCheckReport"
) -> None:
    """Publish a self-check run as ``selfcheck_*`` counters + events.

    Emitted in the report's stable (module, line, code) order with the
    facade's default clock (0.0 when unbound): the static analyzer has
    no domain clock, and its telemetry stream must itself be
    deterministic — the analyzer certifies that very property.
    """
    registry = telemetry.registry
    findings = registry.counter(
        "selfcheck_findings_total",
        "Self-check findings, by code and severity.",
        labelnames=("code", "severity"),
    )
    allowlisted = registry.counter(
        "selfcheck_allowlisted_total",
        "Findings suppressed by audited allowlist entries.",
    )
    files = registry.counter(
        "selfcheck_files_total", "Source files the self-check scanned."
    )
    files.inc(report.stats.get("files", 0))
    for finding in report.findings:
        telemetry.emit(
            EV_SELFCHECK_FINDING,
            code=finding.code,
            module=finding.module,
            line=finding.line,
            allowlisted=finding.allowlisted,
        )
        if finding.allowlisted:
            allowlisted.inc()
        else:
            findings.inc(
                code=finding.code, severity=str(finding.severity)
            )
    telemetry.emit(
        EV_SELFCHECK_RUN,
        files=report.stats.get("files", 0),
        findings=len(report.findings),
        errors=len(report.errors),
        warnings=len(report.warnings),
    )


# ----------------------------------------------------------------------
# Bus-derived aggregates (reconciliation surface)
# ----------------------------------------------------------------------
def derive_sim_counts(bus: TelemetryBus) -> Dict[str, object]:
    """Re-derive MetricsRecorder-style aggregates from raw bus events.

    Scans the ring buffer, so reconciliation runs must size the bus
    above the event count (``bus.evicted == 0`` is asserted by the
    property test before comparing), and the bus must carry per-packet
    events: on one that folds them this raises :class:`TelemetryError`
    instead of reporting zero injections and deliveries.
    """
    if not bus.packet_events:
        raise TelemetryError(
            f"this bus folds {EV_SIM_INJECT} and {EV_SIM_DELIVER} into "
            f"counts; build it with packet_events=True to derive "
            f"per-flow aggregates from its events"
        )
    injected: TallyCounter[object] = TallyCounter()
    delivered_packets: TallyCounter[object] = TallyCounter()
    delivered_bytes: TallyCounter[object] = TallyCounter()
    drops: TallyCounter[object] = TallyCounter()
    drops_per_flow: TallyCounter[object] = TallyCounter()
    pauses = 0
    resumes = 0
    for event in bus.events():
        fields = event.fields
        if event.kind == EV_SIM_INJECT:
            injected[fields["flow"]] += 1
        elif event.kind == EV_SIM_DELIVER:
            delivered_packets[fields["flow"]] += 1
            delivered_bytes[fields["flow"]] += fields["size"]
        elif event.kind == EV_SIM_DROP:
            drops[fields["reason"]] += 1
            flow = fields.get("flow")
            if flow is not None:
                drops_per_flow[flow] += 1
        elif event.kind == EV_SIM_PAUSE:
            pauses += 1
        elif event.kind == EV_SIM_RESUME:
            resumes += 1
    return {
        "injected": dict(injected),
        "delivered_packets": dict(delivered_packets),
        "delivered_bytes": dict(delivered_bytes),
        "drops": dict(drops),
        "drops_per_flow": dict(drops_per_flow),
        "pauses": pauses,
        "resumes": resumes,
    }


def sim_metric_handles(
    registry: MetricsRegistry,
) -> Dict[str, object]:
    """Create (or fetch) the simulator's registry metrics.

    The recorder caches these handles at attach time and folds its
    tallies into them once per run (``MetricsRecorder.publish``); the
    watchdog and the deadlock breaker fetch theirs per episode.
    """
    return {
        "injected": registry.counter(
            "sim_packets_injected_total", "Packets injected by hosts."
        ),
        "delivered": registry.counter(
            "sim_packets_delivered_total", "Packets delivered to hosts."
        ),
        "delivered_bytes": registry.counter(
            "sim_bytes_delivered_total", "Payload bytes delivered."
        ),
        "dropped": registry.counter(
            "sim_packets_dropped_total",
            "Packets dropped, by reason.",
            labelnames=("reason",),
        ),
        "pfc": registry.counter(
            "sim_pfc_frames_total",
            "PFC frames observed, by kind (pause/resume).",
            labelnames=("kind",),
        ),
        "demotions": registry.counter(
            "sim_tag_demotions_total",
            "Tag rewrites changing a packet's tag, by switch.",
            labelnames=("switch",),
        ),
        "watchdog": registry.counter(
            "sim_watchdog_storms_total", "PFC watchdog storm episodes."
        ),
        "deadlocks": registry.counter(
            "sim_deadlock_detections_total",
            "Deadlock cycles detected (and broken) by the recovery scan.",
        ),
    }


def detect_metric_handles(
    registry: MetricsRegistry,
) -> Dict[str, object]:
    """Create (or fetch) the deadlock detector's registry metrics once.

    Same caching contract as :func:`sim_metric_handles`: the detector
    grabs these handles when telemetry is attached so its PFC-observer
    and scan paths never do registry lookups.
    """
    return {
        "triggers": registry.counter(
            "detect_triggers_total",
            "Fresh PAUSE-propagation chains originated by the detector.",
        ),
        "suspects": registry.counter(
            "detect_suspects_total",
            "Pause-propagation loops first observed (suspect episodes).",
        ),
        "confirms": registry.counter(
            "detect_confirms_total",
            "Suspects confirmed as deadlocks after re-observation.",
        ),
        "clears": registry.counter(
            "detect_clears_total",
            "Suspects cleared as transient congestion, by reason.",
            labelnames=("reason",),
        ),
        "quarantines": registry.counter(
            "detect_quarantines_total",
            "Egress queues quarantined (demoted to lossy) by recovery.",
        ),
        "rearms": registry.counter(
            "detect_rearms_total",
            "Quarantined queues restored to lossless service.",
        ),
        "rollbacks": registry.counter(
            "detect_rollbacks_total",
            "Plan rollbacks driven by confirmed detections, by outcome.",
            labelnames=("outcome",),
        ),
        "latency": registry.histogram(
            "detect_latency_seconds",
            "Simulated seconds from first suspicion to confirmation.",
        ),
    }
