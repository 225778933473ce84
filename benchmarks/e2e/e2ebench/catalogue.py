"""Names, units and directions of every metric the runner emits.

``BENCHMARK.json`` at the repository root declares the same sets; the
self-tests in ``tests/bench_e2e`` keep the two equal.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from e2ebench.tracing import SIMULATOR_FILES

#: (name, unit, better, bound): what an operator sees.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("op_cpu_s_p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: Span names whose per-operation seconds are reported as ``<name>_s``.
SPAN_METRICS = [
    "topology.build", "routing.tables", "core.planner-init", "core.for-clos",
    "core.plan", "core.plan.certify", "core.plan.elp", "core.plan.bruteforce",
    "core.plan.minimize", "core.plan.verify", "core.plan.queue-map",
    "core.replan.apply", "core.replan.elp", "core.replan.minimize",
    "core.replan.diff", "core.replan.verify",
    "lint.total", "lint.graph", "lint.tcam", "lint.reach", "lint.budget",
    "deploy.total", "deploy.plan-waves", "deploy.certify", "deploy.execute",
    "deploy.verify-final",
    "simulator.build", "simulator.run",
]

#: Count-type metrics an operation reports, with the better direction.
COUNT_METRICS = [
    ("core.plan.rules", "lower"), ("core.plan.elp_paths", "higher"),
    ("core.replan.mode.incremental", "higher"), ("core.replan.mode.memo", "higher"),
    ("core.replan.mode.full", "lower"), ("core.replan.mode.noop", "higher"),
    ("core.replan.dirty-pairs", "lower"), ("core.replan.rule-touches", "lower"),
    ("lint.rules", "lower"), ("lint.tcam-entries", "lower"), ("lint.errors", "lower"),
    ("deploy.rpcs", "lower"), ("deploy.waves", "lower"),
    ("deploy.states-covered", "higher"), ("deploy.retries", "lower"),
    ("simulator.events", "lower"), ("simulator.pkts-injected", "higher"),
    ("simulator.pkts-delivered", "higher"), ("simulator.drops-lossless", "lower"),
    ("simulator.drops-lossy", "lower"), ("simulator.pfc-pauses", "lower"),
    ("simulator.pfc-resumes", "lower"),
    ("detect.confirms", "lower"), ("detect.quarantines", "lower"),
    ("detect.packets-moved", "lower"), ("detect.rearms", "lower"),
    ("obs.events-emitted", "lower"), ("obs.evicted", "lower"),
]

#: Profile buckets: one per simulator source file, plus the packages the
#: simulator calls into and everything else (core lookups, stdlib).
PROFILE_BUCKETS = [f"simulator.{stem}" for stem in SIMULATOR_FILES] + [
    "detect", "obs", "other",
]

DERIVED_METRICS = [
    ("simulator.events-per-pkt", "ratio", "lower"),
    ("simulator.us-per-event", "us", "lower"),
    ("simulator.pkts-per-s", "1/s", "higher"),
    ("simulator.goodput-gbps", "Gb/s", "higher"),
    ("detect.latency-sim-ms", "ms", "lower"),
    ("simulator.detection.overhead-ratio", "ratio", "lower"),
    ("obs.overhead-ratio", "ratio", "lower"),
    ("bench.traced-op_s", "s", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.trace-overhead-ratio", "ratio", "lower"),
    ("bench.profile-overhead-ratio", "ratio", "lower"),
]


def units(trace: bool) -> Dict[str, str]:
    """Unit of every metric a traced (per-layer) or untraced run emits."""
    declared = per_layer() if trace else END_TO_END
    return {metric[0]: metric[1] for metric in declared}


def per_layer() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    metrics = [(f"{name}_s", "s", "lower") for name in SPAN_METRICS]
    metrics += [(name, "count", better) for name, better in COUNT_METRICS]
    for bucket in PROFILE_BUCKETS:
        metrics.append((f"{bucket}.self-share", "share", "lower"))
        metrics.append((f"{bucket}.calls", "count", "lower"))
    metrics += DERIVED_METRICS
    return metrics
