"""Run one workload: set-up, closed-loop operations, checks, metrics.

Closed loop, one client: the next operation starts when the previous
one has returned and been judged. Untraced runs give the end-to-end
metrics. A traced run alternates untraced and traced operations (their
ratio is the tracing overhead), then makes one profiled operation and
the workload's ablation runs; it gives the per-layer metrics.
"""

from __future__ import annotations

import cProfile
import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from e2ebench import catalogue
from e2ebench.checks import Outcome, judge, outcome_digest
from e2ebench.inputs import DEFAULT_SEED
from e2ebench.tracing import NullTracer, Tracer, profile_buckets
from e2ebench.workloads import LATENCY_BOUND, WORKLOADS, Workload

EXPECTED_PATH = Path(__file__).resolve().parent.parent / "expected.json"

#: Set-ups timed per untraced run (their median is ``setup_s``).
SETUP_REPEATS = 3
#: Share of ``--seconds`` a traced run of a simulating workload spends on
#: the untraced/traced pairs; the profile pass and the ablations need
#: the rest. Workloads that simulate nothing pair for all of it.
SIMULATING_PAIR_SHARE = 0.5


@dataclass
class RunResult:
    workload: str
    seed: int
    quick: bool
    trace: bool
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: metric -> value, exactly the set BENCHMARK.json declares for the mode.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: metric -> the samples its value is the median of.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    digests: List[str] = field(default_factory=list)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "workload": self.workload, "seed": self.seed, "quick": self.quick,
            "trace": self.trace, "attempted": self.attempted, "failed": self.failed,
            "correct": self.correct, "failures": self.failures,
            "metrics": self.metrics, "samples": self.samples, "spans": self.spans,
        }


def expected_key(workload: str, quick: bool) -> str:
    return f"{workload}:quick" if quick else workload


def load_expected() -> Dict[str, List[str]]:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["digests"]


class _Session:
    """One workload instance plus the bookkeeping around its operations."""

    def __init__(
        self,
        workload: Workload,
        result: RunResult,
        expected: Optional[List[str]],
        record_digests: bool,
    ) -> None:
        self.workload = workload
        self.result = result
        self.expected = expected
        #: ``--update-expected``: keep one digest per distinct operation.
        self.record_digests = record_digests
        self.index = 0

    def operate(self, tracer: Any) -> "_Timed":
        """Time one operation, then judge it outside the timed region."""
        index = self.index
        self.index += 1
        tracer.op = index
        gc.collect()
        cpu_start = time.process_time()
        start = time.perf_counter()
        outcome = self.workload.operation(index, tracer)
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
        expected = None
        if self.expected:
            expected = self.expected[index % len(self.expected)]
        problems = judge(outcome, expected, LATENCY_BOUND)
        self.result.attempted += 1
        if problems:
            self.result.failed += 1
            self.result.failures.append(f"op {index}: " + "; ".join(problems))
        if self.record_digests and index < self.workload.distinct_operations:
            self.result.digests.append(outcome_digest(outcome))
        # The outcome holds whole rule-table deployments; only its
        # numbers outlive the operation.
        outcome.deployments.clear()
        outcome.round_trip = None
        return _Timed(index, seconds, cpu_seconds, outcome)


@dataclass
class _Timed:
    index: int
    seconds: float
    cpu_seconds: float
    outcome: Outcome


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = 0.0,
    trace: bool = False,
    quick: bool = False,
    import_seconds: float = 0.0,
    operations: Optional[int] = None,
    check_expected: bool = True,
) -> RunResult:
    """Run workload ``name`` and return its checked, measured result.

    Operations repeat until ``seconds`` have been measured (at least
    one; exactly one with ``quick``; exactly ``operations`` when given).
    ``import_seconds`` is what importing the system cost the caller; it
    is part of every ``setup_s`` sample.
    """
    workload_cls = WORKLOADS[name]
    result = RunResult(workload=name, seed=seed, quick=quick, trace=trace)
    expected = None
    if check_expected and seed == DEFAULT_SEED:
        # A workload without a committed digest fails its comparison.
        expected = load_expected().get(expected_key(name, quick), ["none committed"])
    if quick and operations is None:
        operations = 1

    tracer = Tracer() if trace else NullTracer()
    tracer.op = -1  # set-up spans
    setup_samples = []
    workload = None
    for _ in range(1 if (trace or quick) else SETUP_REPEATS):
        workload = None  # one warm planner at a time
        gc.collect()
        start = time.perf_counter()
        workload = workload_cls(seed, quick)
        workload.setup(tracer)
        setup_samples.append(import_seconds + time.perf_counter() - start)
    session = _Session(workload, result, expected, record_digests=not check_expected)

    if not trace:
        timed = _measure(session, seconds, operations)
        result.samples = {
            "setup_s": setup_samples,
            "op_s_p50": [t.seconds for t in timed],
            "op_cpu_s_p50": [t.cpu_seconds for t in timed],
            "peak_rss_mb": [_peak_rss_mb()],
        }
        result.metrics = {
            name: statistics.median(values) for name, values in result.samples.items()
        }
    else:
        _measure_traced(session, tracer, seconds, operations)
    return result


def _measure(session: _Session, seconds: float, operations: Optional[int]) -> List[_Timed]:
    timed = []
    started = time.perf_counter()
    while True:
        timed.append(session.operate(NullTracer()))
        if operations is not None:
            if len(timed) >= operations:
                return timed
        elif time.perf_counter() - started >= seconds:
            return timed


def _measure_traced(
    session: _Session, tracer: Tracer, seconds: float, operations: Optional[int]
) -> None:
    result, workload = session.result, session.workload
    setup_seconds = tracer.seconds_by_name(-1)
    untraced: List[_Timed] = []
    traced: List[_Timed] = []
    started = time.perf_counter()
    while True:
        untraced.append(session.operate(NullTracer()))
        traced.append(session.operate(tracer))
        share = SIMULATING_PAIR_SHARE if traced[0].outcome.arms else 1.0
        if operations is not None:
            if len(traced) >= operations:
                break
        elif time.perf_counter() - started >= seconds * share:
            break

    metrics: Dict[str, float] = {name: 0.0 for name, _unit, _better in catalogue.per_layer()}
    samples: Dict[str, List[float]] = {}
    by_name = [tracer.seconds_by_name(t.index) for t in traced]
    for name in catalogue.SPAN_METRICS:
        # A layer called in set-up (churn, fabric) is charged there.
        in_setup = setup_seconds.get(name, 0.0)
        values = [in_setup + seconds_of.get(name, 0.0) for seconds_of in by_name]
        samples[f"{name}_s"] = values
        metrics[f"{name}_s"] = statistics.median(values)
    for name, _better in catalogue.COUNT_METRICS:
        values = [float(t.outcome.counts.get(name, 0)) for t in traced]
        samples[name] = values
        metrics[name] = statistics.median(values)

    traced_op = statistics.median(t.seconds for t in traced)
    untraced_op = statistics.median(t.seconds for t in untraced)
    metrics["bench.traced-op_s"] = traced_op
    metrics["bench.trace-overhead-ratio"] = traced_op / untraced_op
    metrics["bench.unattributed_s"] = statistics.median(
        t.seconds - tracer.covered_seconds(t.index) for t in traced
    )
    samples["bench.traced-op_s"] = [t.seconds for t in traced]
    samples["bench.untraced-op_s"] = [t.seconds for t in untraced]

    run_seconds = metrics["simulator.run_s"]
    events = metrics["simulator.events"]
    delivered = metrics["simulator.pkts-delivered"]
    if run_seconds and events and delivered:
        metrics["simulator.events-per-pkt"] = events / delivered
        metrics["simulator.us-per-event"] = run_seconds / events * 1e6
        metrics["simulator.pkts-per-s"] = delivered / run_seconds
    arms = traced[0].outcome.arms
    tagger_arms = [arm for arm in arms if arm.tagger]
    if tagger_arms:
        metrics["simulator.goodput-gbps"] = (
            sum(arm.delivered_bytes for arm in tagger_arms) * 8
            / sum(arm.sim_seconds for arm in tagger_arms) / 1e9
        )
    for arm in arms:
        if not arm.tagger and arm.first_confirm is not None and arm.oracle_first is not None:
            metrics["detect.latency-sim-ms"] = (arm.first_confirm - arm.oracle_first) * 1e3

    if arms and not workload.quick:
        # Third, separate repetition under cProfile: its slowdown stays
        # out of every span above.
        profiler = cProfile.Profile()
        profile_tracer = Tracer(profiler)
        profiled = session.operate(profile_tracer)
        profiled_run = profile_tracer.seconds_by_name(profiled.index)["simulator.run"]
        metrics["bench.profile-overhead-ratio"] = profiled_run / run_seconds
        for bucket, numbers in profile_buckets(profiler).items():
            metrics[f"{bucket}.self-share"] = numbers["share"]
            metrics[f"{bucket}.calls"] = numbers["calls"]
    metrics.update(workload.ablations())

    result.metrics = metrics
    result.samples = samples
    result.spans = tracer.to_json()
