"""The four operator workloads.

Each workload is a class with ``setup`` (everything built before the
timed region; timed as ``setup_s``) and ``operation`` (one closed-loop
operation, topology description -> reports). Both only call public
functions of ``repro`` and wrap each call in a span named after the
layer metric it feeds; nothing under ``src/`` is changed or imported
privately. ``operation`` returns an :class:`~e2ebench.checks.Outcome`
that is judged *after* the timed region.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Optional, Union

import repro.lint.linter as lint_module
from repro.core import IncrementalPlanner, TaggerPlan, UpDownElpProvider
from repro.core.rules import RuleTable
from repro.deploy import RolloutReport, run_rollout
from repro.detect import RecoveryArbiter, RecoveryCoordinator, latency_bound_for
from repro.lint import LintReport, lint_plan
from repro.obs import Telemetry
from repro.perf import StageTimer
from repro.routing import shortest_path_tables
from repro.simulator import (
    DROP_LOSSLESS,
    DROP_LOSSY,
    DeadlockDetector,
    DetectorConfig,
    Flow,
    OracleSampler,
    SimConfig,
    SimNetwork,
    pin_path,
)
from repro.topology import ClosParams, Topology, TopologyDelta, clos3

from e2ebench import inputs
from e2ebench.checks import ArmFacts, Outcome
from e2ebench.tracing import NullTracer, Tracer

AnyTracer = Union[Tracer, NullTracer]

#: Detector and oracle cadence of every simulated arm: 1 ms polls keep
#: the whole deadlock -> confirm -> quarantine -> re-arm story inside
#: 20 ms of simulated time.
DETECTOR = DetectorConfig(poll=0.001, confirm_scans=3)
ORACLE_PERIOD = 0.001
LATENCY_BOUND = latency_bound_for(DETECTOR, ORACLE_PERIOD)

#: Lint check families timed one by one on traced repetitions.
_LINT_CHECKS = {
    "check_graph": "lint.graph",
    "check_tcam": "lint.tcam",
    "check_reachability": "lint.reach",
    "check_budget": "lint.budget",
}


@contextlib.contextmanager
def _lint_check_spans(tracer: AnyTracer) -> Iterator[None]:
    """Wrap the linter's check families in spans while ``lint_plan`` runs.

    ``lint_plan`` returns no stage timings, so on traced repetitions the
    names it calls the checks by are rebound to timed wrappers for the
    duration of the call. A check the linter no longer has is skipped
    (its metric reads 0) rather than breaking the benchmark.
    """
    saved = {}
    for attr, span_name in _LINT_CHECKS.items():
        check = getattr(lint_module, attr, None)
        if check is None:
            continue
        saved[attr] = check

        def timed(*args: Any, _check: Any = check, _name: str = span_name, **kwargs: Any) -> Any:
            with tracer.span(_name):
                return _check(*args, **kwargs)

        setattr(lint_module, attr, timed)
    try:
        yield
    finally:
        for attr, check in saved.items():
            setattr(lint_module, attr, check)


def traced_lint(tracer: AnyTracer, plan: TaggerPlan, outcome: Outcome) -> LintReport:
    with tracer.span("lint.total"):
        if tracer.enabled:
            with _lint_check_spans(tracer):
                report = lint_plan(plan)
        else:
            report = lint_plan(plan)
    _add(outcome.counts, "lint.rules", report.stats.get("rules", 0))
    _add(outcome.counts, "lint.tcam-entries", report.stats.get("tcam_entries", 0))
    _add(outcome.counts, "lint.errors", len(report.errors))
    if not report.ok:
        outcome.failures.append(f"lint not clean: {report.errors[0].render()}")
    return report


def traced_rollout(
    tracer: AnyTracer,
    topo: Topology,
    old: Dict[str, RuleTable],
    new: Dict[str, RuleTable],
    outcome: Outcome,
    telemetry: Optional[Telemetry] = None,
) -> RolloutReport:
    with tracer.span("deploy.total") as span:
        report = run_rollout(topo, old, new, telemetry=telemetry)
    tracer.stages(span, "deploy", report.timings)
    _add(outcome.counts, "deploy.rpcs", report.rpc_count)
    _add(outcome.counts, "deploy.waves", len(report.waves))
    _add(outcome.counts, "deploy.retries", report.retries)
    if report.certificate is not None:
        _add(outcome.counts, "deploy.states-covered", report.certificate.states_covered)
    if not (report.converged and report.final_matches_target):
        outcome.failures.append(f"rollout {report.outcome}: {report.detail}")
    return report


def _add(counts: Dict[str, float], name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def run_arm(
    tracer: AnyTracer,
    topo: Topology,
    table: Any,
    plan: Optional[TaggerPlan],
    flows: List[Flow],
    sim_seed: int,
    oracle_seed: int,
    outcome: Outcome,
    *,
    until: float = 0.0,
    packets: int = 0,
    throttles: List[Any] = (),  # (host, start, end) slow-receiver windows
    recover: bool = False,
    armed: bool = True,
    jitter: float = 0.0,
    telemetry: Optional[Telemetry] = None,
) -> ArmFacts:
    """Build one fabric, drive ``flows`` through it, read the counters.

    Runs for ``until`` simulated seconds, or — when ``packets`` is set —
    in 0.5 ms slices until that many packets were delivered, which makes
    the work per operation the same on every seed. ``armed`` installs
    the oracle and the detector; ``recover`` adds the quarantine/re-arm
    coordinator.
    """
    with tracer.span("simulator.build"):
        config = SimConfig(seed=sim_seed, injection_jitter=jitter)
        if plan is None:
            net = SimNetwork(topo, table, config=config, telemetry=telemetry)
        else:
            net = SimNetwork.with_plan(topo, table, plan, config=config, telemetry=telemetry)
        for flow in flows:
            net.add_flow(flow)
        for host, start, end in throttles:
            net.at(start, lambda host=host: net.set_receiver_rate(host, 5e7))
            net.at(end, lambda host=host: net.set_receiver_rate(host, None))
        sampler = detector = coordinator = None
        delivered_at_confirm: List[int] = []
        if armed:
            sampler = OracleSampler(net, period=ORACLE_PERIOD, seed=oracle_seed)
            sampler.install()
            detector = DeadlockDetector(net, DETECTOR)
            if recover:
                # A 4 ms hold re-arms the queue within the run, so the
                # re-arm path is exercised too.
                coordinator = RecoveryCoordinator(net, arbiter=RecoveryArbiter(), hold=0.004)

                def on_confirm(detection: Any) -> None:
                    if not delivered_at_confirm:
                        delivered_at_confirm.append(sum(net.metrics.delivered_packets.values()))
                    coordinator.on_confirm(detection)

                detector.on_confirm = on_confirm
            detector.install()
    with tracer.span("simulator.run") as span:
        if packets:
            clock = 0.0
            while sum(net.metrics.delivered_packets.values()) < packets:
                clock += 0.0005
                net.run(clock)
        else:
            net.run(until)
    metrics = net.metrics
    conservation = net.conservation_check()
    facts = ArmFacts(
        tagger=plan is not None,
        sim_seconds=net.sim.now,
        run_seconds=span.seconds if span is not None else 0.0,
        events=net.sim.total_events_run,
        injected=conservation["injected"],
        delivered=conservation["delivered"],
        delivered_bytes=sum(metrics.delivered_bytes.values()),
        in_flight=conservation["in_flight"],
        per_flow_delivered=dict(metrics.delivered_packets),
        drops=dict(metrics.drops),
        pauses=metrics.pfc.pause_count,
        resumes=metrics.pfc.resume_count,
        oracle_seen=bool(sampler and sampler.deadlock_seen),
        oracle_first=sampler.first_cycle_time if sampler else None,
        oracle_at_end=bool(sampler and sampler.deadlocked_at_end()),
        confirms=detector.confirms if detector else 0,
        first_confirm=detector.first_confirm_time() if detector else None,
        clears=detector.clear_reasons() if detector else {},
        delivered_at_confirm=delivered_at_confirm[0] if delivered_at_confirm else None,
    )
    if coordinator is not None:
        facts.quarantines = len(coordinator.quarantines)
        facts.packets_moved = sum(q.moved for q in coordinator.quarantines)
        facts.rearms = coordinator.rearms
    outcome.arms.append(facts)
    counts = outcome.counts
    _add(counts, "simulator.events", facts.events)
    _add(counts, "simulator.pkts-injected", facts.injected)
    _add(counts, "simulator.pkts-delivered", facts.delivered)
    _add(counts, "simulator.drops-lossless", facts.drops.get(DROP_LOSSLESS, 0))
    _add(counts, "simulator.drops-lossy", facts.drops.get(DROP_LOSSY, 0))
    _add(counts, "simulator.pfc-pauses", facts.pauses)
    _add(counts, "simulator.pfc-resumes", facts.resumes)
    _add(counts, "detect.confirms", facts.confirms)
    _add(counts, "detect.quarantines", facts.quarantines)
    _add(counts, "detect.packets-moved", facts.packets_moved)
    _add(counts, "detect.rearms", facts.rearms)
    return facts


class Workload:
    """Base: sizes, seed and the two phases the runner times."""

    name = ""
    #: Distinct operations before the sequence repeats (1 = every
    #: operation is the same repetition).
    distinct_operations = 1

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick

    def setup(self, tracer: AnyTracer) -> None:
        raise NotImplementedError

    def operation(self, index: int, tracer: AnyTracer) -> Outcome:
        raise NotImplementedError

    def ablations(self) -> Dict[str, float]:
        """Extra runs with one layer switched off -> overhead ratios."""
        return {}


class Greenfield(Workload):
    """Day one: plan, lint, show the deadlock, roll out, show it gone.

    The only workload where deploy.certify, the simulator, obs and
    detect all sit on the blocking path together.
    """

    name = "greenfield-clos32"
    SIM_SECONDS = 0.02

    def setup(self, tracer: AnyTracer) -> None:
        self.params = (
            ClosParams(2, 4, 2, 2, hosts_per_tor=1)
            if self.quick
            else ClosParams(4, 8, 4, 4, hosts_per_tor=1)
        )
        self.traffic = inputs.greenfield_traffic(self.params, self.seed)

    def flows(self) -> List[Flow]:
        """Fresh Flow objects (a Flow carries run state) with fixed ids."""
        flows = []
        for i, pair in enumerate(self.traffic["pairs"]):
            for j, path in enumerate((pair["blue"], pair["green"])):
                flows.append(
                    Flow(
                        src=path[0], dst=path[-1], start=0.0005 * j, window=32,
                        pinned_next_hops=pin_path(path), flow_id=1000 + 2 * i + j,
                    )
                )
        for i, (src, dst) in enumerate(self.traffic["shuffle"]):
            flows.append(Flow(src=src, dst=dst, packet_size=1000, window=8, flow_id=2000 + i))
        return flows

    def arm(
        self,
        tracer: AnyTracer,
        topo: Topology,
        table: Any,
        plan: Optional[TaggerPlan],
        outcome: Outcome,
        telemetry: Optional[Telemetry],
    ) -> ArmFacts:
        throttles = [(pair["throttle"], 0.001, 0.004) for pair in self.traffic["pairs"]]
        return run_arm(
            tracer, topo, table, plan, self.flows(),
            self.traffic["sim_seed"], self.traffic["oracle_seed"], outcome,
            until=self.SIM_SECONDS, throttles=throttles, recover=True, telemetry=telemetry,
        )

    def operation(self, index: int, tracer: AnyTracer) -> Outcome:
        outcome = Outcome()
        telemetry = Telemetry()
        with tracer.span("topology.build"):
            topo = clos3(self.params)
        with tracer.span("core.for-clos"):
            plan = TaggerPlan.for_clos(topo, max_bounces=1)
        traced_lint(tracer, plan, outcome)
        with tracer.span("routing.tables"):
            table = shortest_path_tables(topo)
        self.arm(tracer, topo, table, None, outcome, telemetry)
        traced_rollout(tracer, topo, {}, plan.tables, outcome, telemetry)
        self.arm(tracer, topo, table, plan, outcome, telemetry)
        stats = telemetry.bus.stats()
        outcome.counts["obs.events-emitted"] = stats["total"]
        outcome.counts["obs.evicted"] = stats["evicted"]
        outcome.deployments.append(plan.tables)
        return outcome

    def ablations(self) -> Dict[str, float]:
        """Telemetry cost: the same after arm with no Telemetry attached."""
        topo = clos3(self.params)
        table = shortest_path_tables(topo)
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        tracer = Tracer()
        attached = self.arm(tracer, topo, table, plan, Outcome(), Telemetry())
        detached = self.arm(tracer, topo, table, plan, Outcome(), None)
        return {"obs.overhead-ratio": attached.run_seconds / detached.run_seconds}


class ScalePlan(Workload):
    """Generic planner and linter at hyperscale; no rollout, no simulator.

    core and lint do all the work, so a minimizer or linter change shows
    here and must not move the other workloads. Ignores the seed: there
    is nothing to draw.
    """

    name = "scaleplan-fattree1024"

    def setup(self, tracer: AnyTracer) -> None:
        self.params = (
            ClosParams(4, 4, 2, 2, hosts_per_tor=0)
            if self.quick
            else ClosParams(32, 32, 4, 4, hosts_per_tor=0)
        )

    def operation(self, index: int, tracer: AnyTracer) -> Outcome:
        outcome = Outcome()
        with tracer.span("topology.build"):
            topo = clos3(self.params)
        timer = StageTimer()
        with tracer.span("core.plan") as span:
            plan = TaggerPlan.from_provider(topo, UpDownElpProvider(), timer=timer)
        tracer.stages(span, "core.plan", timer.timings())
        outcome.counts["core.plan.rules"] = plan.total_rules
        outcome.counts["core.plan.elp_paths"] = plan.meta.get("elp_paths", 0)
        traced_lint(tracer, plan, outcome)
        outcome.deployments.append(plan.tables)
        return outcome


class Churn(Workload):
    """Steady-state link flaps through the warm incremental planner.

    Catches a change that speeds scratch planning or full-table certify
    but slows diffs, memo hits or small rollouts.
    """

    name = "churn-clos64"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.distinct_operations = 2 if quick else 8

    def setup(self, tracer: AnyTracer) -> None:
        self.params = (
            ClosParams(2, 2, 2, 2, hosts_per_tor=1)
            if self.quick
            else ClosParams(8, 8, 4, 4, hosts_per_tor=1)
        )
        self.episodes = inputs.churn_episodes(self.params, self.seed, self.distinct_operations)
        with tracer.span("topology.build"):
            self.topo = clos3(self.params)
        with tracer.span("core.planner-init") as span:
            self.planner = IncrementalPlanner(self.topo, UpDownElpProvider())
        tracer.stages(span, "core.planner-init", self.planner.initial_timings)
        self.deployed = self.planner.plan.tables

    def operation(self, index: int, tracer: AnyTracer) -> Outcome:
        """One flap episode: four deltas, each planned, linted, rolled out."""
        outcome = Outcome()
        pristine = self.deployed
        for kind, a, b in self.episodes[index % len(self.episodes)]:
            make = TopologyDelta.link_down if kind == "link-down" else TopologyDelta.link_up
            delta = make(a, b)
            with tracer.span("core.replan.apply") as span:
                result = self.planner.apply(delta)
            tracer.stages(span, "core.replan", result.timings)
            _add(outcome.counts, f"core.replan.mode.{result.mode}", 1)
            _add(outcome.counts, "core.replan.dirty-pairs", result.dirty_pairs)
            _add(outcome.counts, "core.replan.rule-touches", result.total_rule_touches)
            traced_lint(tracer, result.plan, outcome)
            traced_rollout(tracer, self.topo, self.deployed, result.plan.tables, outcome)
            self.deployed = result.plan.tables
            outcome.deployments.append(self.deployed)
        outcome.round_trip = (pristine, self.deployed)
        return outcome


class FabricStorm(Workload):
    """Data plane only: incasts over a shuffle, telemetry detached.

    The simulator does all the work with the pause/resume path hot and
    obs idle, so a simulator change shows at full size here while a
    telemetry change shows only on ``greenfield-clos32``.
    """

    name = "fabric-pfcstorm-clos64"

    def setup(self, tracer: AnyTracer) -> None:
        self.params = (
            ClosParams(4, 4, 2, 2, hosts_per_tor=1)
            if self.quick
            else ClosParams(8, 8, 4, 4, hosts_per_tor=1)
        )
        self.packets = 3_000 if self.quick else 100_000
        self.traffic = inputs.fabric_traffic(self.params, self.seed)
        with tracer.span("topology.build"):
            self.topo = clos3(self.params)
        with tracer.span("core.for-clos"):
            self.plan = TaggerPlan.for_clos(self.topo, max_bounces=1)
        with tracer.span("routing.tables"):
            self.table = shortest_path_tables(self.topo)

    def flows(self) -> List[Flow]:
        flows = []
        flow_id = 1
        for incast in self.traffic["incasts"]:
            for src in incast["senders"]:
                flows.append(
                    Flow(src=src, dst=incast["sink"], packet_size=4096, window=8, flow_id=flow_id)
                )
                flow_id += 1
        for src, dst in self.traffic["shuffle"]:
            flows.append(Flow(src=src, dst=dst, packet_size=256, window=8, flow_id=flow_id))
            flow_id += 1
        return flows

    def arm(self, tracer: AnyTracer, outcome: Outcome, armed: bool = True) -> ArmFacts:
        # 1 us of injection jitter makes SimConfig.seed matter; nothing
        # here needs a phase-locked schedule.
        return run_arm(
            tracer, self.topo, self.table, self.plan, self.flows(),
            self.traffic["sim_seed"], self.traffic["oracle_seed"], outcome,
            packets=self.packets, armed=armed, jitter=1e-6,
        )

    def operation(self, index: int, tracer: AnyTracer) -> Outcome:
        outcome = Outcome()
        self.arm(tracer, outcome)
        return outcome

    def ablations(self) -> Dict[str, float]:
        """Detection cost: the same input with oracle and detector unarmed."""
        tracer = Tracer()
        armed = self.arm(tracer, Outcome(), armed=True)
        unarmed = self.arm(tracer, Outcome(), armed=False)
        return {"simulator.detection.overhead-ratio": armed.run_seconds / unarmed.run_seconds}


WORKLOADS = {cls.name: cls for cls in (Greenfield, ScalePlan, Churn, FabricStorm)}
