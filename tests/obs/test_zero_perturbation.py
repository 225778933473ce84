"""Zero-perturbation: telemetry is a pure observer, never an actor.

Each subsystem is run twice — once with a ``Telemetry`` attached, once
without — and its complete observable output is serialized to canonical
JSON and compared *byte-identically*. Any telemetry hook that consumes a
random draw, reorders an event, or mutates shared state shows up here as
a diff, not as a subtly skewed benchmark three PRs later.
"""

import json

from repro.core import (
    IncrementalPlanner,
    TaggerPlan,
    UpDownElpProvider,
)
from repro.core.rules import canonical_tables, diff_tables
from repro.deploy import random_fault_plan, run_rollout
from repro.fuzz import FuzzConfig, run_fuzz
from repro.obs import Telemetry
from repro.routing import shortest_path_tables
from repro.simulator import Flow, SimConfig, SimNetwork, pin_path
from repro.topology import TopologyDelta, testbed_clos

GREEN = ("H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H2")
BLUE = ("H1", "T1", "L1", "S1", "L3", "S2", "L4", "T4", "H13")


def canonical_json(blob) -> str:
    return json.dumps(blob, sort_keys=True, separators=(",", ":"))


def run_sim(telemetry):
    """The Fig. 10 bounce scenario with jitter (so the RNG is exercised)."""
    topo = testbed_clos()
    table = shortest_path_tables(topo)
    plan = TaggerPlan.for_clos(topo, max_bounces=1)
    net = SimNetwork.with_plan(
        topo,
        table,
        plan,
        config=SimConfig(seed=5, injection_jitter=2e-6),
        telemetry=telemetry,
    )
    blue = net.add_flow(
        Flow(src="H1", dst="H13", pinned_next_hops=pin_path(BLUE))
    )
    green = net.add_flow(
        Flow(src="H9", dst="H2", start=0.01, pinned_next_hops=pin_path(GREEN))
    )
    net.at(0.03, lambda: net.set_receiver_rate("H2", 5e7))
    net.at(0.06, lambda: net.set_receiver_rate("H2", None))
    net.run(0.1)
    return net, (blue, green)


def sim_state_snapshot(net, flows) -> str:
    """Every externally observable simulator output, canonical JSON.

    Flow ids come from a process-global counter, so the two runs see
    different raw ids; they are renumbered by creation order to make the
    snapshots comparable.
    """
    metrics = net.metrics
    alias = {flow.flow_id: index for index, flow in enumerate(flows)}

    def renumber(counter):
        return {alias[flow_id]: value for flow_id, value in counter.items()}

    queues = {}
    for name in sorted(net.switches):
        switch = net.switches[name]
        for port in sorted(switch.tx_ports):
            tx = switch.tx_ports[port]
            for queue in sorted(tx.queues):
                queues[f"{name}/{port}/{queue}"] = [
                    tx.bytes_queued(queue),
                    bool(tx.pause.is_paused(queue)),
                ]
    return canonical_json({
        "now": net.sim.now,
        "events_run": net.sim.total_events_run,
        "injected": renumber(metrics.injected_packets),
        "delivered_packets": renumber(metrics.delivered_packets),
        "delivered_bytes": renumber(metrics.delivered_bytes),
        "drops": dict(metrics.drops),
        "demotions": dict(metrics.demotions),
        "pfc": [
            [e.time, e.sender, e.receiver, e.queue, e.pause]
            for e in metrics.pfc.events
        ],
        "rates": [
            net.metrics.rate_series(flow.flow_id, 0.0, 0.1) for flow in flows
        ],
        "queues": queues,
    })


class TestSimulatorUnperturbed:
    def test_final_state_byte_identical(self):
        baseline_net, baseline_flows = run_sim(None)
        telemetry = Telemetry(capacity=500_000)
        observed_net, observed_flows = run_sim(telemetry)
        assert telemetry.bus.total_emitted > 0  # it really was watching
        assert sim_state_snapshot(
            baseline_net, baseline_flows
        ) == sim_state_snapshot(observed_net, observed_flows)


class TestPlannerUnperturbed:
    def test_rule_tables_byte_identical_across_churn(self):
        deltas = [
            TopologyDelta.link_down("L1", "S1"),
            TopologyDelta.link_up("L1", "S1"),
            TopologyDelta.drain("L2"),
        ]

        def churn(telemetry):
            # Fresh topology per run: deltas mutate it in place.
            planner = IncrementalPlanner(
                testbed_clos(), UpDownElpProvider(), telemetry=telemetry
            )
            snapshots = [canonical_json(canonical_tables(planner.plan.tables))]
            for delta in deltas:
                result = planner.apply(delta)
                snapshots.append(
                    canonical_json(canonical_tables(result.plan.tables))
                )
            return snapshots

        telemetry = Telemetry()
        assert churn(None) == churn(telemetry)
        assert telemetry.bus.count("replan.apply") == len(deltas)


class TestDeployUnperturbed:
    def test_report_identical_under_faults(self, testbed):
        planner = IncrementalPlanner(testbed, UpDownElpProvider())
        old = canonical_tables(planner.plan.tables)
        old_tables = dict(planner.plan.tables)
        planner.apply(TopologyDelta.link_down("L1", "S1"))
        new_tables = dict(planner.plan.tables)
        switches = sorted(diff_tables(old_tables, new_tables))
        assert old is not None and switches

        def rollout(telemetry):
            faults = random_fault_plan(
                switches, seed=11, rate=0.4, stuck_prob=0.1
            )
            report = run_rollout(
                testbed, old_tables, new_tables,
                faults=faults, telemetry=telemetry,
            )
            blob = report.to_dict()
            # Wall-clock stage timings are legitimately nondeterministic;
            # everything else (incl. the *virtual* clock) must match.
            blob.pop("timings", None)
            return canonical_json(blob)

        telemetry = Telemetry()
        assert rollout(None) == rollout(telemetry)
        assert telemetry.bus.count("deploy.rpc") > 0
        # What the rollout's lints cost: every switch is built once, then
        # reused by the later boundaries and the final ground-truth lint.
        sections = telemetry.registry.get("deploy_lint_sections_total")
        assert sections.value(result="built") >= len(old_tables)
        assert sections.value(result="reused") >= len(old_tables)


class TestFuzzUnperturbed:
    def test_report_identical(self):
        config = FuzzConfig(seed=13, iterations=8, oracle_budget=1,
                            shrink=False)

        def fuzz(telemetry):
            blob = run_fuzz(config, telemetry=telemetry).to_dict()
            # Wall-clock timing is the one legitimately nondeterministic
            # field; everything else must match exactly.
            blob.pop("elapsed_seconds", None)
            return canonical_json(blob)

        telemetry = Telemetry()
        assert fuzz(None) == fuzz(telemetry)
        assert telemetry.bus.count("fuzz.scenario") == 8
