"""Cross-module integration tests: plan -> simulate -> verify outcomes."""

import pytest

from repro.analysis import has_cbd
from repro.core import TaggerPlan, clos_bounce_elp
from repro.routing import (
    apply_local_reroute,
    shortest_path_tables,
)
from repro.simulator import Flow, SimNetwork, is_deadlocked
from repro.topology import fattree


class TestStaticDynamicAgreement:
    """Static CBD verdicts and dynamic deadlock behaviour must agree."""

    def test_cbd_free_plan_never_deadlocks_dynamically(self, testbed, bounce_paths):
        green, blue = bounce_paths
        plan = TaggerPlan.for_clos(testbed, max_bounces=1)
        # Static: no CBD under the plan's rewrite policy.
        from repro.core import ClosTagger

        tagger = ClosTagger(testbed, max_bounces=1)
        assert not has_cbd(testbed, [green, blue], tag_policy=tagger.rewrite)
        # Dynamic: hammer the same scenario; no deadlock may appear.
        from repro.simulator import pin_path

        net = SimNetwork.with_plan(testbed, shortest_path_tables(testbed), plan)
        net.add_flow(Flow(src=green[0], dst=green[-1], pinned_next_hops=pin_path(green)))
        net.add_flow(Flow(src=blue[0], dst=blue[-1], pinned_next_hops=pin_path(blue)))
        net.at(0.03, lambda: net.set_receiver_rate(green[-1], 2e7))
        net.at(0.06, lambda: net.set_receiver_rate(green[-1], None))
        net.run(0.2)
        assert not is_deadlocked(net)
        assert net.metrics.drops.get("lossless_overflow", 0) == 0

    def test_cbd_prone_baseline_deadlocks(self, testbed, bounce_paths):
        green, blue = bounce_paths
        assert has_cbd(testbed, [green, blue])
        from repro.simulator import pin_path

        net = SimNetwork(testbed, shortest_path_tables(testbed))
        net.add_flow(Flow(src=blue[0], dst=blue[-1], pinned_next_hops=pin_path(blue)))
        net.add_flow(
            Flow(
                src=green[0],
                dst=green[-1],
                start=0.01,
                pinned_next_hops=pin_path(green),
            )
        )
        net.at(0.05, lambda: net.set_receiver_rate(green[-1], 5e7))
        net.at(0.08, lambda: net.set_receiver_rate(green[-1], None))
        net.run(0.2)
        assert is_deadlocked(net)


class TestFailureDrivenBounces:
    def test_failure_reroute_is_lossless_under_plan(self, testbed):
        """Fig. 3/10 full pipeline: fail a link, locally reroute, drive
        traffic over the resulting bounce path under a k=1 plan."""
        plan = TaggerPlan.for_clos(testbed, max_bounces=1)
        table = shortest_path_tables(testbed)
        testbed.fail_link("L1", "T1")
        apply_local_reroute(testbed, table, ("L1", "T1"))
        net = SimNetwork.with_plan(testbed, table, plan)
        flows = [
            net.add_flow(Flow(src=src, dst="H1"))
            for src in ("H9", "H13", "H5")
        ]
        net.run(0.1)
        assert not is_deadlocked(net)
        assert net.metrics.drops.get("lossless_overflow", 0) == 0
        delivered = sum(
            net.metrics.delivered_bytes[f.flow_id] for f in flows
        )
        assert delivered > 0


class TestOtherTopologies:
    def test_fattree_plan_and_simulation(self):
        topo = fattree(4)
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        assert plan.verify().deadlock_free
        net = SimNetwork.with_plan(topo, shortest_path_tables(topo), plan)
        hosts = sorted(topo.hosts)[:4]
        flow = net.add_flow(Flow(src=hosts[0], dst=hosts[-1]))
        net.run(0.02)
        assert net.metrics.delivered_packets[flow.flow_id] > 0


class TestElpPlanSimAgreement:
    def test_generic_plan_runs_bounce_traffic_losslessly(self, testbed, bounce_paths):
        green, blue = bounce_paths
        elp = clos_bounce_elp(testbed, 1)
        plan = TaggerPlan.from_elp(testbed, elp)
        from repro.simulator import pin_path

        net = SimNetwork.with_plan(testbed, shortest_path_tables(testbed), plan)
        net.add_flow(Flow(src=green[0], dst=green[-1], pinned_next_hops=pin_path(green)))
        net.add_flow(Flow(src=blue[0], dst=blue[-1], pinned_next_hops=pin_path(blue)))
        net.run(0.1)
        assert not is_deadlocked(net)
        assert net.metrics.drops.get("lossless_overflow", 0) == 0
