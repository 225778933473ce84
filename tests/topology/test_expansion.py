"""Tests for incremental Clos expansion (paper §6, "Topology changes")."""

import pytest

from repro.core import ClosTagger, materialize_policy, verify_tagged_graph
from repro.exceptions import TopologyError
from repro.topology import ClosParams, clos3, expand_clos


@pytest.fixture
def params():
    return ClosParams(
        num_pods=2, tors_per_pod=2, leaves_per_pod=2, num_spines=2,
        hosts_per_tor=2,
    )


class TestExpandClos:
    def test_adds_a_wellformed_pod(self, params):
        topo = clos3(params)
        before_switches = set(topo.switches)
        result = expand_clos(topo, params, extra_pods=1)
        assert result.new_leaves == ["L5", "L6"]
        assert result.new_tors == ["T5", "T6"]
        assert len(result.new_hosts) == 4
        # New leaves connect to every spine; new ToRs to their pod leaves.
        for leaf in result.new_leaves:
            assert set(topo.neighbors(leaf)) >= {"S1", "S2"}
        for tor in result.new_tors:
            peers = set(topo.neighbors(tor))
            assert set(result.new_leaves) <= peers
        topo.validate()
        assert before_switches < set(topo.switches)

    def test_existing_ports_untouched(self, params):
        topo = clos3(params)
        before = {name: topo.ports(name) for name in topo.switches}
        expand_clos(topo, params, extra_pods=1)
        for name, ports in before.items():
            after = topo.ports(name)
            for port, peer in ports.items():
                assert after[port] == peer

    def test_old_switch_rules_unchanged(self, params):
        """The paper's claim: expansion under existing spines requires no
        rule changes on older non-spine switches, and only *additive*
        rules on spines."""
        topo = clos3(params)
        old_switches = list(topo.switches)
        _, before = materialize_policy(
            topo, ClosTagger(topo, max_bounces=1).rewrite, [1, 2]
        )
        rules_before = {switch: before[switch].rules for switch in old_switches}
        expand_clos(topo, params, extra_pods=1)
        _, tables_after = materialize_policy(
            topo, ClosTagger(topo, max_bounces=1).rewrite, [1, 2]
        )
        for switch in old_switches:
            after = tables_after[switch].rules
            if switch.startswith("S"):
                # Spines gain rules for their new ports; nothing changes
                # or disappears among pre-existing entries.
                assert set(rules_before[switch].items()) <= set(after.items())
            else:
                assert after == rules_before[switch]

    def test_expanded_fabric_still_deadlock_free(self, params):
        topo = clos3(params)
        expand_clos(topo, params, extra_pods=2)
        report = verify_tagged_graph(
            ClosTagger(topo, max_bounces=1).tagged_graph()
        )
        assert report.deadlock_free

    def test_traffic_reaches_new_pod(self, params):
        from repro.core import TaggerPlan
        from repro.routing import shortest_path_tables
        from repro.simulator import Flow, SimNetwork

        topo = clos3(params)
        result = expand_clos(topo, params, extra_pods=1)
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        net = SimNetwork.with_plan(topo, shortest_path_tables(topo), plan)
        flow = net.add_flow(Flow(src="H1", dst=result.new_hosts[0]))
        net.run(0.02)
        assert net.metrics.delivered_packets[flow.flow_id] > 0

    def test_bad_args(self, params):
        topo = clos3(params)
        with pytest.raises(TopologyError):
            expand_clos(topo, params, extra_pods=0)
        from repro.topology import Topology

        flat = Topology()
        flat.add_switch("X", layer=0)
        with pytest.raises(TopologyError, match="spine"):
            expand_clos(flat, params)
