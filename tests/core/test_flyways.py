"""Tests for express links and the turn rule on them (§6)."""

import pytest

from repro.core import (
    LOSSY_TAG,
    ClosTagger,
    TaggerPlan,
    materialize_policy,
    policy_tags_along_path,
    verify_tagged_graph,
)
from repro.exceptions import TaggingError, TopologyError
from repro.topology import (
    add_express_link,
    express_links,
    jellyfish,
    reconfigure_express,
    testbed_clos,
)


@pytest.fixture
def express_fabric(testbed):
    add_express_link(testbed, "T1", "T3")
    add_express_link(testbed, "T2", "T4")
    add_express_link(testbed, "T1", "T4")
    return testbed


def bounce_only(topo, max_bounces):
    """The §4.3 rule alone: raise the tag only when both the ingress and
    the egress peer sit above the switch."""

    def rewrite(switch, in_port, out_port, tag):
        layer = topo.layer_of(switch)
        peers = (topo.peer_on_port(switch, port) for port in (in_port, out_port))
        tag += all(topo.layer_of(peer) > layer for peer in peers)
        return tag if tag <= 1 + max_bounces else LOSSY_TAG

    return rewrite


class TestExpressTopology:
    def test_add_and_list(self, testbed):
        add_express_link(testbed, "T1", "T3")
        assert express_links(testbed) == [("T1", "T3")]

    def test_same_layer_required(self, testbed):
        with pytest.raises(TopologyError, match="SAME layer"):
            add_express_link(testbed, "T1", "L1")

    def test_switches_required(self, testbed):
        with pytest.raises(TopologyError):
            add_express_link(testbed, "H1", "T1")

    def test_reconfigure(self, testbed):
        add_express_link(testbed, "T1", "T3")
        created = reconfigure_express(
            testbed, remove=[("T1", "T3")], add=[("T2", "T4")]
        )
        assert [link.key for link in created] == [("T2", "T4")]
        assert testbed.is_failed("T1", "T3")
        # Re-adding a removed circuit restores it instead of duplicating.
        reconfigure_express(testbed, add=[("T1", "T3")])
        assert not testbed.is_failed("T1", "T3")


class TestPhaseOrder:
    def test_updown_behaviour_matches_clos_tagger(self, testbed):
        """On a pure Clos (no express links) the turn rule degenerates
        to the classic bounce rule."""
        tagger = ClosTagger(testbed, max_bounces=1)
        bounce = bounce_only(testbed, 1)
        for path in (
            ("H1", "T1", "L1", "S1", "L3", "T3", "H9"),
            ("H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H2"),
        ):
            assert tagger.tag_along_path(path) == policy_tags_along_path(
                testbed, bounce, path
            )
        assert tagger.tagged_graph() == materialize_policy(testbed, bounce, (1, 2))[0]

    def test_single_express_hop_free(self, express_fabric):
        tagger = ClosTagger(express_fabric, max_bounces=2)
        assert tagger.tag_along_path(("H1", "T1", "T3", "H9")) == [1, 1, 1]

    def test_down_then_express_increments(self, express_fabric):
        tagger = ClosTagger(express_fabric, max_bounces=2)
        tags = tagger.tag_along_path(("H5", "T2", "L1", "T1", "T3", "H9"))
        assert tags == [1, 1, 1, 2, 2]

    def test_express_then_up_increments(self, express_fabric):
        tagger = ClosTagger(express_fabric, max_bounces=2)
        tags = tagger.tag_along_path(("H1", "T1", "T3", "L3", "T4", "H13"))
        assert tags == [1, 1, 2, 2, 2]

    def test_consecutive_express_hops_increment(self, express_fabric):
        tagger = ClosTagger(express_fabric, max_bounces=2)
        # T3 -> T1 -> T4 uses two express hops back to back.
        tags = tagger.tag_along_path(("H9", "T3", "T1", "T4", "H13"))
        assert tags == [1, 1, 2, 2]

    def test_budget_exhaustion_demotes(self, express_fabric):
        tagger = ClosTagger(express_fabric, max_bounces=0)
        assert not tagger.path_stays_lossless(
            ("H5", "T2", "L1", "T1", "T3", "H9")
        )
        assert tagger.path_stays_lossless(("H1", "T1", "T3", "H9"))


class TestSafety:
    def test_flyways_graph_verifies_for_all_budgets(self, express_fabric):
        for k in (0, 1, 2, 3):
            tagger = ClosTagger(express_fabric, max_bounces=k)
            report = verify_tagged_graph(tagger.tagged_graph())
            assert report.deadlock_free
            assert report.num_tags == k + 1

    def test_plain_clos_tagger_is_unsafe_with_express_links(self, express_fabric):
        """The motivation: the up-down bounce rule misses flat hops, and
        the generic verifier catches the resulting per-tag cycle."""
        graph, _ = materialize_policy(
            express_fabric, bounce_only(express_fabric, 1), (1, 2)
        )
        report = verify_tagged_graph(graph)
        assert not report.deadlock_free
        assert report.tag_cycle is not None

    def test_simulated_express_traffic_safe(self, express_fabric):
        from repro.routing import shortest_path_tables
        from repro.simulator import Flow, SimNetwork, is_deadlocked

        plan = TaggerPlan.for_clos(express_fabric, max_bounces=2)
        net = SimNetwork.with_plan(
            express_fabric, shortest_path_tables(express_fabric), plan
        )
        # Shortest-path routing now prefers the express links for the
        # connected ToR pairs (H1 -> H9 crosses T1-T3 directly).
        flows = [
            net.add_flow(Flow(src="H1", dst="H9", flow_id=9301)),
            net.add_flow(Flow(src="H9", dst="H1", flow_id=9302)),
            net.add_flow(Flow(src="H5", dst="H13", flow_id=9303)),
        ]
        net.at(0.03, lambda: net.set_receiver_rate("H9", 3e7))
        net.at(0.06, lambda: net.set_receiver_rate("H9", None))
        net.run(0.15)
        assert not is_deadlocked(net)
        assert net.metrics.drops.get("lossless_overflow", 0) == 0
        for flow in flows:
            assert net.metrics.mean_rate(flow.flow_id, 0.1, 0.15) > 1e8

    def test_unlayered_rejected(self):
        topo = jellyfish(8, 4, hosts_per_switch=0, seed=1)
        with pytest.raises(TaggingError, match="layer"):
            ClosTagger(topo)

    def test_negative_budget_rejected(self, testbed):
        with pytest.raises(TaggingError):
            ClosTagger(testbed, max_bounces=-1)
