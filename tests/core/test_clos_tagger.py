"""Tests for the topology-aware Clos tagger (paper §4.3)."""

import pytest

from repro.core import INITIAL_TAG, LOSSY_TAG, ClosTagger, verify_tagged_graph
from repro.exceptions import TaggingError
from repro.routing import all_bounce_paths, count_bounces
from repro.topology import fattree, jellyfish


class TestBounceDetection:
    def test_bounce_at_leaf(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        in_port = testbed.port_to("L1", "S2")
        out_port = testbed.port_to("L1", "S1")
        assert tagger.is_bounce("L1", in_port, out_port)

    def test_bounce_at_tor(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        in_port = testbed.port_to("T1", "L1")
        out_port = testbed.port_to("T1", "L2")
        assert tagger.is_bounce("T1", in_port, out_port)

    def test_up_down_transit_is_not_bounce(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        # Leaf apex: in from ToR, out to ToR.
        assert not tagger.is_bounce(
            "L1", testbed.port_to("L1", "T1"), testbed.port_to("L1", "T2")
        )
        # Climbing: in from ToR, out to spine.
        assert not tagger.is_bounce(
            "L1", testbed.port_to("L1", "T1"), testbed.port_to("L1", "S1")
        )
        # Spine turn-around is the apex, not a bounce.
        assert not tagger.is_bounce(
            "S1", testbed.port_to("S1", "L1"), testbed.port_to("S1", "L3")
        )

    def test_host_facing_ports_never_bounce(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        assert not tagger.is_bounce(
            "T1", testbed.port_to("T1", "H1"), testbed.port_to("T1", "L1")
        )


class TestRewrite:
    def test_rewrite_increments_on_bounce(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=2)
        in_port = testbed.port_to("L1", "S2")
        out_port = testbed.port_to("L1", "S1")
        assert tagger.rewrite("L1", in_port, out_port, 1) == 2
        assert tagger.rewrite("L1", in_port, out_port, 2) == 3
        assert tagger.rewrite("L1", in_port, out_port, 3) == LOSSY_TAG

    def test_rewrite_keeps_tag_on_updown(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        assert (
            tagger.rewrite(
                "L1",
                testbed.port_to("L1", "T1"),
                testbed.port_to("L1", "S1"),
                1,
            )
            == 1
        )

    def test_lossy_stays_lossy(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        assert (
            tagger.rewrite(
                "L1",
                testbed.port_to("L1", "T1"),
                testbed.port_to("L1", "S1"),
                LOSSY_TAG,
            )
            == LOSSY_TAG
        )

    def test_out_of_range_tag_demoted(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        assert (
            tagger.rewrite(
                "L1",
                testbed.port_to("L1", "T1"),
                testbed.port_to("L1", "S1"),
                99,
            )
            == LOSSY_TAG
        )


class TestPathTagging:
    def test_updown_path_keeps_tag_one(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        tags = tagger.tag_along_path(("H1", "T1", "L1", "S1", "L3", "T3", "H9"))
        assert tags == [1, 1, 1, 1, 1, 1]

    def test_bounce_path_transitions(self, testbed, bounce_paths):
        green, _ = bounce_paths
        tagger = ClosTagger(testbed, max_bounces=1)
        tags = tagger.tag_along_path(green)
        assert tags[0] == 1 and tags[-1] == 2
        assert sorted(set(tags)) == [1, 2]
        assert tagger.path_stays_lossless(green)

    def test_k_bounce_budget_boundary(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        two_bounce = ("T1", "L1", "T2", "L2", "T1", "L2")  # not loop-free, but tags apply
        # Build a real 2-bounce loop-free path instead:
        two_bounce = ("T3", "L3", "T4", "L4", "S1", "L1", "S2", "L2", "T1")
        assert count_bounces(testbed, two_bounce) == 2
        assert not tagger.path_stays_lossless(two_bounce)
        wider = ClosTagger(testbed, max_bounces=2)
        assert wider.path_stays_lossless(two_bounce)

    def test_all_k_bounce_paths_lossless(self, testbed):
        """The core ELP guarantee: <=k bounces lossless, >k demoted."""
        tagger = ClosTagger(testbed, max_bounces=1)
        for path in all_bounce_paths(
            testbed, 1, endpoints=["T1", "T3"], max_paths_per_pair=30
        ):
            assert tagger.path_stays_lossless(path)


class TestTaggedGraph:
    def test_graph_verifies_deadlock_free(self, testbed):
        for k in (0, 1, 2):
            graph = ClosTagger(testbed, max_bounces=k).tagged_graph()
            report = verify_tagged_graph(graph)
            assert report.deadlock_free
            assert report.num_tags == k + 1

    def test_fattree_also_supported(self):
        topo = fattree(4)
        graph = ClosTagger(topo, max_bounces=1).tagged_graph()
        assert verify_tagged_graph(graph).deadlock_free

    def test_num_lossless_tags(self, testbed):
        assert ClosTagger(testbed, max_bounces=0).num_lossless_tags == 1
        assert ClosTagger(testbed, max_bounces=3).num_lossless_tags == 4

    def test_unlayered_topology_rejected(self):
        topo = jellyfish(10, 4, hosts_per_switch=0, seed=1)
        with pytest.raises(TaggingError, match="layer"):
            ClosTagger(topo, max_bounces=1)

    def test_negative_bounces_rejected(self, testbed):
        with pytest.raises(TaggingError):
            ClosTagger(testbed, max_bounces=-1)

    def test_host_tags_parameter(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=2)
        graph = tagger.tagged_graph(host_tags=[1, 2])
        host_port = ("T1", testbed.port_to("T1", "H1"))
        tags = graph.tags_on_port(host_port)
        assert tags == [1, 2]


class TestPolicyDispatch:
    """``tag_along_path`` and ``tagged_graph`` derive from ``self.rewrite``,
    so a subclass that changes the policy changes both (the fuzz fault
    injectors rely on this)."""

    class _NeverBounces(ClosTagger):
        def is_bounce(self, switch, in_port, out_port):
            return False

    def test_is_bounce_override_reaches_path_tags_and_graph(
        self, testbed, bounce_paths
    ):
        green, _blue = bounce_paths
        honest = ClosTagger(testbed, max_bounces=1)
        broken = self._NeverBounces(testbed, max_bounces=1)
        assert 2 in honest.tag_along_path(green)
        assert set(broken.tag_along_path(green)) == {INITIAL_TAG}
        assert verify_tagged_graph(honest.tagged_graph()).deadlock_free
        broken_graph = broken.tagged_graph()
        assert broken_graph != honest.tagged_graph()
        assert not any(src[1] != dst[1] for src, dst in broken_graph.edges())
        assert not verify_tagged_graph(broken_graph).deadlock_free
