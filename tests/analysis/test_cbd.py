"""Tests for static CBD analysis (paper Figs 1 and 3)."""

import pytest

from repro.analysis import cbd_graph, find_cbd, has_cbd
from repro.core import ClosTagger
from repro.routing import updown_paths


class TestFig1Triangle:
    def test_three_flow_ring_has_cbd(self, triangle):
        """The paper's contrived 3-switch example (Fig. 1)."""
        flows = [
            ("HA", "A", "B", "C", "HC"),
            ("HB", "B", "C", "A", "HA"),
            ("HC", "C", "A", "B", "HB"),
        ]
        assert has_cbd(triangle, flows)
        cycle = find_cbd(cbd_graph(triangle, flows))
        # The CBD is over the three switch-to-switch ingress buffers.
        assert len(cycle) == 3

    def test_two_flows_insufficient(self, triangle):
        flows = [
            ("HA", "A", "B", "C", "HC"),
            ("HB", "B", "C", "A", "HA"),
        ]
        assert not has_cbd(triangle, flows)


class TestFig3BounceCbd:
    def test_updown_paths_cbd_free(self, testbed):
        paths = updown_paths(testbed, "T1", "T3") + updown_paths(
            testbed, "T3", "T1"
        )
        assert not has_cbd(testbed, paths)

    def test_one_bounce_pair_creates_cbd(self, testbed, bounce_paths):
        """Fig. 3: loop-free paths, and yet a CBD."""
        green, blue = bounce_paths
        assert has_cbd(testbed, [green, blue])
        cycle = find_cbd(cbd_graph(testbed, [green, blue]))
        switches = {buf[0] for buf in cycle}
        assert switches == {"L1", "S1", "L3", "S2"}

    def test_single_bounce_flow_alone_is_safe(self, testbed, bounce_paths):
        green, _ = bounce_paths
        assert not has_cbd(testbed, [green])


class TestTaggerRemovesCbd:
    def test_tag_policy_breaks_cycle(self, testbed, bounce_paths):
        green, blue = bounce_paths
        tagger = ClosTagger(testbed, max_bounces=1)
        assert has_cbd(testbed, [green, blue])
        assert not has_cbd(testbed, [green, blue], tag_policy=tagger.rewrite)

    def test_zero_budget_demotes_but_stays_safe(self, testbed, bounce_paths):
        green, blue = bounce_paths
        tagger = ClosTagger(testbed, max_bounces=0)
        graph = cbd_graph(
            testbed, [green, blue], tag_policy=tagger.rewrite
        )
        assert find_cbd(graph) is None
        # Demoted (lossy) hops contribute no buffers at all.
        assert graph.tags() == [1]

    def test_per_tag_buffers_present(self, testbed, bounce_paths):
        green, blue = bounce_paths
        tagger = ClosTagger(testbed, max_bounces=1)
        graph = cbd_graph(testbed, [green, blue], tag_policy=tagger.rewrite)
        assert graph.tags() == [1, 2]
