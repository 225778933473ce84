"""Tests for Algorithm 2 (greedy tag minimization), incl. Fig. 5 / Fig. 6."""

import pytest

from repro.core import (
    bruteforce_tagging,
    clos_bounce_elp,
    clos_updown_elp,
    greedy_minimize,
    verify_tagged_graph,
)
from repro.exceptions import TaggingError
from repro.topology import Topology


def fig5_topology() -> Topology:
    """The 6-node example of paper Fig. 5(a).

    A-D and A-E... the paper's topology: nodes A..F; D, E, F are edge
    nodes; A, B, C form the core triangle; D-A, E-B, F-C spokes.
    """
    topo = Topology(name="fig5")
    for name in ("A", "B", "C", "D", "E", "F"):
        topo.add_switch(name)
    topo.add_link("A", "B")
    topo.add_link("B", "C")
    topo.add_link("C", "A")
    topo.add_link("D", "A")
    topo.add_link("E", "B")
    topo.add_link("F", "C")
    return topo


FIG5_ELP = [
    ("D", "A", "B", "E"),
    ("D", "A", "C", "B", "E"),
    ("E", "B", "A", "D"),
    ("E", "B", "C", "A", "D"),
    ("D", "A", "C", "F"),
    ("D", "A", "B", "C", "F"),
    ("F", "C", "A", "D"),
    ("F", "C", "B", "A", "D"),
    ("E", "B", "C", "F"),
    ("E", "B", "A", "C", "F"),
    ("F", "C", "B", "E"),
    ("F", "C", "A", "B", "E"),
]


class TestFig5Walkthrough:
    def test_bruteforce_needs_four_tags(self):
        topo = fig5_topology()
        graph = bruteforce_tagging(topo, FIG5_ELP)
        assert graph.max_tag == 4  # longest ELP path has 4 ingress hops
        assert verify_tagged_graph(graph).deadlock_free

    def test_greedy_reduces_to_two_tags(self):
        """Paper Fig. 5(c): Algorithm 2 compresses the example to 2 tags."""
        topo = fig5_topology()
        graph = greedy_minimize(bruteforce_tagging(topo, FIG5_ELP))
        assert graph.max_tag == 2
        assert verify_tagged_graph(graph).deadlock_free


class TestGreedyInvariants:
    def test_never_worse_than_bruteforce(self, testbed):
        for elp in (clos_updown_elp(testbed), clos_bounce_elp(testbed, 1)):
            bf = bruteforce_tagging(testbed, elp)
            greedy = greedy_minimize(bf)
            assert greedy.max_tag <= bf.max_tag
            # Merging can only coalesce edges, never add them.
            assert greedy.num_edges <= bf.num_edges

    def test_requirements_hold(self, testbed):
        bf = bruteforce_tagging(testbed, clos_bounce_elp(testbed, 1))
        report = verify_tagged_graph(greedy_minimize(bf))
        assert report.deadlock_free

    def test_updown_collapses_to_one_tag(self, testbed):
        """Up-down paths alone are CBD-free: one lossless priority."""
        graph = greedy_minimize(
            bruteforce_tagging(testbed, clos_updown_elp(testbed))
        )
        assert graph.max_tag == 1

    def test_fig6_greedy_uses_three_tags_on_1bounce_clos(self, testbed):
        """Paper Fig. 6: Algorithm 2 is suboptimal on Clos bounce ELPs.

        It outputs 3 tags where the topology-aware scheme needs only 2.
        """
        graph = greedy_minimize(
            bruteforce_tagging(testbed, clos_bounce_elp(testbed, 1))
        )
        assert graph.max_tag == 3

    def test_deterministic(self, testbed):
        elp = clos_bounce_elp(testbed, 1)
        a = greedy_minimize(bruteforce_tagging(testbed, elp))
        b = greedy_minimize(bruteforce_tagging(testbed, elp))
        assert a == b

    def test_empty_graph_rejected(self):
        from repro.core import TaggedGraph

        with pytest.raises(TaggingError):
            greedy_minimize(TaggedGraph())

    def test_tag_mapping_consistency(self, testbed):
        """Every brute-force node lands on one minimized node of its port,
        and every brute-force edge on a minimized edge between them."""
        bf = bruteforce_tagging(testbed, clos_updown_elp(testbed))
        minimized = greedy_minimize(bf)
        assert minimized.ports() == bf.ports()
        for src, dst in bf.edges():
            assert any(
                minimized.has_edge((src[0], a), (dst[0], b))
                for a in minimized.tags_on_port(src[0])
                for b in minimized.tags_on_port(dst[0])
            )
