"""Tests for the tagged graph data structure."""

import pytest

from repro.core import INITIAL_TAG, LOSSY_TAG, TaggedGraph, ingress_hops
from repro.exceptions import TaggingError


def node(switch, port, tag):
    return ((switch, port), tag)


class TestTaggedGraphBasics:
    def test_add_node_and_edge(self):
        graph = TaggedGraph()
        a = node("A", 0, 1)
        b = node("B", 1, 1)
        graph.add_edge(a, b)
        assert graph.has_node(a) and graph.has_node(b)
        assert graph.has_edge(a, b)
        assert graph.successors(a) == {b}
        assert graph.predecessor_map() == {a: [], b: [a]}
        assert graph.num_nodes == 2 and graph.num_edges == 1

    def test_duplicate_adds_are_idempotent(self):
        graph = TaggedGraph()
        a, b = node("A", 0, 1), node("B", 0, 1)
        graph.add_edge(a, b)
        graph.add_edge(a, b)
        graph.add_node(a)
        assert graph.num_edges == 1
        assert graph.num_nodes == 2

    def test_tag_decreasing_edge_rejected(self):
        graph = TaggedGraph()
        with pytest.raises(TaggingError, match="monotonicity"):
            graph.add_edge(node("A", 0, 2), node("B", 0, 1))

    def test_invalid_tag_rejected(self):
        graph = TaggedGraph()
        with pytest.raises(TaggingError):
            graph.add_node(node("A", 0, LOSSY_TAG))

    def test_tags_and_indexing(self):
        graph = TaggedGraph()
        graph.add_node(node("A", 0, 1))
        graph.add_node(node("B", 0, 3))
        assert graph.tags() == [1, 3]
        assert graph.num_tags == 2
        assert graph.max_tag == 3
        assert graph.nodes_with_tag(1) == {node("A", 0, 1)}
        assert graph.nodes_with_tag(2) == set()

    def test_empty_graph_max_tag_raises(self):
        with pytest.raises(TaggingError):
            TaggedGraph().max_tag

    def test_ports_and_tags_on_port(self):
        graph = TaggedGraph()
        graph.add_node(node("A", 0, 1))
        graph.add_node(node("A", 0, 2))
        graph.add_node(node("B", 1, 1))
        assert graph.ports() == {("A", 0), ("B", 1)}
        assert graph.tags_on_port(("A", 0)) == [1, 2]


class TestCycleDetection:
    def test_acyclic_tag_subgraph(self):
        graph = TaggedGraph()
        graph.add_edge(node("A", 0, 1), node("B", 0, 1))
        graph.add_edge(node("B", 0, 1), node("C", 0, 1))
        assert graph.tag_subgraph_is_acyclic(1)
        assert graph.find_tag_cycle(1) is None

    def test_cycle_found_and_reported(self):
        graph = TaggedGraph()
        a, b, c = node("A", 0, 1), node("B", 0, 1), node("C", 0, 1)
        graph.add_edge(a, b)
        graph.add_edge(b, c)
        graph.add_edge(c, a)
        cycle = graph.find_tag_cycle(1)
        assert cycle is not None
        assert set(cycle) == {a, b, c}

    def test_cross_tag_edges_not_in_subgraph(self):
        graph = TaggedGraph()
        a1, b1, a2 = node("A", 0, 1), node("B", 0, 1), node("A", 0, 2)
        graph.add_edge(a1, b1)
        graph.add_edge(b1, a2)  # "cycle" only across tags
        assert graph.tag_subgraph_is_acyclic(1)
        assert graph.tag_subgraph_edges(1) == [(a1, b1)]

    def test_self_loop_is_cycle(self):
        graph = TaggedGraph()
        a = node("A", 0, 1)
        graph.add_node(a)
        graph._out[a].add(a)  # forced; add_edge would allow it (same tag)
        assert not graph.tag_subgraph_is_acyclic(1)


class TestExportAndCopy:
    def test_to_networkx(self):
        graph = TaggedGraph()
        graph.add_edge(node("A", 0, 1), node("B", 0, 2))
        nxg = graph.to_networkx()
        assert nxg.number_of_nodes() == 2
        assert nxg.number_of_edges() == 1

    def test_copy_equal_but_independent(self):
        graph = TaggedGraph()
        graph.add_edge(node("A", 0, 1), node("B", 0, 1))
        clone = graph.copy()
        assert clone == graph
        clone.add_node(node("C", 0, 1))
        assert clone != graph


class TestPathHelpers:
    def test_ingress_hops_host_to_host(self, testbed):
        hops = ingress_hops(testbed, ("H1", "T1", "L1", "S1", "L3", "T3", "H9"))
        switches = [sw for sw, _ in hops]
        assert switches == ["T1", "L1", "S1", "L3", "T3"]
        # First hop: T1's port facing H1.
        assert testbed.peer_on_port(*hops[0]) == "H1"

    def test_ingress_hops_switch_start_skips_first(self, testbed):
        hops = ingress_hops(testbed, ("T1", "L1", "S1"))
        assert [sw for sw, _ in hops] == ["L1", "S1"]

