"""Tests for the Theorem 5.1 verification machinery."""

import pytest

from repro.core import TaggedGraph, assert_deadlock_free, verify_tagged_graph
from repro.exceptions import VerificationError


def node(switch, port, tag):
    return ((switch, port), tag)


def build_safe_graph() -> TaggedGraph:
    graph = TaggedGraph()
    graph.add_edge(node("A", 0, 1), node("B", 0, 1))
    graph.add_edge(node("B", 0, 1), node("C", 0, 2))
    graph.add_edge(node("C", 0, 2), node("A", 1, 2))
    return graph


def build_r1_violation() -> TaggedGraph:
    graph = TaggedGraph()
    a, b, c = node("A", 0, 1), node("B", 0, 1), node("C", 0, 1)
    graph.add_edge(a, b)
    graph.add_edge(b, c)
    graph.add_edge(c, a)
    return graph


class TestVerify:
    def test_safe_graph_passes(self):
        report = verify_tagged_graph(build_safe_graph())
        assert report.deadlock_free
        assert report.num_tags == 2
        assert report.cross_edges == 1
        assert report.tag_cycle is None
        assert report.decreasing_edge is None
        assert "DEADLOCK-FREE" in report.summary()

    def test_r1_violation_detected(self):
        report = verify_tagged_graph(build_r1_violation())
        assert not report.deadlock_free
        assert report.tag_cycle is not None
        assert len(report.tag_cycle) == 3
        assert "UNSAFE" in report.summary()

    def test_two_violations_report_the_lowest_tag(self):
        graph = build_r1_violation()
        p, q = node("P", 0, 3), node("Q", 0, 3)
        graph.add_edge(p, q)
        graph.add_edge(q, p)
        report = verify_tagged_graph(graph)
        assert report.tag_cycle is not None
        assert {tag for _port, tag in report.tag_cycle} == {1}
        with pytest.raises(VerificationError, match="tag 1 contains"):
            assert_deadlock_free(graph)

    def test_r2_violation_detected(self):
        graph = build_safe_graph()
        # Bypass add_edge's guard to simulate a corrupted scheme.
        src, dst = node("C", 0, 2), node("B", 0, 1)
        graph._out[src].add(dst)
        report = verify_tagged_graph(graph)
        assert not report.deadlock_free
        assert report.decreasing_edge == (src, dst)
        # A decreasing edge is neither intra-tag nor cross-tag.
        assert report.cross_edges == 1
        assert report.intra_edges_per_tag == {1: 1, 2: 1}

    def test_counts_per_tag(self):
        report = verify_tagged_graph(build_safe_graph())
        assert report.nodes_per_tag == {1: 2, 2: 2}
        assert report.intra_edges_per_tag == {1: 1, 2: 1}


class TestAssertDeadlockFree:
    def test_passes_on_safe_graph(self):
        report = assert_deadlock_free(build_safe_graph())
        assert report.deadlock_free

    def test_raises_with_cycle_diagnostics(self):
        with pytest.raises(VerificationError, match="R1.*cycle"):
            assert_deadlock_free(build_r1_violation())

    def test_raises_on_decreasing_edge(self):
        graph = build_safe_graph()
        src, dst = node("C", 0, 2), node("B", 0, 1)
        graph._out[src].add(dst)
        with pytest.raises(VerificationError, match="R2"):
            assert_deadlock_free(graph)
