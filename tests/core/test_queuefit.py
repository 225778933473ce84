"""Tests for post-hoc tag fusion (queue-budget fitting)."""

import pytest

from repro.core import (
    ClosTagger,
    TaggerPlan,
    bruteforce_tagging,
    clos_bounce_elp,
    clos_updown_elp,
    coverage_report,
    deterministic_minimize,
    verify_tagged_graph,
)
from repro.core.queuefit import (
    apply_tag_mapping,
    fit_to_queues,
    merge_is_safe,
    remap_tables,
)
from repro.core.rules import RuleTable
from repro.core.tags import TaggedGraph
from repro.exceptions import CapacityError, TaggingError


def node(switch, port, tag):
    return ((switch, port), tag)


class TestMergeIsSafe:
    def test_disjoint_chains_merge(self):
        graph = TaggedGraph()
        graph.add_edge(node("A", 0, 1), node("B", 0, 2))
        assert merge_is_safe(graph, 1, 2)

    def test_cycle_closing_merge_rejected(self):
        graph = TaggedGraph()
        # tag 1: A -> B; tag 2: B -> A. Fused: A -> B -> A.
        graph.add_edge(node("A", 0, 1), node("B", 0, 1))
        graph.add_edge(node("B", 0, 2), node("A", 0, 2))
        graph.add_edge(node("B", 0, 1), node("B", 0, 2))
        assert not merge_is_safe(graph, 1, 2)

    def test_bad_order_rejected(self):
        graph = TaggedGraph()
        graph.add_node(node("A", 0, 1))
        with pytest.raises(TaggingError):
            merge_is_safe(graph, 2, 1)


class TestApplyMapping:
    def test_renumber(self):
        graph = TaggedGraph()
        graph.add_edge(node("A", 0, 1), node("B", 0, 3))
        out = apply_tag_mapping(graph, {1: 1, 3: 2})
        assert out.tags() == [1, 2]
        assert out.has_edge(node("A", 0, 1), node("B", 0, 2))

    def test_non_monotone_rejected(self):
        graph = TaggedGraph()
        graph.add_node(node("A", 0, 1))
        graph.add_node(node("B", 0, 2))
        with pytest.raises(TaggingError, match="monotone"):
            apply_tag_mapping(graph, {1: 2, 2: 1})


class TestFitToQueues:
    def test_bruteforce_updown_collapses_fully(self, testbed):
        bf = bruteforce_tagging(testbed, clos_updown_elp(testbed))
        assert bf.num_tags == 4
        for target in (3, 2, 1):
            fused, mapping = fit_to_queues(bf, target)
            assert fused.num_tags == target
            assert verify_tagged_graph(fused).deadlock_free
            assert set(mapping) == set(bf.tags())

    def test_identity_when_already_fitting(self, testbed):
        bf = bruteforce_tagging(testbed, clos_updown_elp(testbed))
        fused, mapping = fit_to_queues(bf, 8)
        assert fused == bf
        assert all(k == v for k, v in mapping.items())

    def test_fig6_gap_is_structural(self, testbed):
        """The generic 3-tag Clos 1-bounce scheme cannot be pairwise-fused
        to the optimal 2 — the greedy's class boundaries do not align
        with the pre/post-bounce cut the hand-crafted scheme uses. This
        confirms the paper's point that Algorithm 2's suboptimality on
        Clos is not a bookkeeping artifact."""
        elp = clos_bounce_elp(testbed, 1)
        det = deterministic_minimize(testbed, bruteforce_tagging(testbed, elp))
        assert det.num_tags == 3
        with pytest.raises(CapacityError):
            fit_to_queues(det.graph, 2)
        # ... while the topology-aware scheme does it with 2.
        assert ClosTagger(testbed, max_bounces=1).num_lossless_tags == 2

    def test_refusal_claims_no_lower_bound(self, testbed):
        """The greedy fit gives up on the testbed bounce ELP at 2 queues,
        yet 2 tags carry that ELP under ``for_clos``: the refusal must
        not read as a proof of impossibility."""
        elp = clos_bounce_elp(testbed, 1)
        plan = TaggerPlan.from_elp(testbed, elp)
        with pytest.raises(CapacityError, match="no lower bound proved"):
            plan.fit_to_queues(2)
        clos = TaggerPlan.for_clos(testbed, 1)
        assert clos.num_lossless_queues == 2
        assert clos.coverage(elp) == 1.0

    def test_bad_budget(self, testbed):
        bf = bruteforce_tagging(testbed, clos_updown_elp(testbed))
        with pytest.raises(TaggingError):
            fit_to_queues(bf, 0)


class TestRemapTables:
    def test_rules_renumbered_and_coverage_kept(self, testbed):
        elp = clos_updown_elp(testbed)
        det = deterministic_minimize(testbed, bruteforce_tagging(testbed, elp))
        fused, mapping = fit_to_queues(det.graph, 1)
        tables = remap_tables(det.tables, mapping)
        lossless, total, _ = coverage_report(testbed, tables, elp)
        assert lossless == total
        for table in tables.values():
            for (tag, _, _), new_tag in table.rules.items():
                assert tag == 1 and new_tag == 1

    def test_conflicting_remap_rejected(self):
        table = RuleTable(switch="A")
        table.rules[(1, 0, 1)] = 1
        table.rules[(2, 0, 1)] = 3
        with pytest.raises(TaggingError, match="conflicting"):
            remap_tables({"A": table}, {1: 1, 2: 1, 3: 2})
