"""Tests for the rule-realizable (deterministic) tag minimization.

These tests document the finding described in ``repro/core/determinize.py``:
the paper's Algorithm 2, taken literally, can assign the same
``(tag, InPort, OutPort)`` match key two different rewrites, which no rule
table can express. The deterministic variant never does, at equal tag cost
on all evaluated topologies, and preserves full ELP coverage.
"""

import pytest

from repro.core import (
    bruteforce_tagging,
    clos_bounce_elp,
    clos_updown_elp,
    coverage_report,
    deterministic_minimize,
    greedy_minimize,
    rules_from_tagged_graph,
    verify_tagged_graph,
)
from repro.exceptions import TaggingError
from repro.topology import jellyfish, testbed_clos


class TestPaperGreedyConflicts:
    def test_paper_greedy_produces_rule_conflicts_on_bounce_elp(self, testbed):
        """The motivating defect: Algorithm 2 output is not rule-realizable."""
        elp = clos_bounce_elp(testbed, 1)
        graph = greedy_minimize(bruteforce_tagging(testbed, elp))
        report = rules_from_tagged_graph(testbed, graph)
        assert report.conflicts, "expected conflicts (documented defect)"


class TestDeterministicMinimize:
    def test_no_conflicts_by_construction(self, testbed):
        elp = clos_bounce_elp(testbed, 1)
        result = deterministic_minimize(testbed, bruteforce_tagging(testbed, elp))
        # Rules came straight from the transition function: re-generating
        # them from the graph cannot conflict.
        for table in result.tables.values():
            assert len(table) == len(set(table.rules))

    def test_full_coverage_on_bounce_elp(self, testbed):
        elp = clos_bounce_elp(testbed, 1)
        result = deterministic_minimize(testbed, bruteforce_tagging(testbed, elp))
        lossless, total, demoted = coverage_report(testbed, result.tables, elp)
        assert total == len(elp)
        assert lossless == total, f"demoted: {demoted[:3]}"

    def test_tag_count_matches_paper_greedy(self, testbed):
        """3 tags on the 1-bounce Clos ELP, like Algorithm 2 (Fig. 6)."""
        elp = clos_bounce_elp(testbed, 1)
        bf = bruteforce_tagging(testbed, elp)
        assert deterministic_minimize(testbed, bf).num_tags == 3

    def test_updown_single_tag(self, testbed):
        elp = clos_updown_elp(testbed)
        bf = bruteforce_tagging(testbed, elp)
        result = deterministic_minimize(testbed, bf)
        assert result.num_tags == 1
        assert result.contradictions == 0

    def test_graph_is_deadlock_free(self, testbed):
        elp = clos_bounce_elp(testbed, 1)
        result = deterministic_minimize(testbed, bruteforce_tagging(testbed, elp))
        assert verify_tagged_graph(result.graph).deadlock_free

    def test_jellyfish_coverage_and_tags(self):
        from repro.core import jellyfish_elp

        topo = jellyfish(20, 8, hosts_per_switch=0, seed=2)
        elp = jellyfish_elp(topo)
        result = deterministic_minimize(topo, bruteforce_tagging(topo, elp))
        lossless, total, _ = coverage_report(topo, result.tables, elp)
        assert lossless == total
        assert result.num_tags <= 3  # paper Table 5 regime

    def test_empty_rejected(self, testbed):
        from repro.core import TaggedGraph

        with pytest.raises(TaggingError):
            deterministic_minimize(testbed, TaggedGraph())

    def test_deterministic_output(self, testbed):
        elp = clos_bounce_elp(testbed, 1)
        a = deterministic_minimize(testbed, bruteforce_tagging(testbed, elp))
        b = deterministic_minimize(testbed, bruteforce_tagging(testbed, elp))
        assert a.node_class == b.node_class
        assert {s: t.rules for s, t in a.tables.items()} == {
            s: t.rules for s, t in b.tables.items()
        }


#: Contradiction cases -> bounce budget of the testbed Clos ELP (None:
#: Jellyfish). They have 2 or 3 classes, and the 1-bounce Clos and the
#: Jellyfish graphs have contradictions.
CONTRADICTION_CASES = {"clos-1-bounce": 1, "clos-2-bounce": 2, "jellyfish": None}


def _case_graph(name):
    from repro.core import jellyfish_elp

    bounces = CONTRADICTION_CASES[name]
    if bounces is None:
        topo = jellyfish(20, 8, hosts_per_switch=0, seed=2)
        return topo, bruteforce_tagging(topo, jellyfish_elp(topo))
    topo = testbed_clos()
    return topo, bruteforce_tagging(topo, clos_bounce_elp(topo, bounces))


class TestResumeDifferential:
    """The multi-class corpus the merge's fallback branch is pinned on:
    the up-down incremental suite (one class) never reaches it."""

    def test_cases_reach_contradictions(self):
        counts = {
            name: deterministic_minimize(*_case_graph(name)).contradictions
            for name in CONTRADICTION_CASES
        }
        assert counts["clos-1-bounce"] > 0 and counts["jellyfish"] > 0
