"""Tests for match-action rule generation."""

import pytest

from repro.core import (
    INITIAL_TAG,
    LOSSY_TAG,
    ClosTagger,
    MatchActionRule,
    RuleTable,
    bruteforce_tagging,
    clos_updown_elp,
    coverage_report,
    materialize_policy,
    rules_from_tagged_graph,
    rules_to_tagged_graph,
    verify_tagged_graph,
)
from repro.exceptions import RuleError


class TestRuleTable:
    def test_lookup_hits_rule(self):
        table = RuleTable(switch="A")
        table.add(MatchActionRule(tag=1, in_port=0, out_port=1, new_tag=2))
        assert table.lookup(1, 0, 1) == 2

    def test_default_demotes(self):
        table = RuleTable(switch="A")
        assert table.lookup(1, 0, 1) == LOSSY_TAG

    def test_lossy_short_circuits(self):
        table = RuleTable(switch="A", policy=lambda s, i, o, t: 7)
        assert table.lookup(LOSSY_TAG, 0, 1) == LOSSY_TAG

    def test_policy_fallback(self):
        table = RuleTable(switch="A", policy=lambda s, i, o, t: t + 1)
        assert table.lookup(1, 0, 1) == 2
        # Explicit rules win over the policy.
        table.add(MatchActionRule(1, 0, 1, 5))
        assert table.lookup(1, 0, 1) == 5

    def test_conflicting_add_rejected(self):
        table = RuleTable(switch="A")
        table.add(MatchActionRule(1, 0, 1, 2))
        with pytest.raises(RuleError, match="conflicting"):
            table.add(MatchActionRule(1, 0, 1, 3))
        table.add(MatchActionRule(1, 0, 1, 2))  # same action ok

    def test_as_rules_sorted(self):
        table = RuleTable(switch="A")
        table.add(MatchActionRule(2, 0, 1, 2))
        table.add(MatchActionRule(1, 0, 1, 1))
        rules = table.as_rules()
        assert [r.tag for r in rules] == [1, 2]


class TestRulesFromGraph:
    def test_updown_rules_round_trip(self, testbed):
        elp = clos_updown_elp(testbed)
        graph = bruteforce_tagging(testbed, elp)
        report = rules_from_tagged_graph(testbed, graph)
        assert not report.conflicts
        lossless, total, demoted = coverage_report(testbed, report.tables, elp)
        assert lossless == total

    def test_rules_to_graph_matches_edges(self, testbed):
        elp = clos_updown_elp(testbed)
        graph = bruteforce_tagging(testbed, elp)
        report = rules_from_tagged_graph(testbed, graph)
        effective = rules_to_tagged_graph(testbed, report.tables)
        # Every original edge whose destination is a switch survives.
        assert set(effective.edges()) == set(graph.edges())
        assert verify_tagged_graph(effective).deadlock_free


class TestMaterializePolicy:
    def test_clos_policy_materialization(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        table = materialize_policy(testbed, tagger.rewrite, [1, 2])[1]["L1"]
        # Bounce rule present: in from S2, out to S1, tag 1 -> 2.
        in_port = testbed.port_to("L1", "S2")
        out_port = testbed.port_to("L1", "S1")
        assert table.rules[(1, in_port, out_port)] == 2
        # Over-budget bounce is absent (safeguard default demotes).
        assert (2, in_port, out_port) not in table.rules

    def test_host_ingress_restricted_to_initial_tag(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        table = materialize_policy(testbed, tagger.rewrite, [1, 2])[1]["T1"]
        host_port = testbed.port_to("T1", "H1")
        tags_from_host = {
            tag for (tag, in_port, _) in table.rules if in_port == host_port
        }
        assert tags_from_host == {INITIAL_TAG}

    def test_materialized_equals_policy(self, testbed):
        """Explicit rules and the functional policy agree everywhere."""
        tagger = ClosTagger(testbed, max_bounces=1)
        _, tables = materialize_policy(testbed, tagger.rewrite, [1, 2])
        for switch in ("T1", "L1", "S1"):
            table = tables[switch]
            ports = testbed.ports(switch)
            for in_port in ports:
                for out_port in ports:
                    if in_port == out_port:
                        continue
                    for tag in (1, 2):
                        if (
                            testbed.node(ports[in_port]).is_host
                            and tag != INITIAL_TAG
                        ):
                            continue
                        assert table.lookup(tag, in_port, out_port) == (
                            tagger.rewrite(switch, in_port, out_port, tag)
                        )
