"""Tests for rule diffing (incremental updates, paper §6)."""

import pytest

from repro.core import (
    ClosTagger,
    MatchActionRule,
    RuleTable,
    diff_tables,
    materialize_policy,
)
from repro.topology import ClosParams, clos3, expand_clos


def table(switch, rules):
    t = RuleTable(switch=switch)
    for rule in rules:
        t.add(rule)
    return t


class TestDiffBasics:
    def test_identical_tables_empty_diff(self):
        a = {"A": table("A", [MatchActionRule(1, 0, 1, 1)])}
        b = {"A": table("A", [MatchActionRule(1, 0, 1, 1)])}
        assert diff_tables(a, b) == {}

    def test_added_and_removed(self):
        a = {"A": table("A", [MatchActionRule(1, 0, 1, 1)])}
        b = {"A": table("A", [MatchActionRule(1, 0, 2, 1)])}
        diff = diff_tables(a, b)["A"]
        assert diff.added == (((1, 0, 2), 1),)
        assert diff.removed == (((1, 0, 1), 1),)
        assert diff.changed == ()
        assert diff.touch_count == 2

    def test_changed_action(self):
        a = {"A": table("A", [MatchActionRule(1, 0, 1, 1)])}
        b = {"A": table("A", [MatchActionRule(1, 0, 1, 2)])}
        diff = diff_tables(a, b)["A"]
        assert diff.changed == (((1, 0, 1), 1, 2),)

    def test_new_switch_all_adds(self):
        b = {"B": table("B", [MatchActionRule(1, 0, 1, 1)])}
        diff = diff_tables({}, b)["B"]
        assert len(diff.added) == 1 and not diff.removed

    def test_decommissioned_switch_all_removes(self):
        a = {"B": table("B", [MatchActionRule(1, 0, 1, 1)])}
        diff = diff_tables(a, {})["B"]
        assert len(diff.removed) == 1 and not diff.added


class TestExpansionDiff:
    def test_expansion_touches_only_spines_additively(self):
        """The §6 claim as a diff: growing the fabric produces an empty
        diff for every old non-spine switch and a purely additive diff
        for spines."""
        params = ClosParams(hosts_per_tor=1)
        topo = clos3(params)
        old_switches = list(topo.switches)

        def snapshot():
            tagger = ClosTagger(topo, max_bounces=1)
            _, tables = materialize_policy(topo, tagger.rewrite, [1, 2])
            return {switch: tables[switch] for switch in old_switches}

        before = snapshot()
        expand_clos(topo, params, extra_pods=1)
        after = snapshot()
        diffs = diff_tables(before, after)
        for switch, diff in diffs.items():
            assert switch.startswith("S"), f"{switch} should not change"
            assert not diff.removed and not diff.changed
            assert diff.added
