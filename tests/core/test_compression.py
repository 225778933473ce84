"""Tests for TCAM bitmap compression (paper §7, Fig. 9)."""

import pytest

from repro.core import (
    ClosTagger,
    MatchActionRule,
    RuleTable,
    compress_in_ports,
    compress_joint,
    compression_stats,
    expand,
    first_match,
    materialize_policy,
    safeguard_entry,
    tcam_program,
)
from repro.core.compression import TcamEntry
from repro.core.tags import LOSSY_TAG
from repro.exceptions import RuleError


def make_rules():
    """The Fig. 9 example: three rules differing only in InPort."""
    return [
        MatchActionRule(tag=1, in_port=1, out_port=0, new_tag=1),
        MatchActionRule(tag=1, in_port=2, out_port=0, new_tag=1),
        MatchActionRule(tag=1, in_port=3, out_port=0, new_tag=1),
    ]


class TestInPortAggregation:
    def test_fig9_compresses_to_one_entry(self):
        entries = compress_in_ports(make_rules())
        assert len(entries) == 1
        entry = entries[0]
        assert entry.in_ports == frozenset({1, 2, 3})
        assert entry.out_ports == frozenset({0})

    def test_different_actions_not_merged(self):
        rules = make_rules() + [MatchActionRule(1, 4, 0, 2)]
        entries = compress_in_ports(rules)
        assert len(entries) == 2

    def test_round_trip(self):
        rules = sorted(make_rules(), key=lambda r: r.key)
        assert expand(compress_in_ports(rules)) == rules


class TestJointAggregation:
    def test_cross_product_merges(self):
        rules = [
            MatchActionRule(1, i, o, 1) for i in (1, 2) for o in (3, 4)
        ]
        joint = compress_joint(rules)
        assert len(joint) == 1
        assert joint[0].in_ports == frozenset({1, 2})
        assert joint[0].out_ports == frozenset({3, 4})

    def test_non_product_stays_split(self):
        rules = [
            MatchActionRule(1, 1, 3, 1),
            MatchActionRule(1, 2, 4, 1),
        ]
        joint = compress_joint(rules)
        assert len(joint) == 2

    def test_round_trip_on_real_tables(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        _, tables = materialize_policy(testbed, tagger.rewrite, [1, 2])
        for table in tables.values():
            rules = table.as_rules()
            assert expand(compress_joint(rules)) == rules
            assert expand(compress_in_ports(rules)) == rules

    def test_monotone_improvement(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        _, tables = materialize_policy(testbed, tagger.rewrite, [1, 2])
        for switch in ("T1", "L1", "S1"):
            stats = compression_stats(tables[switch])
            assert (
                stats.joint_aggregated
                <= stats.in_port_aggregated
                <= stats.uncompressed
            )
            assert 0 < stats.ratio <= 1


class TestTcamEntry:
    def test_matches(self):
        entry = TcamEntry(1, frozenset({1, 2}), frozenset({0}), 1)
        assert entry.matches(1, 1, 0)
        assert not entry.matches(2, 1, 0)
        assert not entry.matches(1, 3, 0)
        assert entry.covered_rules == 2

    def test_bitmaps(self):
        entry = TcamEntry(1, frozenset({0, 2}), frozenset({1}), 1)
        assert entry.in_port_bitmap(4) == 0b0101
        assert entry.out_port_bitmap(4) == 0b0010
        with pytest.raises(RuleError, match="exceeds"):
            entry.in_port_bitmap(2)

    def test_expand_rejects_ambiguity(self):
        entries = [
            TcamEntry(1, frozenset({1}), frozenset({0}), 1),
            TcamEntry(1, frozenset({1}), frozenset({0}), 2),
        ]
        with pytest.raises(RuleError, match="ambiguous"):
            expand(entries)

    def test_wildcard_matches_any_tag(self):
        guard = safeguard_entry({1, 2})
        assert guard.is_wildcard
        assert guard.matches(1, 1, 2)
        assert guard.matches(17, 2, 1)
        assert not guard.matches(1, 3, 1)  # port outside the bitmap


class TestOrderedPrograms:
    def make_table(self):
        return RuleTable(
            switch="A",
            rules={(1, 1, 2): 1, (1, 3, 2): 1, (2, 1, 2): 2},
        )

    def test_program_ends_with_safeguard(self):
        program = tcam_program(self.make_table(), {1, 2, 3})
        assert program[-1].is_wildcard
        assert program[-1].new_tag == LOSSY_TAG
        assert program[-1].in_ports == frozenset({1, 2, 3})
        assert all(not e.is_wildcard for e in program[:-1])

    def test_first_match_agrees_with_exact_lookup(self):
        table = self.make_table()
        program = tcam_program(table, {1, 2, 3})
        for key, new_tag in table.rules.items():
            assert first_match(program, *key) == new_tag
        # Unmatched keys hit the safeguard and demote.
        assert first_match(program, 5, 1, 2) == LOSSY_TAG
        assert first_match(program, 1, 2, 3) == LOSSY_TAG

    def test_first_match_respects_entry_order(self):
        overlapping = [
            TcamEntry(1, frozenset({1, 2}), frozenset({3}), 1),
            TcamEntry(1, frozenset({2, 4}), frozenset({3}), 2),
        ]
        # (1, 2, 3) matches both; the first entry must win.
        assert first_match(overlapping, 1, 2, 3) == 1
        assert first_match(overlapping[::-1], 1, 2, 3) == 2
        # Keys covered by only one entry are order-independent.
        assert first_match(overlapping, 1, 4, 3) == 2

    def test_first_match_without_safeguard_returns_none(self):
        program = [TcamEntry(1, frozenset({1}), frozenset({2}), 1)]
        assert first_match(program, 2, 1, 2) is None

    def test_expand_skips_safeguard_demote(self):
        table = self.make_table()
        program = tcam_program(table, {1, 2, 3})
        rules = expand(program)
        assert rules == table.as_rules()

    def test_expand_rejects_wildcard_promote(self):
        promoting = TcamEntry(None, frozenset({1}), frozenset({2}), 1)
        with pytest.raises(RuleError, match="wildcard"):
            expand([promoting])

    def test_program_round_trip_on_real_tables(self, testbed):
        tagger = ClosTagger(testbed, max_bounces=1)
        _, tables = materialize_policy(testbed, tagger.rewrite, [1, 2])
        for switch, table in tables.items():
            ports = set(testbed.ports(switch))
            program = tcam_program(table, ports)
            assert expand(program) == table.as_rules()
            for key, new_tag in table.rules.items():
                assert first_match(program, *key) == new_tag
