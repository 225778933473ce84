"""S-family: first-match order semantics of ordered TCAM programs."""

from repro.core.compression import TcamEntry, safeguard_entry, tcam_program
from repro.core.rules import RuleTable
from repro.lint.diagnostics import Severity
from repro.lint.tcam_checks import check_tcam

PORTS = {"A": {1, 2, 3, 4}}


def entry(tag, in_ports, out_ports, new_tag):
    return TcamEntry(
        tag=tag,
        in_ports=frozenset(in_ports),
        out_ports=frozenset(out_ports),
        new_tag=new_tag,
    )


def run(table_rules, program):
    tables = {"A": RuleTable(switch="A", rules=table_rules)}
    diagnostics, stats = check_tcam(PORTS, tables, {"A": program})
    return diagnostics, stats


def codes(diagnostics):
    return {d.code for d in diagnostics}


class TestCleanProgram:
    def test_compiled_program_is_clean(self):
        rules = {(1, 1, 2): 1, (1, 3, 2): 1, (2, 1, 2): 2}
        table = RuleTable(switch="A", rules=rules)
        program = tcam_program(table, PORTS["A"])
        diagnostics, stats = run(rules, program)
        assert diagnostics == []
        assert stats["tcam_entries"] == len(program)


class TestS101ShadowedEntry:
    def test_conflicting_shadow_is_an_error(self):
        rules = {(1, 1, 2): 2}
        program = [
            entry(1, {1}, {2}, 2),
            entry(1, {1}, {2}, 1),  # fully covered, different rewrite
            safeguard_entry(PORTS["A"]),
        ]
        diagnostics, _ = run(rules, program)
        s101 = [d for d in diagnostics if d.code == "S101"]
        assert s101 and s101[0].severity is Severity.ERROR

    def test_redundant_shadow_is_a_warning(self):
        rules = {(1, 1, 2): 2}
        program = [
            entry(1, {1}, {2}, 2),
            entry(1, {1}, {2}, 2),  # identical: harmless but dead
            safeguard_entry(PORTS["A"]),
        ]
        diagnostics, _ = run(rules, program)
        s101 = [d for d in diagnostics if d.code == "S101"]
        assert s101 and s101[0].severity is Severity.WARNING

    def test_wildcard_above_explicit_entry(self):
        """The paper's safeguard placed anywhere but last shadows every
        entry after it — the exact bug tcam_shadow injects."""
        rules = {(1, 1, 2): 1}
        program = [
            safeguard_entry(PORTS["A"]),
            entry(1, {1}, {2}, 1),
        ]
        diagnostics, _ = run(rules, program)
        assert "S101" in codes(diagnostics)
        assert "S104" in codes(diagnostics)  # (1,1,2) now demotes


class TestS102ConflictingOverlap:
    def test_partial_overlap_with_different_rewrite(self):
        rules = {(1, 1, 3): 1, (1, 2, 3): 1, (1, 4, 3): 2}
        program = [
            entry(1, {1, 2}, {3}, 1),
            entry(1, {2, 4}, {3}, 2),  # overlaps on (1,2,3)
            safeguard_entry(PORTS["A"]),
        ]
        diagnostics, _ = run(rules, program)
        assert "S102" in codes(diagnostics)

    def test_trailing_safeguard_never_reported_as_overlap(self):
        rules = {(1, 1, 2): 1}
        program = [entry(1, {1}, {2}, 1), safeguard_entry(PORTS["A"])]
        diagnostics, _ = run(rules, program)
        assert "S102" not in codes(diagnostics)


class TestS103UnreachableEntry:
    def test_union_covered_entry(self):
        rules = {(1, 1, 3): 1, (1, 2, 3): 1}
        program = [
            entry(1, {1}, {3}, 1),
            entry(1, {2}, {3}, 1),
            entry(1, {1, 2}, {3}, 1),  # no single cover, union covers
            safeguard_entry(PORTS["A"]),
        ]
        diagnostics, _ = run(rules, program)
        assert "S103" in codes(diagnostics)
        assert "S101" not in codes(diagnostics)


class TestS104RoundtripMismatch:
    def test_missing_entry_detected(self):
        rules = {(1, 1, 2): 1}
        program = [safeguard_entry(PORTS["A"])]  # forgot the rule
        diagnostics, _ = run(rules, program)
        s104 = [d for d in diagnostics if d.code == "S104"]
        assert s104 and s104[0].severity is Severity.ERROR

    def test_extra_entry_detected(self):
        rules = {}
        program = [entry(1, {1}, {2}, 1), safeguard_entry(PORTS["A"])]
        diagnostics, _ = run(rules, program)
        assert "S104" in codes(diagnostics)

    def test_wildcard_promote_detected(self):
        rules = {}
        program = [
            entry(None, PORTS["A"], PORTS["A"], 1),  # promotes by default
            safeguard_entry(PORTS["A"]),
        ]
        diagnostics, _ = run(rules, program)
        assert "S104" in codes(diagnostics)

    @staticmethod
    def summary(rules, program):
        diagnostics, _ = run(rules, program)
        return [
            d.message
            for d in diagnostics
            if d.code == "S104" and d.location is None
        ]

    def test_wildcard_claims_keys_ahead_of_later_entries(self):
        """First match is ordered: a mid-program wildcard demote wins
        every key it covers that no earlier entry claimed."""
        rules = {(1, 1, 2): 1, (2, 1, 2): 2}
        program = [
            entry(1, {1}, {2}, 1),
            entry(None, {1, 2}, {2}, 0),
            entry(2, {1}, {2}, 2),
            safeguard_entry(PORTS["A"]),
        ]
        assert self.summary(rules, program) == [
            "1 match key(s) diverge from the exact-rule reference, e.g. "
            "key (2, 1, 2): program gives 0, reference rules give 2"
        ]

    def test_keys_absent_from_reference_checked_in_program_order(self):
        program = [entry(1, {1}, {2, 3}, 1), safeguard_entry(PORTS["A"])]
        assert self.summary({}, program) == [
            "2 match key(s) diverge from the exact-rule reference, e.g. "
            "key (1, 1, 2): program gives 1, reference rules give 0"
        ]

    def test_unmatched_reference_key_without_safeguard(self):
        rules = {(1, 1, 2): 1, (3, 4, 4): 3}
        program = [entry(1, {1}, {2}, 1)]
        assert self.summary(rules, program) == [
            "1 match key(s) diverge from the exact-rule reference, e.g. "
            "key (3, 4, 4): program gives no match, reference rules give 3"
        ]

    def test_identical_wildcard_promotes_located_separately(self):
        """``TcamEntry`` compares by value: two equal entries are still
        two TCAM slots, and each is reported at its own index."""
        promote = entry(None, PORTS["A"], PORTS["A"], 1)
        program = [promote, entry(None, PORTS["A"], PORTS["A"], 1)]
        assert program[0] == program[1]
        diagnostics, _ = run({}, program + [safeguard_entry(PORTS["A"])])
        locations = [
            d.location
            for d in diagnostics
            if d.code == "S104" and d.location is not None
        ]
        assert len(locations) == 2
        assert locations[0].startswith("entry#0(")
        assert locations[1].startswith("entry#1(")


class TestS105MissingSafeguard:
    def test_program_without_safeguard(self):
        rules = {(1, 1, 2): 1}
        program = [entry(1, {1}, {2}, 1)]
        diagnostics, _ = run(rules, program)
        assert "S105" in codes(diagnostics)

    def test_empty_program(self):
        diagnostics, _ = run({}, [])
        assert "S105" in codes(diagnostics)

    def test_partial_port_coverage_rejected(self):
        rules = {}
        program = [entry(None, {1, 2}, {1, 2}, 0)]  # misses ports 3, 4
        diagnostics, _ = run(rules, program)
        assert "S105" in codes(diagnostics)
