"""The deployment linter: static certification of compiled rule tables.

:func:`lint_artifact` is the entry point. It consumes a
:class:`~repro.lint.artifact.DeploymentArtifact` — rule tables, ordered
TCAM programs, queue map, topology — and re-derives every safety and
hygiene property from those artifacts alone, without trusting the
planner that produced them:

1. **T-family** (:mod:`repro.lint.graph_checks`) certifies Theorem
   5.1's R1 + R2: by the rank potential (:mod:`repro.potential`) when
   every table respects it, else by reconstructing the effective tagged
   graph and searching every tag for a cycle;
2. **S-family** (:mod:`repro.lint.tcam_checks`) checks first-match TCAM
   order semantics and round-trip equivalence;
3. **R-family** (:mod:`repro.lint.reach_checks`) explores reachable
   packet states to find dead rules, unreachable tags, and lossy dead
   ends;
4. **B-family** (:mod:`repro.lint.budget_checks`) enforces TCAM budgets
   and queue-fit consistency.

A lint runs in two stages. The **per-switch stage** turns each table
into a :class:`~repro.lint.graph_checks.RuleSection` (T002-T004, the
table's ``(tag, in_port)`` continuation index) and its program into a
:class:`~repro.lint.tcam_checks.ProgramSection` (compilation,
S101-S105; B301 reads its length). A section is a function of the
rules, the switch's port set and the explicit program, and of nothing
else — no wiring, no switch name — so every lint resolves sections
through a :class:`LintSections` keyed by that content: a Clos layer of
equal tables is validated and compiled once, and a rollout's
wave-boundary verdicts and final ground-truth lint share one object
across switches and lints alike. The **fabric-wide stage** stamps each
section's findings with its switch and joins the sections through the
wiring: T001, the R201-R203 closure and B302. Each content also keeps
its φ verdict per rise vector, so a fabric whose every table respects
φ settles T001 without building a graph; any other runs the cycle
search.

A report with zero error-severity findings is a certificate that the
deployed configuration is deadlock-free and faithful to its own
compressed form.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.core.compression import TcamEntry, tcam_program
from repro.core.pipeline import QueueMap
from repro.core.rules import MatchKey, RuleTable
from repro.exceptions import LintError
from repro.lint.artifact import DeploymentArtifact, TaggerPlanLike
from repro.lint.budget_checks import check_budget, check_queue_fit
from repro.lint.diagnostics import LintReport
from repro.lint.graph_checks import Ports, RuleSection, check_graph, rule_section, switch_ports
from repro.lint.reach_checks import check_reachability
from repro.lint.tcam_checks import ProgramSection, check_tcam, program_section
from repro.potential import Rule, port_rise, table_violation
from repro.topology.base import Topology

#: What a section is keyed by: the rules themselves, never the
#: ``RuleTable`` object (tables are mutable, and a rollout's final lint
#: reads fresh objects back from the agents).
RuleContent = FrozenSet[Tuple[MatchKey, int]]

#: A content's program sections per explicit program (``None``: the
#: compiled one).
Programs = Dict[Optional[Tuple[TcamEntry, ...]], ProgramSection]

#: A rise vector as a key: ``(port, rise)`` pairs in port order.
RiseKey = Tuple[Tuple[int, int], ...]

#: The verdict of a switch with no rise vector: φ cannot judge it.
NO_RISE = "no rise vector"

#: A switch's φ verdict: None when every rule respects φ, the first rule
#: that lowers it, or :data:`NO_RISE`.
Verdict = Union[None, Rule, str]


class LintSections:
    """Sections keyed by content, shared by every switch and every lint
    of one fabric that resolve through them.

    Valid for one topology whose wiring does not change while the
    object lives. ``built`` / ``reused`` count per-switch resolutions
    that built a section vs found every one it needed, for telemetry.

    Each content also keeps its φ verdicts (:mod:`repro.potential`),
    one per rise vector it was judged under: a table is checked against
    the rank potential once per (rules, port set, rise vector), however
    many switches and lints hold it. Every cache here lives exactly as
    long as the object.
    """

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self.built = 0
        self.reused = 0
        #: (rules, port set) -> its sections and φ verdicts.
        self._sections: Dict[Tuple[RuleContent, Ports], _Entry] = {}
        #: switch -> its rise vector (None: the switch has no layer, or
        #: faces a node without one).
        self._rises: Dict[str, Optional[RiseKey]] = {}

    def resolve(
        self,
        switch: str,
        table: Optional[RuleTable],
        given: Optional[Tuple[TcamEntry, ...]] = None,
    ) -> Tuple[Optional[RuleSection], ProgramSection, Verdict]:
        """One switch's rule section (None without a table), program
        section and φ verdict, looked up by content before any is built
        — the per-switch stage of a lint.

        ``given`` is the switch's explicit program; without it the
        program section certifies the one compiled from ``table``.
        """
        reference = table if table is not None else RuleTable(switch=switch)
        entry, ports, built = self._entry(switch, reference)
        program = entry.programs.get(given)
        if program is None:
            program = entry.programs[given] = program_section(
                reference.rules,
                tcam_program(reference, ports or ()) if given is None else given,
                ports or frozenset(),
            )
            built = True
        self._count(built)
        rule = entry.rule if table is not None else None
        return rule, program, self._verdict(switch, entry, reference.rules)

    def resolve_rules(self, switch: str, table: RuleTable) -> Tuple[RuleSection, Verdict]:
        """The rule section and φ verdict alone, for a switch whose
        table is linted but whose program is not under test: no program
        is compiled."""
        entry, _ports, built = self._entry(switch, table)
        self._count(built)
        return entry.rule, self._verdict(switch, entry, table.rules)

    def _count(self, built: bool) -> None:
        self.built += built
        self.reused += not built

    def _verdict(self, switch: str, entry: "_Entry", rules: Mapping[MatchKey, int]) -> Verdict:
        """The φ verdict of ``rules`` (``entry``'s content) on ``switch``."""
        if switch not in self._rises:
            rise = port_rise(self.topo, switch)
            self._rises[switch] = None if rise is None else tuple(sorted(rise.items()))
        rise_key = self._rises[switch]
        if rise_key is None:
            return NO_RISE
        if rise_key not in entry.verdicts:
            entry.verdicts[rise_key] = table_violation(rules, dict(rise_key))
        return entry.verdicts[rise_key]

    def _entry(self, switch: str, reference: RuleTable) -> Tuple["_Entry", Ports, bool]:
        """The content's entry, and whether its rule section was built
        now."""
        ports = switch_ports(self.topo, switch)
        key = (frozenset(reference.rules.items()), ports)
        entry = self._sections.get(key)
        built = entry is None
        if entry is None:
            entry = self._sections[key] = _Entry(rule_section(reference.rules, ports))
        return entry, ports, built


class _Entry:
    """One content's rule section, its program sections and its φ
    verdicts per rise vector."""

    __slots__ = ("rule", "programs", "verdicts")

    def __init__(self, rule: RuleSection) -> None:
        self.rule = rule
        self.programs: Programs = {}
        self.verdicts: Dict[RiseKey, Verdict] = {}


def _switch_sections(
    artifact: DeploymentArtifact, sections: LintSections
) -> Tuple[Dict[str, RuleSection], Dict[str, ProgramSection], Dict[str, Verdict]]:
    """The per-switch stage, in sorted switch order: every switch's
    sections, resolved through ``sections`` (looked up by content, built
    once per distinct content, kept), and every tabled switch's φ
    verdict."""
    tables = artifact.tables
    explicit = artifact.programs
    programmed: Set[str] = set(tables if explicit is None else explicit)
    rule_sections: Dict[str, RuleSection] = {}
    program_sections: Dict[str, ProgramSection] = {}
    verdicts: Dict[str, Verdict] = {}
    for switch in sorted(programmed.union(tables)):
        if switch not in programmed:
            rule_sections[switch], verdicts[switch] = sections.resolve_rules(
                switch, tables[switch]
            )
            continue
        given = tuple(explicit[switch]) if explicit is not None else None
        rule, program, verdict = sections.resolve(switch, tables.get(switch), given)
        if rule is not None:
            rule_sections[switch] = rule
            verdicts[switch] = verdict
        program_sections[switch] = program
    return rule_sections, program_sections, verdicts


def lint_artifact(
    artifact: DeploymentArtifact,
    sections: Optional[LintSections] = None,
) -> LintReport:
    """Run every check family over a deployment artifact.

    ``sections`` lets the lints of one rollout share their per-switch
    stage; without it the lint keys its own. The report is the same.
    """
    topo = artifact.topo
    if sections is None:
        sections = LintSections(topo)
    elif sections.topo is not topo:
        raise LintError("LintSections belong to a different topology")
    report = LintReport()
    tables = artifact.tables
    report.stats["switches"] = len(tables)
    report.stats["rules"] = sum(len(t.rules) for t in tables.values())
    rule_sections, program_sections, verdicts = _switch_sections(artifact, sections)

    graph_diags, graph_stats = check_graph(topo, tables, rule_sections, verdicts)
    report.extend(graph_diags)
    report.stats.update(graph_stats)

    programs: Dict[str, Sequence[TcamEntry]] = {
        switch: section.program for switch, section in program_sections.items()
    }
    # Port sets are a per-switch-stage input; every section exists.
    tcam_diags, tcam_stats = check_tcam({}, tables, programs, program_sections)
    report.extend(tcam_diags)
    report.stats.update(tcam_stats)
    report.extend(check_budget(programs, artifact.tcam_budget))

    reach_diags, reach_stats, live_tags = check_reachability(
        topo, tables, artifact.queue_map, rule_sections
    )
    report.extend(reach_diags)
    report.stats.update(reach_stats)
    report.extend(check_queue_fit(live_tags, artifact.queue_map))

    return report


def lint_tables(
    topo: Topology,
    tables: Dict[str, RuleTable],
    queue_map: Optional[QueueMap] = None,
    sections: Optional[LintSections] = None,
) -> LintReport:
    """Convenience wrapper: lint bare rule tables."""
    artifact = DeploymentArtifact(
        topo=topo, tables=tables, queue_map=queue_map
    )
    return lint_artifact(artifact, sections)


def lint_plan(plan: TaggerPlanLike) -> LintReport:
    """Lint the deployable artifact of a planner result.

    Only the plan's *artifacts* (tables, queue map, topology) are read;
    its tagged graph is deliberately ignored.
    """
    return lint_artifact(DeploymentArtifact.from_plan(plan))
