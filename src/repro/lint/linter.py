"""The deployment linter: static certification of compiled rule tables.

:func:`lint_artifact` is the entry point. It consumes a
:class:`~repro.lint.artifact.DeploymentArtifact` — rule tables, ordered
TCAM programs, queue map, topology — and re-derives every safety and
hygiene property from those artifacts alone, without trusting the
planner that produced them:

1. **T-family** (:mod:`repro.lint.graph_checks`) reconstructs the
   effective tagged graph and certifies Theorem 5.1's R1 + R2;
2. **S-family** (:mod:`repro.lint.tcam_checks`) checks first-match TCAM
   order semantics and round-trip equivalence;
3. **R-family** (:mod:`repro.lint.reach_checks`) explores reachable
   packet states to find dead rules, unreachable tags, and lossy dead
   ends;
4. **B-family** (:mod:`repro.lint.budget_checks`) enforces TCAM budgets
   and queue-fit consistency.

A lint runs in two stages. The **per-switch stage** turns each switch's
table into a :class:`~repro.lint.graph_checks.RuleSection` (T002-T004,
the switch's graph edges and ``(tag, in_port)`` continuation index) and
its program into a :class:`~repro.lint.tcam_checks.ProgramSection`
(compilation, S101-S105; B301 reads its length). The **fabric-wide
stage** consumes the sections: T001's cycle search, the R201-R203
closure and B302. A section depends only on the wiring and that one
switch's content, so lints of the same fabric that pass the same
:class:`LintSections` — the wave boundaries and final ground-truth lint
of one rollout — build a section once per distinct content and reuse it.
A lint given no :class:`LintSections` runs the same two stages and keeps
nothing.

A report with zero error-severity findings is a certificate that the
deployed configuration is deadlock-free and faithful to its own
compressed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from repro.core.compression import TcamEntry, tcam_program
from repro.core.pipeline import QueueMap
from repro.core.rules import MatchKey, RuleTable
from repro.exceptions import LintError
from repro.lint.artifact import DeploymentArtifact, TaggerPlanLike
from repro.lint.budget_checks import check_budget, check_queue_fit
from repro.lint.diagnostics import LintReport
from repro.lint.graph_checks import RuleSection, check_graph, rule_section
from repro.lint.reach_checks import check_reachability
from repro.lint.tcam_checks import ProgramSection, check_tcam, program_section
from repro.topology.base import Topology

#: What a section is keyed by: the rules themselves, never the
#: ``RuleTable`` object (tables are mutable, and a rollout's final lint
#: reads fresh objects back from the agents).
RuleContent = FrozenSet[Tuple[MatchKey, int]]


@dataclass(frozen=True)
class LintConfig:
    """Knobs for one lint run (all checks on by default)."""

    tcam_budget: Optional[int] = None
    check_tcam: bool = True
    check_reach: bool = True


class LintSections:
    """Per-switch sections shared by several lints of one fabric.

    Valid for one topology whose wiring does not change while the
    object lives. ``built`` / ``reused`` count per-switch resolutions
    (one per switch per lint), for telemetry.
    """

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self.built = 0
        self.reused = 0
        self._rules: Dict[Tuple[str, RuleContent], RuleSection] = {}
        self._programs: Dict[
            Tuple[str, RuleContent, Optional[Tuple[TcamEntry, ...]]],
            ProgramSection,
        ] = {}


def _program_section(
    topo: Topology,
    switch: str,
    table: Optional[RuleTable],
    given: Optional[Tuple[TcamEntry, ...]],
) -> ProgramSection:
    """S-family section of the ``given`` program, or of the one compiled
    here from ``table`` — linting then certifies the compiler's output."""
    reference = table if table is not None else RuleTable(switch=switch)
    return program_section(
        switch,
        reference,
        tcam_program(reference, topo.ports(switch)) if given is None else given,
        set(topo.ports(switch)) if switch in topo.nodes else set(),
    )


def _switch_sections(
    artifact: DeploymentArtifact,
    with_programs: bool,
    shared: Optional[LintSections],
) -> Tuple[Dict[str, RuleSection], Dict[str, ProgramSection]]:
    """The per-switch stage, in sorted switch order.

    With ``shared``, each section is looked up by content before it is
    built, and kept. Without, nothing is keyed and nothing outlives the
    lint: hashing every rule of a 1024-ToR fabric costs a one-shot lint
    0.2-0.4 s and 16 MB it has no use for.
    """
    topo = artifact.topo
    tables = artifact.tables
    explicit = artifact.programs
    programmed: Set[str] = set()
    if with_programs:
        programmed.update(tables if explicit is None else explicit)
    rule_sections: Dict[str, RuleSection] = {}
    program_sections: Dict[str, ProgramSection] = {}
    for switch in sorted(programmed.union(tables)):
        table = tables.get(switch)
        given = (
            tuple(explicit[switch])
            if explicit is not None and switch in programmed
            else None
        )
        if shared is None:
            if table is not None:
                rule_sections[switch] = rule_section(topo, switch, table)
            if switch in programmed:
                program_sections[switch] = _program_section(
                    topo, switch, table, given
                )
            continue
        content: RuleContent = (
            frozenset() if table is None else frozenset(table.rules.items())
        )
        built = False
        if table is not None:
            rule_key = (switch, content)
            if rule_key not in shared._rules:
                shared._rules[rule_key] = rule_section(topo, switch, table)
                built = True
            rule_sections[switch] = shared._rules[rule_key]
        if switch in programmed:
            program_key = (switch, content, given)
            if program_key not in shared._programs:
                shared._programs[program_key] = _program_section(
                    topo, switch, table, given
                )
                built = True
            program_sections[switch] = shared._programs[program_key]
        if built:
            shared.built += 1
        else:
            shared.reused += 1
    return rule_sections, program_sections


def lint_artifact(
    artifact: DeploymentArtifact,
    config: Optional[LintConfig] = None,
    sections: Optional[LintSections] = None,
) -> LintReport:
    """Run every check family over a deployment artifact.

    ``sections`` lets the lints of one rollout share their per-switch
    stage; the report is identical with or without it.
    """
    config = config or LintConfig()
    topo = artifact.topo
    if sections is not None and sections.topo is not topo:
        raise LintError("LintSections belong to a different topology")
    report = LintReport()
    tables = artifact.tables
    report.stats["switches"] = len(tables)
    report.stats["rules"] = sum(len(t.rules) for t in tables.values())
    rule_sections, program_sections = _switch_sections(
        artifact, config.check_tcam, sections
    )

    graph_diags, graph_stats = check_graph(topo, tables, rule_sections)
    report.extend(graph_diags)
    report.stats.update(graph_stats)

    if config.check_tcam:
        programs: Dict[str, Sequence[TcamEntry]] = {
            switch: section.program
            for switch, section in program_sections.items()
        }
        # Port sets are a per-switch-stage input; every section exists.
        tcam_diags, tcam_stats = check_tcam(
            {}, tables, programs, program_sections
        )
        report.extend(tcam_diags)
        report.stats.update(tcam_stats)
        budget = (
            config.tcam_budget
            if config.tcam_budget is not None
            else artifact.tcam_budget
        )
        report.extend(check_budget(programs, budget))

    if config.check_reach:
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
    config: Optional[LintConfig] = None,
    sections: Optional[LintSections] = None,
) -> LintReport:
    """Convenience wrapper: lint bare rule tables."""
    artifact = DeploymentArtifact(
        topo=topo, tables=tables, queue_map=queue_map
    )
    return lint_artifact(artifact, config, sections)


def lint_plan(
    plan: TaggerPlanLike,
    tcam_budget: Optional[int] = None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Lint the deployable artifact of a planner result.

    Only the plan's *artifacts* (tables, queue map, topology) are read;
    its tagged graph is deliberately ignored.
    """
    artifact = DeploymentArtifact.from_plan(plan, tcam_budget=tcam_budget)
    return lint_artifact(artifact, config)
