"""Differential cross-check of all taggers on one scenario.

Every scenario's ELP is pushed through four independent implementations
of the same contract — brute force (Algorithm 1), greedy minimization
(Algorithm 2), the rule-realizable deterministic minimizer, and (on Clos
with bounce ELPs) the topology-aware Clos tagger — and the results are
checked against each other and against Theorem 5.1. On scenarios whose
ELP is pair-decomposable, the incremental re-planner
(:mod:`repro.core.replan`) is additionally flapped through a link
failure and checked byte-for-byte against the from-scratch pipeline:

==========================  ============================================
invariant                   meaning
==========================  ============================================
``bruteforce-unsafe``       Algorithm 1 output fails R1/R2
``greedy-unsafe``           Algorithm 2 output fails R1/R2
``greedy-dominance``        greedy used MORE tags than brute force
``greedy-coverage``         greedy lost/invented ingress ports
``deterministic-unsafe``    deterministic minimizer fails R1/R2
``deterministic-dominance`` deterministic used more tags than brute force
``deterministic-coverage``  rules demote an ELP path w/o contradiction
``rules-inconsistent``      graph -> rules -> graph round trip diverged
``rules-unsafe``            effective (deployed) rule graph fails R1/R2
``rules-coverage``          conflict-free rules demote an ELP path
``clos-unsafe``             Clos tagger's induced graph fails R1/R2
``clos-tag-count``          Clos tagger used != k + 1 lossless tags
``clos-coverage``           Clos losslessness disagrees with bounce count
``lint-dirty``              deployment linter found error-severity
                            findings in the compiled artifact (rules +
                            TCAM programs + queue map; :mod:`repro.lint`)
``incremental-divergence``  after a link flap, the incremental re-plan
                            differs from the from-scratch plan (rule
                            tables or tagged graph)
``symmetry-divergence``     the symmetry-strategy planner (closed-form
                            orbit replication, or its degraded
                            exhaustive fallback) produced different
                            bytes than explicit exhaustive enumeration
``deployment-divergence``   rolling the re-planned diff onto an agent
                            fleet through a benign fault schedule failed
                            to converge to the exact target with
                            lint-clean tables (:mod:`repro.deploy`)
==========================  ============================================

The checks never raise on a violation — they *record* it, so the harness
can shrink and persist the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core import (
    STRATEGY_EXHAUSTIVE,
    STRATEGY_SYMMETRY,
    ClosTagger,
    TaggerPlan,
    bruteforce_tagging,
    coverage_report,
    deterministic_minimize,
    greedy_minimize,
    rules_from_tagged_graph,
    rules_to_tagged_graph,
    tables_equal,
    verify_tagged_graph,
)
from repro.core.pipeline import QueueMap
from repro.core.replan import IncrementalPlanner
from repro.core.tags import INITIAL_TAG, LOSSY_TAG, TaggedGraph
from repro.core.verification import VerificationReport
from repro.exceptions import ReproError
from repro.fuzz.faults import (
    ARTIFACT_FAULTS,
    CLOS_FAULTS,
    DEPLOY_FAULTS,
    GRAPH_FAULTS,
    REPLAN_FAULTS,
    SYMMETRY_FAULTS,
)
from repro.fuzz.scenarios import Scenario, _switches_connected
from repro.lint import DeploymentArtifact, lint_artifact
from repro.routing.base import count_bounces
from repro.topology.failures import TopologyDelta

#: Names of the static invariants :func:`cross_check` evaluates (the
#: table in the module docstring); every :class:`Violation` it records
#: carries one of them, and the harness counts ``len()`` of this tuple
#: as the checks evaluated per scenario.
STATIC_INVARIANTS: Tuple[str, ...] = (
    "bruteforce-unsafe",
    "greedy-unsafe",
    "greedy-dominance",
    "greedy-coverage",
    "deterministic-unsafe",
    "deterministic-dominance",
    "deterministic-coverage",
    "rules-inconsistent",
    "rules-unsafe",
    "rules-coverage",
    "clos-unsafe",
    "clos-tag-count",
    "clos-coverage",
    "lint-dirty",
    "incremental-divergence",
    "symmetry-divergence",
    "deployment-divergence",
)


@dataclass(frozen=True)
class Violation:
    """One failed invariant, with enough detail to debug it."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


@dataclass
class CrossCheckResult:
    """Outcome of the static differential stage for one scenario."""

    scenario_id: str
    violations: List[Violation] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def invariants_violated(self) -> List[str]:
        return sorted({v.invariant for v in self.violations})


def _summary(report: VerificationReport) -> str:
    if report.decreasing_edge is not None:
        src, dst = report.decreasing_edge
        return f"R2 violated: edge {src} -> {dst} decreases the tag"
    if report.tag_cycle is not None:
        return f"R1 violated: cycle of {len(report.tag_cycle)} nodes"
    return "ok"


def cross_check(
    scenario: Scenario, fault: Optional[str] = None
) -> CrossCheckResult:
    """Run every applicable tagger on the scenario and check invariants.

    Args:
        scenario: The case to check.
        fault: Optional artificial-bug name (see :mod:`repro.fuzz.faults`)
            injected into the matching stage; used to validate that the
            harness catches regressions.
    """
    result = CrossCheckResult(scenario_id=scenario.scenario_id)
    topo = scenario.build_topology()
    elp = scenario.build_elp(topo)
    result.stats["num_paths"] = len(elp)
    result.stats["num_switches"] = len(topo.switches)
    if len(elp) == 0:
        result.stats["skipped"] = "empty ELP"
        return result

    # -- Algorithm 1 ---------------------------------------------------
    bf = bruteforce_tagging(topo, elp.paths)
    bf_report = verify_tagged_graph(bf)
    result.stats["bruteforce_tags"] = bf.max_tag
    if not bf_report.deadlock_free:
        result.violations.append(
            Violation("bruteforce-unsafe", _summary(bf_report))
        )

    # -- Algorithm 2 (+ optional injected bug) -------------------------
    greedy = greedy_minimize(bf)
    if fault in GRAPH_FAULTS:
        greedy = GRAPH_FAULTS[fault](greedy)
    _check_minimizer(result, topo, elp, bf, greedy, prefix="greedy")

    # -- Deterministic (rule-realizable) minimizer ---------------------
    try:
        det = deterministic_minimize(topo, bf)
    except ReproError as exc:
        result.violations.append(Violation("deterministic-unsafe", str(exc)))
    else:
        det_report = verify_tagged_graph(det.graph)
        result.stats["deterministic_tags"] = det.num_tags
        if not det_report.deadlock_free:
            result.violations.append(
                Violation("deterministic-unsafe", _summary(det_report))
            )
        if det.num_tags > bf.max_tag:
            result.violations.append(
                Violation(
                    "deterministic-dominance",
                    f"deterministic used {det.num_tags} tags, "
                    f"brute force {bf.max_tag}",
                )
            )
        lossless, total, demoted = coverage_report(topo, det.tables, elp.paths)
        if det.contradictions == 0 and lossless != total:
            result.violations.append(
                Violation(
                    "deterministic-coverage",
                    f"{total - lossless}/{total} ELP paths demoted without "
                    f"contradictions, e.g. {demoted[0][0]}",
                )
            )
        # Every compiled artifact must lint clean (with an artifact-stage
        # fault injected first, the linter must catch the corruption).
        _check_lint(result, topo, det.tables, fault)

    # -- Clos topology-aware tagger ------------------------------------
    budget = scenario.clos_bounce_budget
    if budget is not None and not scenario.failed_links:
        _check_clos(result, topo, elp, budget, fault)

    # -- Symmetry-strategy planner vs exhaustive enumeration -----------
    _check_symmetry(result, scenario, fault)

    # -- Incremental re-planner vs from-scratch ------------------------
    _check_replan(result, scenario, fault)

    # -- Rollout of the re-planned transition over a faulty fleet ------
    _check_deploy(result, scenario, fault)

    return result


def _check_minimizer(
    result: CrossCheckResult,
    topo,
    elp,
    bf: TaggedGraph,
    minimized: TaggedGraph,
    prefix: str,
) -> None:
    """Safety + dominance + coverage + rule-consistency for one minimizer."""
    report = verify_tagged_graph(minimized)
    result.stats[f"{prefix}_tags"] = (
        minimized.max_tag if minimized.nodes else 0
    )
    if not report.deadlock_free:
        result.violations.append(
            Violation(f"{prefix}-unsafe", _summary(report))
        )
    if minimized.nodes and minimized.max_tag > bf.max_tag:
        result.violations.append(
            Violation(
                f"{prefix}-dominance",
                f"{prefix} used {minimized.max_tag} tags, "
                f"brute force {bf.max_tag}",
            )
        )
    if minimized.ports() != bf.ports():
        missing = bf.ports() - minimized.ports()
        extra = minimized.ports() - bf.ports()
        result.violations.append(
            Violation(
                f"{prefix}-coverage",
                f"port sets diverged (missing={sorted(missing)[:3]}, "
                f"extra={sorted(extra)[:3]})",
            )
        )

    # Rule compilation must agree with the graph it came from.
    try:
        rule_report = rules_from_tagged_graph(topo, minimized)
        effective = rules_to_tagged_graph(topo, rule_report.tables)
    except ReproError as exc:
        result.violations.append(Violation("rules-inconsistent", str(exc)))
        return
    eff_verify = verify_tagged_graph(effective) if effective.nodes else None
    if eff_verify is not None and not eff_verify.deadlock_free:
        result.violations.append(
            Violation("rules-unsafe", _summary(eff_verify))
        )
    if not rule_report.conflicts:
        # Conflict-free compilation must preserve the graph's edges
        # (modulo host-facing egress, which produces no rule) ...
        eff_edges = set(effective.edges())
        for edge in minimized.edges():
            if edge not in eff_edges:
                result.violations.append(
                    Violation(
                        "rules-inconsistent",
                        f"edge {edge} lost in rule round-trip",
                    )
                )
                break
        # ... and every ELP path must stay lossless under the rules.
        lossless, total, demoted = coverage_report(
            topo, rule_report.tables, elp.paths
        )
        if lossless != total:
            result.violations.append(
                Violation(
                    "rules-coverage",
                    f"{total - lossless}/{total} ELP paths demoted by "
                    f"conflict-free rules, e.g. {demoted[0][0]}",
                )
            )


def _check_lint(
    result: CrossCheckResult,
    topo,
    tables,
    fault: Optional[str],
) -> None:
    """Static artifact certification of the compiled deployment.

    The linter re-derives R1/R2 from the rule tables alone and checks
    TCAM order semantics, reachability, and queue fit — an independent
    pass over deployed reality rather than planner state.
    """
    max_tag = max(
        (
            max(key[0], new_tag)
            for table in tables.values()
            for key, new_tag in table.rules.items()
            if new_tag != LOSSY_TAG
        ),
        default=0,
    )
    # Injected packets always carry the initial tag, even when the
    # tables hold no lossless rules at all — the map must cover it.
    max_tag = max(max_tag, INITIAL_TAG)
    queue_map = QueueMap.identity(max_tag, max(8, max_tag))
    artifact = DeploymentArtifact(
        topo=topo, tables=tables, queue_map=queue_map
    )
    if fault in ARTIFACT_FAULTS:
        artifact = ARTIFACT_FAULTS[fault](artifact)
    lint = lint_artifact(artifact)
    result.stats["lint_diagnostics"] = len(lint.diagnostics)
    for diag in lint.errors[:5]:
        result.violations.append(Violation("lint-dirty", diag.render()))


def _check_clos(
    result: CrossCheckResult, topo, elp, budget: int, fault: Optional[str]
) -> None:
    tagger = ClosTagger(topo, max_bounces=budget)
    if fault in CLOS_FAULTS:
        tagger = CLOS_FAULTS[fault](tagger)
    graph = tagger.tagged_graph()
    report = verify_tagged_graph(graph)
    result.stats["clos_tags"] = report.num_tags
    if not report.deadlock_free:
        result.violations.append(Violation("clos-unsafe", _summary(report)))
    if report.num_tags != budget + 1:
        result.violations.append(
            Violation(
                "clos-tag-count",
                f"expected exactly {budget + 1} lossless tags "
                f"(k + 1), got {report.num_tags}",
            )
        )
    for path in elp.paths:
        expected = count_bounces(topo, path) <= budget
        actual = tagger.path_stays_lossless(path)
        if actual != expected:
            result.violations.append(
                Violation(
                    "clos-coverage",
                    f"path {path} lossless={actual}, "
                    f"bounce count says {expected}",
                )
            )
            break


def _check_symmetry(
    result: CrossCheckResult, scenario: Scenario, fault: Optional[str]
) -> None:
    """Differential check of the symmetry enumeration strategy.

    Plans the scenario twice through :meth:`TaggerPlan.from_provider` —
    once under the default symmetry strategy (closed-form orbit
    replication when the topology certifies, exhaustive degradation
    otherwise) and once with enumeration forced exhaustive — and demands
    byte-identical rule tables and tagged graphs. Refusals must also
    agree: if one strategy rejects the scenario (e.g. empty ELP), the
    other must reject it too. A symmetry-stage fault corrupts the
    symmetry plan after the fact; the oracle must flag the divergence.
    """
    provider = scenario.pairwise_provider()
    if provider is None:
        result.stats["symmetry"] = "skipped: ELP not pair-decomposable"
        return
    sym_error: Optional[str] = None
    exh_error: Optional[str] = None
    sym = exh = None
    try:
        sym = TaggerPlan.from_provider(
            scenario.build_topology(), provider, strategy=STRATEGY_SYMMETRY
        )
    except ReproError as exc:
        sym_error = str(exc)
    try:
        exh = TaggerPlan.from_provider(
            scenario.build_topology(), provider, strategy=STRATEGY_EXHAUSTIVE
        )
    except ReproError as exc:
        exh_error = str(exc)
    if sym_error is not None or exh_error is not None:
        if sym_error == exh_error:
            result.stats["symmetry"] = f"skipped: both refused ({sym_error})"
            return
        result.violations.append(
            Violation(
                "symmetry-divergence",
                f"strategies disagree on refusal: "
                f"symmetry={sym_error!r}, exhaustive={exh_error!r}",
            )
        )
        return
    assert sym is not None and exh is not None
    if fault in SYMMETRY_FAULTS:
        SYMMETRY_FAULTS[fault](sym)
    if not tables_equal(sym.tables, exh.tables):
        result.violations.append(
            Violation(
                "symmetry-divergence",
                "symmetry-strategy rule tables differ from exhaustive "
                "enumeration",
            )
        )
        return
    if sym.graph != exh.graph:
        result.violations.append(
            Violation(
                "symmetry-divergence",
                "symmetry-strategy tagged graph differs from exhaustive "
                "enumeration",
            )
        )
        return
    mode = "certified" if sym.meta.get("certified") else "degraded"
    result.stats["symmetry"] = f"checked ({mode})"


def _replan_flap_link(
    planner: IncrementalPlanner,
) -> Optional[Tuple[str, str]]:
    """First ELP-carrying switch link whose failure keeps switches connected."""
    topo = planner.topo
    used: Set[Tuple[str, str]] = set()
    for path in planner.elp_paths():
        for a, b in zip(path, path[1:]):
            if topo.node(a).is_switch and topo.node(b).is_switch:
                used.add((a, b) if a <= b else (b, a))
    for a, b in sorted(used):
        topo.fail_link(a, b)
        connected = _switches_connected(topo)
        topo.restore_link(a, b)
        if connected:
            return (a, b)
    return None


def _check_replan(
    result: CrossCheckResult, scenario: Scenario, fault: Optional[str]
) -> None:
    """Differential check of the incremental re-planner.

    Builds an :class:`IncrementalPlanner` on a fresh copy of the
    scenario, flaps one connectivity-safe ELP-carrying link (down, then
    back up), and demands byte-identical rule tables and tagged graph
    versus a from-scratch plan after every step. A replan-stage fault
    replaces the healthy delta application with a buggy one; the oracle
    must then flag the divergence.
    """
    provider = scenario.pairwise_provider()
    if provider is None:
        result.stats["replan"] = "skipped: ELP not pair-decomposable"
        return
    topo = scenario.build_topology()
    try:
        planner = IncrementalPlanner(topo, provider)
    except ReproError as exc:
        result.violations.append(
            Violation(
                "incremental-divergence",
                f"initial incremental build failed: {exc}",
            )
        )
        return
    link = _replan_flap_link(planner)
    if link is None:
        result.stats["replan"] = "skipped: no safe link to flap"
        return
    down = TopologyDelta.link_down(*link)
    for delta in (down, down.inverse()):
        try:
            if fault in REPLAN_FAULTS:
                REPLAN_FAULTS[fault](planner, delta)
            else:
                planner.apply(delta)
        except ReproError as exc:
            # Equivalence covers refusal too: if the incremental engine
            # cannot re-plan (e.g. the flap emptied the ELP), the
            # from-scratch pipeline must refuse the same state.
            try:
                planner.scratch_plan()
            except ReproError:
                result.stats["replan"] = (
                    f"skipped after {delta.describe()}: {exc}"
                )
                return
            result.violations.append(
                Violation(
                    "incremental-divergence",
                    f"incremental apply refused {delta.describe()} "
                    f"({exc}) but from-scratch planning succeeded",
                )
            )
            return
        try:
            scratch = planner.scratch_plan()
        except ReproError as exc:
            result.violations.append(
                Violation(
                    "incremental-divergence",
                    f"from-scratch planning failed after incremental "
                    f"{delta.describe()} succeeded: {exc}",
                )
            )
            return
        if not tables_equal(planner.plan.tables, scratch.tables):
            result.violations.append(
                Violation(
                    "incremental-divergence",
                    f"after {delta.describe()}: incremental rule tables "
                    f"differ from from-scratch tables",
                )
            )
            return
        if planner.plan.graph != scratch.graph:
            result.violations.append(
                Violation(
                    "incremental-divergence",
                    f"after {delta.describe()}: incremental tagged graph "
                    f"differs from from-scratch graph",
                )
            )
            return
    result.stats["replan"] = f"checked (flapped {link[0]}<->{link[1]})"


def _check_deploy(
    result: CrossCheckResult, scenario: Scenario, fault: Optional[str]
) -> None:
    """Rollout invariant: a benign fault schedule must still converge.

    Re-plans the scenario across one link failure, then pushes the
    resulting diff onto a fresh agent fleet through a *benign* seeded
    fault schedule — finite timeouts, crashes, partial batches,
    duplicates and reorders, but no permanently wedged switch. Under
    those conditions the orchestrator has no excuse: the rollout must
    end ``converged``, byte-identical to the target plan, with
    lint-clean final tables (``deployment-divergence`` otherwise). A
    deploy-stage fault installs a buggy agent first; divergence then
    *must* be flagged, proving readback verification is load-bearing.
    Rollback and quarantine paths are exercised by the unit/chaos tests,
    not here — accepting a "clean rollback" would let an agent that
    applies nothing and acks anyway pass as a no-op rollout.
    """
    from repro.core.rules import RuleTable, diff_tables
    from repro.deploy import (
        CONVERGED,
        REFUSED,
        RolloutConfig,
        RolloutOrchestrator,
        fleet_from_tables,
        random_fault_plan,
    )

    provider = scenario.pairwise_provider()
    if provider is None:
        result.stats["deploy"] = "skipped: ELP not pair-decomposable"
        return
    topo = scenario.build_topology()
    try:
        planner = IncrementalPlanner(topo, provider)
    except ReproError:
        # Initial build failures are _check_replan's to report.
        result.stats["deploy"] = "skipped: initial build failed"
        return
    link = _replan_flap_link(planner)
    if link is None:
        result.stats["deploy"] = "skipped: no safe link to flap"
        return
    old = {
        switch: RuleTable(
            switch=switch, rules=dict(table.rules), policy=table.policy
        )
        for switch, table in planner.plan.tables.items()
    }
    try:
        planner.apply(TopologyDelta.link_down(*link))
    except ReproError:
        result.stats["deploy"] = "skipped: replan refused the flap"
        return
    new = dict(planner.plan.tables)
    diffs = diff_tables(old, new)
    if not diffs:
        result.stats["deploy"] = "skipped: empty diff"
        return

    agents = fleet_from_tables(
        old, extra_switches=tuple(sorted(set(new) - set(old)))
    )
    if fault in DEPLOY_FAULTS:
        DEPLOY_FAULTS[fault](
            {s: agents[s] for s in sorted(diffs) if s in agents}
        )
    faults_plan = random_fault_plan(
        sorted(diffs), seed=scenario.seed, rate=0.3
    )
    config = RolloutConfig(lint_boundaries=False, seed=scenario.seed)
    report = RolloutOrchestrator(
        planner.topo,
        old,
        new,
        config=config,
        agents=agents,
        faults=faults_plan,
    ).run()
    if report.outcome == REFUSED:
        # Pre-flight refusal: the mixed old/new transition state is not
        # certifiable deadlock-free under any wave ordering, so the
        # orchestrator never sent an RPC. That is the safety gate working,
        # not a divergence — and since no agent was touched, a refusal can
        # never mask the buggy-agent readback check below.
        result.stats["deploy"] = f"skipped: rollout refused ({report.detail})"
        return
    report_ok = (
        report.outcome == CONVERGED
        and report.final_lint_ok
        and report.final_matches_target
    )
    if not report_ok:
        result.violations.append(
            Violation(
                "deployment-divergence",
                f"benign rollout ended {report.outcome!r} "
                f"(lint_ok={report.final_lint_ok}, "
                f"matches_target={report.final_matches_target}): "
                f"{report.detail}",
            )
        )
        return
    result.stats["deploy"] = (
        f"checked ({len(diffs)} switch diff, {report.rpc_count} rpcs)"
    )
