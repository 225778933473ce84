"""Differential cross-check of all taggers on one scenario.

Every scenario's ELP is pushed through four independent implementations
of the same contract — brute force (Algorithm 1), greedy minimization
(Algorithm 2), the rule-realizable deterministic minimizer, and (on Clos
with bounce ELPs) the topology-aware Clos tagger — and the results are
checked against each other and against Theorem 5.1. On scenarios whose
ELP is pair-decomposable, the symmetry planner, the incremental
re-planner (:mod:`repro.core.replan`) and the rollout orchestrator
(:mod:`repro.deploy`) are additionally checked byte-for-byte against the
from-scratch pipeline.

:data:`STAGES` is the only declaration of what is checked: one row per
stage, in execution order, naming the invariants the stage may record
with their meaning. :func:`cross_check`, the harness's check count, the
fault self-tests and the table in docs/FUZZING.md all read those rows,
so a new invariant is one row plus its check function in this file.

The checks never raise on a violation — they *record* it, so the harness
can shrink and persist the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core import (
    STRATEGY_EXHAUSTIVE,
    STRATEGY_SYMMETRY,
    ClosTagger,
    DeterministicTagging,
    ElpSet,
    PairwiseElpProvider,
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
from repro.core.rules import RuleTable, diff_tables
from repro.core.tags import INITIAL_TAG, LOSSY_TAG, TaggedGraph
from repro.core.verification import VerificationReport
from repro.exceptions import ReproError
from repro.fuzz.faults import copy_tables, fault_row
from repro.fuzz.scenarios import Scenario, _switches_connected
from repro.lint import DeploymentArtifact, lint_artifact
from repro.routing.base import count_bounces
from repro.topology import Topology
from repro.topology.failures import LinkKey, TopologyDelta

#: A fault row's injector, handed to the stage the fault is aimed at.
Injector = Optional[Callable[..., Any]]
Tables = Dict[str, RuleTable]


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
    #: Per stage name ``"checked"`` or ``"skipped: <reason>"``, plus
    #: free-form diagnostics (tag counts, the flapped link, ...).
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Invariants evaluated: the declared invariants of the stages that
    #: ran (returned no skip reason).
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def invariants_violated(self) -> List[str]:
        return sorted({v.invariant for v in self.violations})


class Stage(NamedTuple):
    """One cross-check stage: what it may record and how it runs.

    ``run(ctx, inject)`` returns None once it evaluated its invariants,
    or the reason the stage does not apply to the scenario. ``inject``
    is the injector of the fault aimed at this stage (None on healthy
    runs); the stage applies it to its own subject only.
    """

    name: str
    #: (name its violations carry, one-line meaning) per invariant.
    invariants: Tuple[Tuple[str, str], ...]
    run: Callable[["_Context", Injector], Optional[str]]


@dataclass
class _Context:
    """What the stages of one :func:`cross_check` share, built once."""

    scenario: Scenario
    result: CrossCheckResult
    topo: Topology
    elp: ElpSet
    bf: TaggedGraph
    #: None when the ELP is not pair-decomposable (see
    #: :meth:`Scenario.pairwise_provider`).
    provider: Optional[PairwiseElpProvider]
    #: Left by the deterministic stage for the lint stage.
    det: Optional[DeterministicTagging] = None
    #: Left by the replan stage for the deploy stage: the flapped link
    #: and the healthy tables before / after it went down.
    transition: Optional[Tuple[LinkKey, Tables, Tables]] = None

    def violate(self, invariant: str, detail: str) -> None:
        self.result.violations.append(Violation(invariant, detail))

    def verify(self, invariant: str, graph: TaggedGraph) -> VerificationReport:
        """Check R1/R2 on ``graph``, recording a failure as ``invariant``."""
        report = verify_tagged_graph(graph)
        unsafe = report.violation()
        if unsafe is not None:
            self.violate(invariant, unsafe)
        return report


def _run_bruteforce(ctx: _Context, inject: Injector) -> Optional[str]:
    ctx.result.stats["bruteforce_tags"] = ctx.bf.max_tag
    ctx.verify("bruteforce-unsafe", ctx.bf)
    return None


def _run_greedy(ctx: _Context, inject: Injector) -> Optional[str]:
    """Safety + dominance + coverage + rule-consistency of Algorithm 2.

    A fault replaces the minimized graph with a corrupted one.
    """
    topo, bf = ctx.topo, ctx.bf
    minimized = greedy_minimize(bf)
    if inject is not None:
        minimized = inject(minimized)
    ctx.result.stats["greedy_tags"] = (
        minimized.max_tag if minimized.nodes else 0
    )
    ctx.verify("greedy-unsafe", minimized)
    if minimized.nodes and minimized.max_tag > bf.max_tag:
        ctx.violate(
            "greedy-dominance",
            f"greedy used {minimized.max_tag} tags, "
            f"brute force {bf.max_tag}",
        )
    if minimized.ports() != bf.ports():
        missing = bf.ports() - minimized.ports()
        extra = minimized.ports() - bf.ports()
        ctx.violate(
            "greedy-coverage",
            f"port sets diverged (missing={sorted(missing)[:3]}, "
            f"extra={sorted(extra)[:3]})",
        )

    # Rule compilation must agree with the graph it came from.
    try:
        rule_report = rules_from_tagged_graph(topo, minimized)
        effective = rules_to_tagged_graph(topo, rule_report.tables)
    except ReproError as exc:
        ctx.violate("rules-inconsistent", str(exc))
        return None
    if effective.nodes:
        ctx.verify("rules-unsafe", effective)
    if not rule_report.conflicts:
        # Conflict-free compilation must preserve the graph's edges
        # (modulo host-facing egress, which produces no rule) ...
        eff_edges = set(effective.edges())
        for edge in minimized.edges():
            if edge not in eff_edges:
                ctx.violate(
                    "rules-inconsistent",
                    f"edge {edge} lost in rule round-trip",
                )
                break
        # ... and every ELP path must stay lossless under the rules.
        lossless, total, demoted = coverage_report(
            topo, rule_report.tables, ctx.elp.paths
        )
        if lossless != total:
            ctx.violate(
                "rules-coverage",
                f"{total - lossless}/{total} ELP paths demoted by "
                f"conflict-free rules, e.g. {demoted[0][0]}",
            )
    return None


def _run_deterministic(ctx: _Context, inject: Injector) -> Optional[str]:
    bf = ctx.bf
    try:
        det = deterministic_minimize(ctx.topo, bf)
    except ReproError as exc:
        ctx.violate("deterministic-unsafe", str(exc))
        return None
    ctx.det = det
    ctx.result.stats["deterministic_tags"] = det.num_tags
    ctx.verify("deterministic-unsafe", det.graph)
    if det.num_tags > bf.max_tag:
        ctx.violate(
            "deterministic-dominance",
            f"deterministic used {det.num_tags} tags, "
            f"brute force {bf.max_tag}",
        )
    lossless, total, demoted = coverage_report(
        ctx.topo, det.tables, ctx.elp.paths
    )
    if det.contradictions == 0 and lossless != total:
        ctx.violate(
            "deterministic-coverage",
            f"{total - lossless}/{total} ELP paths demoted without "
            f"contradictions, e.g. {demoted[0][0]}",
        )
    return None


def _run_lint(ctx: _Context, inject: Injector) -> Optional[str]:
    """Static artifact certification of the compiled deployment.

    The linter re-derives R1/R2 from the rule tables alone and checks
    TCAM order semantics, reachability, and queue fit — an independent
    pass over deployed reality rather than planner state. A fault
    corrupts the artifact first; the linter must catch the corruption.
    """
    if ctx.det is None:
        return "the deterministic minimizer produced no tables"
    tables = ctx.det.tables
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
        topo=ctx.topo, tables=tables, queue_map=queue_map
    )
    if inject is not None:
        artifact = inject(artifact)
    lint = lint_artifact(artifact)
    ctx.result.stats["lint_diagnostics"] = len(lint.diagnostics)
    for diag in lint.errors[:5]:
        ctx.violate("lint-dirty", diag.render())
    return None


def _run_clos(ctx: _Context, inject: Injector) -> Optional[str]:
    """The closed-form Clos tagger; a fault swaps in a corrupted tagger."""
    budget = ctx.scenario.clos_bounce_budget
    if budget is None or ctx.scenario.failed_links:
        return "not a healthy Clos with a bounce ELP"
    topo = ctx.topo
    tagger = ClosTagger(topo, max_bounces=budget)
    if inject is not None:
        tagger = inject(tagger)
    report = ctx.verify("clos-unsafe", tagger.tagged_graph())
    ctx.result.stats["clos_tags"] = report.num_tags
    if report.num_tags != budget + 1:
        ctx.violate(
            "clos-tag-count",
            f"expected exactly {budget + 1} lossless tags "
            f"(k + 1), got {report.num_tags}",
        )
    for path in ctx.elp.paths:
        expected = count_bounces(topo, path) <= budget
        actual = tagger.path_stays_lossless(path)
        if actual != expected:
            ctx.violate(
                "clos-coverage",
                f"path {path} lossless={actual}, "
                f"bounce count says {expected}",
            )
            break
    return None


def _run_symmetry(ctx: _Context, inject: Injector) -> Optional[str]:
    """Differential check of the symmetry enumeration strategy.

    Plans the scenario twice through :meth:`TaggerPlan.from_provider` —
    once under the default symmetry strategy (closed-form orbit
    replication when the topology certifies, exhaustive degradation
    otherwise) and once with enumeration forced exhaustive — and demands
    byte-identical rule tables and tagged graphs. Refusals must also
    agree: if one strategy rejects the scenario (e.g. empty ELP), the
    other must reject it too. A fault corrupts the symmetry plan after
    the fact; the oracle must flag the divergence.
    """
    provider = ctx.provider
    if provider is None:
        return "ELP not pair-decomposable"

    def plan(strategy: str) -> Tuple[Optional[TaggerPlan], Optional[str]]:
        try:
            return TaggerPlan.from_provider(
                ctx.scenario.build_topology(), provider, strategy=strategy
            ), None
        except ReproError as exc:
            return None, str(exc)

    sym, sym_error = plan(STRATEGY_SYMMETRY)
    exh, exh_error = plan(STRATEGY_EXHAUSTIVE)
    if sym is None or exh is None:
        if sym_error == exh_error:
            return f"both refused ({sym_error})"
        ctx.violate(
            "symmetry-divergence",
            f"strategies disagree on refusal: "
            f"symmetry={sym_error!r}, exhaustive={exh_error!r}",
        )
        return None
    if inject is not None:
        inject(sym)
    if not tables_equal(sym.tables, exh.tables):
        ctx.violate(
            "symmetry-divergence",
            "symmetry-strategy rule tables differ from exhaustive "
            "enumeration",
        )
    elif sym.graph != exh.graph:
        ctx.violate(
            "symmetry-divergence",
            "symmetry-strategy tagged graph differs from exhaustive "
            "enumeration",
        )
    else:
        ctx.result.stats["symmetry_mode"] = (
            "certified" if sym.meta.get("certified") else "degraded"
        )
    return None


def _replan_flap_link(planner: IncrementalPlanner) -> Optional[LinkKey]:
    """First ELP-carrying switch link whose failure keeps switches connected."""
    topo = planner.topo
    used: Set[LinkKey] = set()
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


def _run_replan(ctx: _Context, inject: Injector) -> Optional[str]:
    """Differential check of the incremental re-planner.

    Builds the scenario's one :class:`IncrementalPlanner` on a fresh
    topology, flaps one connectivity-safe ELP-carrying link (down, then
    back up), and demands byte-identical rule tables and tagged graph
    versus a from-scratch plan after every step. A fault corrupts the
    re-planned result of each step; the oracle must flag the divergence.
    The healthy down transition is left in ``ctx.transition`` before any
    fault touches it.
    """
    if ctx.provider is None:
        return "ELP not pair-decomposable"
    try:
        planner = IncrementalPlanner(
            ctx.scenario.build_topology(), ctx.provider
        )
    except ReproError as exc:
        ctx.violate(
            "incremental-divergence",
            f"initial incremental build failed: {exc}",
        )
        return None
    link = _replan_flap_link(planner)
    if link is None:
        return "no safe link to flap"
    ctx.result.stats["replan_link"] = f"{link[0]}<->{link[1]}"
    old = copy_tables(planner.plan.tables)
    down = TopologyDelta.link_down(*link)
    for delta in (down, down.inverse()):
        try:
            planner.apply(delta)
        except ReproError as exc:
            # Equivalence covers refusal too: if the incremental engine
            # cannot re-plan (e.g. the flap emptied the ELP), the
            # from-scratch pipeline must refuse the same state.
            try:
                planner.scratch_plan()
            except ReproError:
                return f"after {delta.describe()}: {exc}"
            ctx.violate(
                "incremental-divergence",
                f"incremental apply refused {delta.describe()} "
                f"({exc}) but from-scratch planning succeeded",
            )
            return None
        if delta is down:
            ctx.transition = (link, old, copy_tables(planner.plan.tables))
        if inject is not None:
            inject(planner.plan)
        try:
            scratch = planner.scratch_plan()
        except ReproError as exc:
            ctx.violate(
                "incremental-divergence",
                f"from-scratch planning failed after incremental "
                f"{delta.describe()} succeeded: {exc}",
            )
            return None
        if not tables_equal(planner.plan.tables, scratch.tables):
            ctx.violate(
                "incremental-divergence",
                f"after {delta.describe()}: incremental rule tables "
                f"differ from from-scratch tables",
            )
            return None
        if planner.plan.graph != scratch.graph:
            ctx.violate(
                "incremental-divergence",
                f"after {delta.describe()}: incremental tagged graph "
                f"differs from from-scratch graph",
            )
            return None
    return None


def _run_deploy(ctx: _Context, inject: Injector) -> Optional[str]:
    """Rollout invariant: a benign fault schedule must still converge.

    Pushes the replan stage's healthy link-down transition onto a fresh
    agent fleet through a *benign* seeded fault schedule — finite
    timeouts, crashes, partial batches, duplicates and reorders, but no
    permanently wedged switch. Under those conditions the orchestrator
    has no excuse: the rollout must end ``converged``, byte-identical to
    the target plan, with lint-clean final tables. A fault installs a
    buggy agent first; divergence then *must* be flagged, proving
    readback verification is load-bearing. Rollback and quarantine paths
    are exercised by the unit/chaos tests, not here — accepting a "clean
    rollback" would let an agent that applies nothing and acks anyway
    pass as a no-op rollout.
    """
    from repro.deploy import (
        CONVERGED,
        REFUSED,
        RolloutConfig,
        RolloutOrchestrator,
        fleet_from_tables,
        random_fault_plan,
    )

    if ctx.transition is None:
        return "the replan stage re-planned no link failure"
    link, old, new = ctx.transition
    diffs = diff_tables(old, new)
    if not diffs:
        return "empty diff"
    topo = ctx.scenario.build_topology()
    topo.fail_link(*link)
    agents = fleet_from_tables(
        old, extra_switches=tuple(sorted(set(new) - set(old)))
    )
    if inject is not None:
        inject({s: agents[s] for s in sorted(diffs) if s in agents})
    seed = ctx.scenario.seed
    report = RolloutOrchestrator(
        topo,
        old,
        new,
        config=RolloutConfig(lint_boundaries=False, seed=seed),
        agents=agents,
        faults=random_fault_plan(sorted(diffs), seed=seed, rate=0.3),
    ).run()
    if report.outcome == REFUSED:
        # Pre-flight refusal: the mixed old/new transition state is not
        # certifiable deadlock-free under any wave ordering, so the
        # orchestrator never sent an RPC. That is the safety gate working,
        # not a divergence — and since no agent was touched, a refusal can
        # never mask the buggy-agent readback check below.
        return f"rollout refused ({report.detail})"
    ctx.result.stats["deploy_rpcs"] = report.rpc_count
    if not (
        report.outcome == CONVERGED
        and report.final_lint_ok
        and report.final_matches_target
    ):
        ctx.violate(
            "deployment-divergence",
            f"benign rollout ended {report.outcome!r} "
            f"(lint_ok={report.final_lint_ok}, "
            f"matches_target={report.final_matches_target}): "
            f"{report.detail}",
        )
    return None


#: The static stages, in execution (and therefore violation) order.
STAGES: Tuple[Stage, ...] = (
    Stage(
        "bruteforce",
        (("bruteforce-unsafe", "Algorithm 1 output fails R1/R2"),),
        _run_bruteforce,
    ),
    Stage(
        "greedy",
        (
            ("greedy-unsafe", "Algorithm 2 output fails R1/R2"),
            ("greedy-dominance", "greedy used MORE tags than brute force"),
            ("greedy-coverage", "greedy lost/invented ingress ports"),
            ("rules-inconsistent", "graph -> rules -> graph diverged"),
            ("rules-unsafe", "effective (deployed) rule graph fails R1/R2"),
            ("rules-coverage", "conflict-free rules demote an ELP path"),
        ),
        _run_greedy,
    ),
    Stage(
        "deterministic",
        (
            ("deterministic-unsafe", "deterministic output fails R1/R2"),
            ("deterministic-dominance", "more tags than brute force"),
            ("deterministic-coverage", "ELP path demoted w/o contradiction"),
        ),
        _run_deterministic,
    ),
    Stage(
        "lint",
        (("lint-dirty", "linter errors in the compiled artifact"),),
        _run_lint,
    ),
    Stage(
        "clos",
        (
            ("clos-unsafe", "Clos tagger's induced graph fails R1/R2"),
            ("clos-tag-count", "Clos tagger used != k + 1 lossless tags"),
            ("clos-coverage", "losslessness disagrees with bounce count"),
        ),
        _run_clos,
    ),
    Stage(
        "symmetry",
        (("symmetry-divergence", "symmetry plan != exhaustive plan"),),
        _run_symmetry,
    ),
    Stage(
        "replan",
        (("incremental-divergence", "incremental re-plan != from-scratch"),),
        _run_replan,
    ),
    Stage(
        "deploy",
        (("deployment-divergence", "benign rollout missed its target"),),
        _run_deploy,
    ),
)


def cross_check(
    scenario: Scenario, fault: Optional[str] = None
) -> CrossCheckResult:
    """Run every :data:`STAGES` row on the scenario, in order.

    Args:
        scenario: The case to check.
        fault: Optional artificial-bug name (see :mod:`repro.fuzz.faults`)
            whose injector is handed to the one stage its row names; used
            to validate that the harness catches regressions.
    """
    row = fault_row(fault) if fault is not None else None
    result = CrossCheckResult(scenario_id=scenario.scenario_id)
    topo = scenario.build_topology()
    elp = scenario.build_elp(topo)
    result.stats["num_paths"] = len(elp)
    result.stats["num_switches"] = len(topo.switches)
    if len(elp) == 0:
        result.stats["skipped"] = "empty ELP"
        return result
    ctx = _Context(
        scenario=scenario,
        result=result,
        topo=topo,
        elp=elp,
        bf=bruteforce_tagging(topo, elp.paths),
        provider=scenario.pairwise_provider(),
    )
    for stage in STAGES:
        inject = None
        if row is not None and row.stage == stage.name:
            inject = row.inject
        recorded = len(result.violations)
        skip = stage.run(ctx, inject)
        undeclared = {v.invariant for v in result.violations[recorded:]}
        undeclared.difference_update(name for name, _ in stage.invariants)
        if undeclared:
            raise AssertionError(
                f"stage {stage.name!r} recorded {sorted(undeclared)}, "
                f"which its STAGES row does not declare"
            )
        if skip is None:
            result.checks += len(stage.invariants)
        result.stats[stage.name] = (
            "checked" if skip is None else f"skipped: {skip}"
        )
    return result


def __getattr__(name: str) -> Tuple[str, ...]:
    # ``STATIC_INVARIANTS`` (every name a static stage may record, in
    # stage order) is computed from the rows on every read, so it cannot
    # drift from the table.
    if name == "STATIC_INVARIANTS":
        return tuple(inv for stage in STAGES for inv, _ in stage.invariants)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
