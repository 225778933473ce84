"""Artificial tagger bugs for harness self-validation.

A fuzzing harness that never fires is indistinguishable from one that
cannot fire. Each fault here corrupts one tagging stage in a way a real
implementation bug plausibly would; the harness (and the committed
regression corpus) asserts that the cross-check engine catches every one
of them. Faults are addressed by name so a corpus entry can record which
bug it witnesses.

Faults deliberately bypass :meth:`TaggedGraph.add_edge`'s monotonicity
guard where needed — a buggy tagger rewritten in C or P4 would not have
that guard either, and requirement R2 must be caught by *verification*,
not by construction alone.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

if TYPE_CHECKING:
    from repro.deploy.agent import ApplyOp, SwitchAgent

from repro.core.bruteforce import add_tagged_path
from repro.core.clos import ClosTagger
from repro.core.compression import TcamEntry, tcam_program
from repro.core.elp import PairwiseElpProvider
from repro.core.planner import TaggerPlan, compile_plan
from repro.core.rules import RuleTable
from repro.core.symmetry import certify
from repro.core.tags import INITIAL_TAG, TaggedGraph, TNode
from repro.exceptions import ReproError
from repro.lint.artifact import DeploymentArtifact
from repro.perf.timing import StageTimer
from repro.topology.base import Topology


class FaultError(ReproError):
    """Unknown fault name requested."""


def _rebuild_unchecked(graph: TaggedGraph, remap) -> TaggedGraph:
    """Rebuild ``graph`` with nodes remapped, skipping the R2 edge guard."""
    out = TaggedGraph()
    mapping: Dict[TNode, TNode] = {node: remap(node) for node in graph.nodes}
    for node in mapping.values():
        out.add_node(node)
    for src, dst in graph.edges():
        new_src, new_dst = mapping[src], mapping[dst]
        out._out[new_src].add(new_dst)
    return out


def skip_r2(graph: TaggedGraph) -> TaggedGraph:
    """Reverse the tag order: edges now *decrease* the tag (violates R2).

    Models a tagger that got the monotonicity direction wrong. On graphs
    with a single tag this is the identity (nothing to catch).
    """
    top = graph.max_tag
    return _rebuild_unchecked(
        graph, lambda node: (node[0], top + 1 - node[1])
    )


def collapse_tags(graph: TaggedGraph) -> TaggedGraph:
    """Merge every node into tag 1, ignoring the CBD-free constraint.

    Models a minimizer whose sandbox acyclicity check is broken: the
    moment the ELP contains a buffer cycle (any bounce pair), the single
    remaining class contains it too (violates R1).
    """
    return _rebuild_unchecked(graph, lambda node: (node[0], 1))


class _NoBounceClosTagger(ClosTagger):
    """Clos tagger whose turn rule never fires (never increments)."""

    def raises_tag(self, switch: str, in_port: int, out_port: int) -> bool:
        return False


def clos_ignore_bounce(tagger: ClosTagger) -> ClosTagger:
    return _NoBounceClosTagger(tagger.topo, tagger.max_bounces, tagger.initial_tags)


def copy_tables(tables: Dict[str, RuleTable]) -> Dict[str, RuleTable]:
    return {
        switch: RuleTable(
            switch=switch, rules=dict(table.rules), policy=table.policy
        )
        for switch, table in tables.items()
    }


def _compiled_programs(artifact: DeploymentArtifact) -> Dict[str, List[TcamEntry]]:
    """Each tabled switch's TCAM program, compiled as the linter does."""
    topo = artifact.topo
    return {
        switch: tcam_program(table, topo.ports(switch))
        for switch, table in artifact.tables.items()
    }


def tcam_shadow(artifact: DeploymentArtifact) -> DeploymentArtifact:
    """Swap the safeguard with the entry before it on one switch.

    Models a compiler or switch agent that emits entries out of order:
    the catch-all wildcard now sits *above* a real entry, which is fully
    shadowed — its packets demote instead of rewriting. The linter must
    report S101 (and the S104 round-trip divergence). Identity when every
    program holds only the safeguard.
    """
    programs = _compiled_programs(artifact)
    for switch in sorted(programs):
        program = programs[switch]
        if len(program) >= 2:
            program[-1], program[-2] = program[-2], program[-1]
            break
    return replace(artifact, programs=programs)


def tcam_drop_safeguard(artifact: DeploymentArtifact) -> DeploymentArtifact:
    """Strip the trailing safeguard default from every program.

    Models forgetting the paper's footnote-3 rule ("always the last one
    in the TCAM rule list"): unmatched packets keep an undefined tag
    instead of demoting. The linter must report S105.
    """
    programs = _compiled_programs(artifact)
    for program in programs.values():
        if program and program[-1].is_wildcard:
            program.pop()
    return replace(artifact, programs=programs)


def rule_decrease_tag(artifact: DeploymentArtifact) -> DeploymentArtifact:
    """Rewrite one rule to send packets back to the initial tag.

    Models an off-by-one in rule generation that breaks monotonicity
    (requirement R2). The linter must report T002. Identity on
    deployments whose every rule matches the initial tag.
    """
    tables = copy_tables(artifact.tables)
    for switch in sorted(tables):
        table = tables[switch]
        for key in sorted(table.rules):
            if key[0] > INITIAL_TAG:
                table.rules[key] = INITIAL_TAG
                return DeploymentArtifact(
                    topo=artifact.topo,
                    tables=tables,
                    queue_map=artifact.queue_map,
                    tcam_budget=artifact.tcam_budget,
                )
    return artifact


def rule_tag_cycle(artifact: DeploymentArtifact) -> DeploymentArtifact:
    """Install a two-rule ping-pong across one switch-to-switch link.

    Models a stale or hand-edited rule pair that closes an intra-tag
    buffer-dependency cycle (requirement R1). The linter must report
    T001. Identity on fabrics with no switch-to-switch link.
    """
    topo = artifact.topo
    for link in topo.iter_links(include_failed=True):
        if not (topo.node(link.a).is_switch and topo.node(link.b).is_switch):
            continue
        tables = copy_tables(artifact.tables)
        for near, far in ((link.a, link.b), (link.b, link.a)):
            table = tables.setdefault(near, RuleTable(switch=near))
            port = topo.port_to(near, far)
            table.rules[(INITIAL_TAG, port, port)] = INITIAL_TAG
        return DeploymentArtifact(
            topo=topo,
            tables=tables,
            queue_map=artifact.queue_map,
            tcam_budget=artifact.tcam_budget,
        )
    return artifact


def drop_rule(plan: TaggerPlan) -> None:
    """Lose one rule from a healthy plan's table set.

    Models a rule that is computed correctly but never materializes: one
    orbit replica's rule of a closed-form plan, or one install of
    a minimal rule diff on its way to the switch after an incremental
    re-plan. The byte-identity oracles (``symmetry-divergence``,
    ``incremental-divergence``) must catch it whenever the plan holds
    any explicit rule at all — identity only on ELPs so short that no
    transit rule is ever emitted.
    """
    for switch in sorted(plan.tables):
        table = plan.tables[switch]
        if table.rules:
            del table.rules[sorted(table.rules)[0]]
            return


def symmetry_drop_rule(
    topo: Topology, provider: PairwiseElpProvider
) -> TaggerPlan:
    """Plan through the provider, then :func:`drop_rule` the result."""
    plan = TaggerPlan.from_provider(topo, provider)
    drop_rule(plan)
    return plan


def symmetry_residue_drop(
    topo: Topology, provider: PairwiseElpProvider
) -> TaggerPlan:
    """Plan a damaged Clos with its first residue pair left at its
    pristine paths.

    Models a liveness filter that misses a pair a failed link cuts: the
    certified graph is built, then that pair's pristine paths — the dead
    ones through the failed link among them — are walked back onto it,
    so the plan keeps tagging them. Identity on fabrics that do not
    certify or whose failed links cut no up-down path.
    """
    cert = certify(topo, provider)
    if cert is None or not cert.residue:
        return TaggerPlan.from_provider(topo, provider)
    failed = topo.failed_links
    topo.restore_all()
    pristine = provider.pair_paths(topo, *cert.residue[0])
    for a, b in failed:
        topo.fail_link(a, b)
    graph = TaggedGraph()
    cert.populate_graph(graph)
    for path in pristine:
        add_tagged_path(graph, topo, path)
    return compile_plan(topo, graph, 8, StageTimer())


def deploy_phantom_ack(agents: Dict[str, "SwitchAgent"]) -> None:
    """Make one diff-carrying agent ack batches without applying any op.

    Models the classic lying switch agent: the RPC layer works, the
    journal records the batch, but the TCAM write path is broken. Acks
    alone would declare the rollout converged; the orchestrator's
    readback verification must observe the stale table, fail to
    reconcile, and refuse to report convergence — which the
    ``deployment-divergence`` invariant then flags.
    """
    for switch in sorted(agents):
        agents[switch].op_filter = lambda op: None
        return


def deploy_lost_remove(agents: Dict[str, "SwitchAgent"]) -> None:
    """Make every agent silently drop delete operations (installs work).

    Models an agent (or ASIC SDK) whose delete path no-ops while still
    acking — deployed tables keep stale rules forever. Identity on
    transitions with no removed rules; otherwise readback verification
    sees the leftovers and the rollout cannot converge.
    """
    from repro.deploy.agent import OP_REMOVE

    def drop_removes(op: "ApplyOp") -> "Optional[ApplyOp]":
        return None if op.action == OP_REMOVE else op

    for agent in agents.values():
        agent.op_filter = drop_removes


class Fault(NamedTuple):
    """One artificial bug: where it is injected and what must catch it."""

    name: str
    #: The cross-check stage (``crosscheck.STAGES`` name) handed ``inject``.
    stage: str
    #: Corrupts that stage's subject; see the stage for the call shape.
    inject: Callable[..., Any]
    #: Invariants of that stage, at least one of which the fault must trip.
    trips: Tuple[str, ...]
    bug: str


#: The only declaration of the faults, grouped by stage in stage order.
#: ``cross_check``, the CLI, the self-tests and the table in
#: docs/FUZZING.md all read these rows; adding a fault is one row here.
FAULT_TABLE: Tuple[Fault, ...] = (
    Fault(
        "skip-r2",
        "greedy",
        skip_r2,
        ("greedy-unsafe",),
        "inverts tag order, violating monotonicity (R2)",
    ),
    Fault(
        "collapse-tags",
        "greedy",
        collapse_tags,
        ("greedy-unsafe",),
        "merges every tag into one, re-creating CBDs (R1)",
    ),
    Fault(
        "tcam-shadow",
        "lint",
        tcam_shadow,
        ("lint-dirty",),
        "swaps the safeguard above an explicit entry (S101/S104)",
    ),
    Fault(
        "tcam-drop-safeguard",
        "lint",
        tcam_drop_safeguard,
        ("lint-dirty",),
        "strips the trailing safeguard default (S105)",
    ),
    Fault(
        "rule-decrease-tag",
        "lint",
        rule_decrease_tag,
        ("lint-dirty",),
        "rewrites one rule back to the initial tag (T002)",
    ),
    Fault(
        "rule-tag-cycle",
        "lint",
        rule_tag_cycle,
        ("lint-dirty",),
        "installs a two-rule ping-pong CBD (T001)",
    ),
    Fault(
        "clos-ignore-bounce",
        "clos",
        clos_ignore_bounce,
        ("clos-unsafe",),
        "Clos tagger's turn rule never fires (`raises_tag` always false)",
    ),
    Fault(
        "symmetry-drop-rule",
        "symmetry",
        symmetry_drop_rule,
        ("symmetry-divergence",),
        "loses one rule from the provider-planned tables",
    ),
    Fault(
        "symmetry-residue-drop",
        "symmetry",
        symmetry_residue_drop,
        ("symmetry-divergence",),
        "walks one residue pair's pristine paths, dead ones included, "
        "back onto a damaged Clos's liveness-filtered graph",
    ),
    Fault(
        "replan-drop-rule",
        "replan",
        drop_rule,
        ("incremental-divergence",),
        "re-plans correctly, then loses one rule install from the result",
    ),
    Fault(
        "deploy-phantom-ack",
        "deploy",
        deploy_phantom_ack,
        ("deployment-divergence",),
        "one switch agent acks every batch without applying it",
    ),
    Fault(
        "deploy-lost-remove",
        "deploy",
        deploy_lost_remove,
        ("deployment-divergence",),
        "every agent silently drops rule removals",
    ),
)


def fault_row(name: str) -> Fault:
    """The :data:`FAULT_TABLE` row called ``name``."""
    for row in FAULT_TABLE:
        if row.name == name:
            return row
    raise FaultError(
        f"unknown fault {name!r}; available: {', '.join(_fault_names())}"
    )


def check_fault_name(name: str) -> str:
    return fault_row(name).name


def _fault_names() -> Tuple[str, ...]:
    return tuple(sorted(row.name for row in FAULT_TABLE))


def __getattr__(name: str) -> Tuple[str, ...]:
    # ``FAULTS`` (all fault names, sorted) is computed from the rows on
    # every read, so it cannot drift from the table.
    if name == "FAULTS":
        return _fault_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
