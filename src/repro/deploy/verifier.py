"""Transitional-safety verification of a rollout wave ordering.

A rollout is never atomic: while wave *k* is in flight, switches in
earlier waves run the new tables, switches in later waves still run the
old ones, and switches inside the wave are anywhere in between — old,
new, or (after a partial batch) a per-key mixture. Deadlocks form
exactly in those windows, so the orchestrator must prove every reachable
mixed state safe **before sending a single RPC**, or refuse the rollout.

The proof leans on one structural fact:

1. In the effective tagged graph (:func:`~repro.core.rules.rules_to_tagged_graph`),
   every edge is derived from exactly *one* switch's rule. The graph of
   any mixed fleet state is therefore the per-switch union of each
   switch's own edges.
2. Requirements R1 (per-tag acyclicity) and R2 (tag monotonicity) are
   *downward closed*: any subgraph of a graph satisfying them satisfies
   them too (removing edges can neither create a cycle nor a decreasing
   edge). Removing a rule only ever demotes packets to the lossy class —
   a coverage loss, never a safety loss.
3. Under idempotent set/remove batches, every intermediate table a
   switch can hold is a per-key choice between its old and new rules, so
   its edge set is a subset of (old edges ∪ new edges) for that switch.

Hence: if the **union graph** — old edges ∪ new edges across the
relevant switches — certifies R1/R2, then *every* reachable transitional
state does, including arbitrary per-key partial batches, reorderings,
and stragglers. :func:`certify_rollout` checks, in this order,

- the **global union** (old ∪ new everywhere): when safe, any
  old/new/partial mixture whatsoever is safe, which is what lets the
  orchestrator quarantine an unreachable switch instead of wedging.
  Every boundary graph and every per-wave union below is a subgraph of
  it, so by fact 2 a safe global union settles them all and they are
  not built;
- only when the global union fails, a **per-wave union** for each wave
  (prefix new, wave old∪new, suffix old) and the R1/R2 verdict of every
  boundary graph: a finer certificate that can pass when the global
  union fails, at the price of requiring the wave barriers to be
  respected;
- every **wave-boundary fleet state** (a concrete, quiescent table set)
  through the full deployment linter — T001–T004 graph certification
  plus the S/R/B families — reusing :mod:`repro.lint` verbatim. By fact
  1 the linter's per-switch findings depend on one switch's table only,
  so the ``W+1`` boundaries (and the orchestrator's final ground-truth
  lint) share one :class:`~repro.lint.LintSections`: a switch is
  validated and compiled once per distinct rule content per rollout.

The certificate is a value: the orchestrator embeds it in its report,
and refuses to execute when :attr:`TransitionCertificate.ok` is false.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.pipeline import QueueMap
from repro.core.rules import RuleTable, rules_to_tagged_graph
from repro.core.tags import INITIAL_TAG, LOSSY_TAG, TaggedGraph
from repro.core.verification import verify_tagged_graph
from repro.exceptions import ReproError
from repro.lint import LintSections, lint_tables
from repro.topology.base import Topology

Tables = Dict[str, RuleTable]


def transition_queue_map(old: Tables, new: Tables) -> QueueMap:
    """Identity queue map wide enough for every tag either plan uses."""
    max_tag = INITIAL_TAG
    for tables in (old, new):
        for table in tables.values():
            for key, new_tag in table.rules.items():
                if new_tag != LOSSY_TAG:
                    max_tag = max(max_tag, key[0], new_tag)
    return QueueMap.identity(max_tag, max(8, max_tag))


def mixed_tables(old: Tables, new: Tables, updated: Set[str]) -> Tables:
    """The fleet's table set when exactly ``updated`` run the new plan.

    A switch absent from a plan simply has no table in that state (its
    packets demote via the safeguard — safe by construction).
    """
    tables: Tables = {}
    # Sorted so the mixed table set (and everything downstream of its
    # insertion order: wave reports, lint rendering, union-graph edge
    # order) is independent of hash seeding — pinned by
    # tests/deploy/test_verifier.py::test_mixed_tables_order_pinned.
    for switch in sorted(set(old) | set(new)):
        source = new if switch in updated else old
        table = source.get(switch)
        if table is not None:
            tables[switch] = table
    return tables


def _graph_or_error(
    topo: Topology, tables: Tables
) -> Tuple[Optional[TaggedGraph], Optional[str]]:
    """Effective tagged graph, or the reason it cannot even be built.

    A tag-decreasing rule makes graph reconstruction raise — that *is*
    an R2 violation, reported as such rather than propagated.
    """
    try:
        return rules_to_tagged_graph(topo, tables), None
    except ReproError as exc:
        return None, f"R2 violated while rebuilding graph: {exc}"


def _merge(into: TaggedGraph, graph: TaggedGraph) -> None:
    for node in graph.nodes:
        into.add_node(node)
    for src, dst in graph.edges():
        into.add_edge(src, dst)


def _union(graphs: Sequence[TaggedGraph]) -> TaggedGraph:
    union = TaggedGraph()
    for graph in graphs:
        _merge(union, graph)
    return union


def _global_union_certifies(topo: Topology, old: Tables, new: Tables) -> bool:
    """R1/R2 on the old ∪ new graph, at the cost of one graph build plus
    the transition's delta: a table both plans share contributes the
    same edges twice, so only ``new`` tables whose rules differ are
    added on top of the old graph."""
    changed = {
        switch: table
        for switch, table in new.items()
        if switch not in old or table.rules != old[switch].rules
    }
    try:
        union = rules_to_tagged_graph(topo, old)
        _merge(union, rules_to_tagged_graph(topo, changed))
    except ReproError:
        return False
    return verify_tagged_graph(union).deadlock_free


@dataclass
class TransitionCertificate:
    """Outcome of certifying one wave ordering for one table transition.

    ``ok`` (boundaries lint error-clean + every per-wave union graph
    verifies) is the execution gate. ``covers_stragglers`` (the global
    union verifies) additionally certifies states *outside* the wave
    order — a wedged switch left behind on old or partial rules while
    the rollout proceeds — and is required for quarantine-and-continue.
    """

    waves: List[List[str]] = field(default_factory=list)
    #: Rendered error-severity lint findings per wave boundary k
    #: (boundary k = waves[:k] updated, rest old); length len(waves)+1.
    boundary_errors: List[List[str]] = field(default_factory=list)
    #: Per-wave union-graph verdict (None = safe).
    wave_errors: List[Optional[str]] = field(default_factory=list)
    #: Global union-graph verdict (None = safe).
    global_error: Optional[str] = None
    #: Reachable per-switch old/new state combinations the certificate
    #: covers (every one of them additionally covers all of its per-key
    #: partial-batch refinements).
    states_covered: int = 0
    switches_touched: int = 0

    @property
    def ok(self) -> bool:
        return (
            all(not errors for errors in self.boundary_errors)
            and all(error is None for error in self.wave_errors)
        )

    @property
    def covers_stragglers(self) -> bool:
        return self.global_error is None

    def first_error(self) -> Optional[str]:
        for k, errors in enumerate(self.boundary_errors):
            if errors:
                return f"boundary {k}: {errors[0]}"
        for k, error in enumerate(self.wave_errors):
            if error is not None:
                return f"wave {k}: {error}"
        return None

    def describe(self) -> str:
        if not self.ok:
            return f"UNSAFE transition: {self.first_error()}"
        scope = (
            "any straggler mix"
            if self.covers_stragglers
            else "wave-ordered states only"
        )
        return (
            f"certified {self.states_covered} reachable state(s) across "
            f"{len(self.waves)} wave(s), {self.switches_touched} "
            f"switch(es) ({scope})"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "covers_stragglers": self.covers_stragglers,
            "waves": [list(wave) for wave in self.waves],
            "boundary_errors": [list(e) for e in self.boundary_errors],
            "wave_errors": list(self.wave_errors),
            "global_error": self.global_error,
            "states_covered": self.states_covered,
        }


def certify_rollout(
    topo: Topology,
    old: Tables,
    new: Tables,
    waves: Sequence[Sequence[str]],
    lint_boundaries: bool = True,
    sections: Optional[LintSections] = None,
    queue_map: Optional[QueueMap] = None,
) -> TransitionCertificate:
    """Certify every state reachable under ``waves`` ordering.

    The global union (old ∪ new everywhere) is verified first: every
    boundary graph and every per-wave union is a subgraph of it, and
    R1/R2 are downward closed, so when it certifies they are all safe by
    implication and none of them is built. Only when it fails does the
    fine-grained path run: one graph per boundary, one union per wave.

    ``lint_boundaries=False`` skips the full linter at quiescent
    boundaries and keeps only the (sound and much faster) union-graph
    R1/R2 certification — the fuzz harness uses it for throughput.
    ``sections`` and ``queue_map`` (:func:`transition_queue_map` of the
    two plans) let a caller that lints this transition again share the
    boundary lints' per-switch stage and skip the map's recomputation;
    without them the boundaries share among themselves.
    """
    cert = TransitionCertificate(waves=[list(w) for w in waves])
    cert.switches_touched = sum(len(w) for w in waves)

    updated: Set[str] = set()
    boundaries = [set(updated)]
    for wave in waves:
        updated = updated | set(wave)
        boundaries.append(set(updated))

    if _global_union_certifies(topo, old, new):
        graph_errors: List[List[str]] = [[] for _ in boundaries]
        cert.wave_errors = [None] * len(waves)
    else:
        graph_errors = _certify_wave_order(topo, old, new, boundaries, cert)

    # Wave-boundary quiescent states through the full linter.
    if lint_boundaries:
        if queue_map is None:
            queue_map = transition_queue_map(old, new)
        if sections is None:
            sections = LintSections(topo)
        for done, errors in zip(boundaries, graph_errors):
            if not errors:
                report = lint_tables(
                    topo,
                    mixed_tables(old, new, done),
                    queue_map,
                    sections=sections,
                )
                errors.extend(d.render() for d in report.errors)
    cert.boundary_errors = graph_errors

    if cert.covers_stragglers:
        cert.states_covered = 2 ** min(cert.switches_touched, 62)
    else:
        cert.states_covered = len(boundaries) + sum(
            2 ** min(len(wave), 62) - 2 for wave in waves if len(wave) > 1
        )
    return cert


def _certify_wave_order(
    topo: Topology,
    old: Tables,
    new: Tables,
    boundaries: Sequence[Set[str]],
    cert: TransitionCertificate,
) -> List[List[str]]:
    """The fine-grained certificate, for a transition whose global union
    does not certify: R1/R2 on every boundary graph and every per-wave
    union, and the global union's own verdict for the record. Fills
    ``cert.wave_errors`` and ``cert.global_error``; returns the
    per-boundary graph verdicts."""
    built = [
        _graph_or_error(topo, mixed_tables(old, new, done))
        for done in boundaries
    ]
    boundary_graphs = [graph for graph, _ in built]
    boundary_errors: List[List[str]] = []
    for graph, graph_error in built:
        errors: List[str] = []
        if graph_error is not None:
            errors.append(graph_error)
        elif graph is not None:
            verdict = verify_tagged_graph(graph).violation()
            if verdict is not None:
                errors.append(verdict)
        boundary_errors.append(errors)

    # Per-wave unions: cover every in-flight subset (and, via per-key
    # subgraph closure, every partial batch) between two boundaries.
    for k in range(len(boundaries) - 1):
        before, after = boundary_graphs[k], boundary_graphs[k + 1]
        if before is None or after is None:
            cert.wave_errors.append(
                "boundary graph unavailable (R2 violation upstream)"
            )
            continue
        try:
            union = _union([before, after])
        except ReproError as exc:
            cert.wave_errors.append(f"R2 violated in wave union: {exc}")
            continue
        cert.wave_errors.append(verify_tagged_graph(union).violation())

    # Global union: why arbitrary straggler mixes are not covered.
    # Boundary 0 is the old fleet.
    old_graph, old_error = built[0]
    new_graph, new_error = _graph_or_error(
        topo, mixed_tables(old, new, set(old) | set(new))
    )
    if old_error or new_error or old_graph is None or new_graph is None:
        cert.global_error = old_error or new_error
    else:
        try:
            cert.global_error = verify_tagged_graph(
                _union([old_graph, new_graph])
            ).violation()
        except ReproError as exc:
            cert.global_error = f"R2 violated in global union: {exc}"
    return boundary_errors
