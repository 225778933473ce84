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

- the **rank potential** (:mod:`repro.potential`) of every old and
  every new table: φ depends on the fabric alone, so when each table
  respects it on its switch, every edge of the global union below
  raises φ and the union certifies without being built. Each distinct
  content is judged once, in the :class:`~repro.lint.LintSections` the
  boundaries and the final lint share;
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
  for the error findings the full deployment linter would report. By
  fact 1 the linter's per-switch sections depend on one switch's table
  only, and while every rule is well formed its fabric-wide stage cannot
  add an error to a boundary whose graph the checks above certified
  (:func:`_boundary_lint_errors` has the argument). So a boundary's
  verdict is its switches' section errors plus that graph proof: each
  distinct (rule content, port set) is validated and compiled once,
  whichever switches and boundaries hold it, and the ``W+1`` boundaries
  share those sections with the orchestrator's final ground-truth lint
  — the one full :func:`~repro.lint.lint_tables` of a rollout — through
  one :class:`~repro.lint.LintSections`.

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
from repro.exceptions import LintError, ReproError
from repro.lint import LintSections, lint_tables
from repro.lint.diagnostics import Severity, stamp
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


def _union(graphs: Sequence[TaggedGraph]) -> TaggedGraph:
    union = TaggedGraph()
    for graph in graphs:
        for node in graph.nodes:
            union.add_node(node)
        for src, dst in graph.edges():
            union.add_edge(src, dst)
    return union


def _potential_certifies(old: Tables, new: Tables, switches: "_SwitchVerdicts") -> bool:
    """Does the rank potential certify the global union? It does when
    every old table and every new table whose rules differ is certified
    by φ on its switch (an unchanged table has its old verdict): φ
    depends on the fabric alone, so every edge of old ∪ new raises it,
    and no tag of the union holds a cycle or falls. Each distinct
    content is judged once, in the sections the boundaries and the
    final lint share."""
    return all(switches.certified(switch, False) for switch in old) and all(
        switches.certified(switch, True)
        for switch, table in new.items()
        if switch not in old or table.rules != old[switch].rules
    )


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
    sections: Optional[LintSections] = None,
) -> TransitionCertificate:
    """Certify every state reachable under ``waves`` ordering.

    The global union (old ∪ new everywhere) is verified first — by the
    rank potential of each old and new table when every one respects
    it, else by building the union graph. Every boundary graph and every
    per-wave union is a subgraph of it, and R1/R2 are downward closed,
    so when it certifies they are all safe by implication and none of
    them is built. Only when it fails does the
    fine-grained path run: one graph per boundary, one union per wave.

    Each boundary whose graph certified then gets the error findings
    :func:`~repro.lint.lint_tables` would report for it, built from
    per-switch sections (:func:`_boundary_lint_errors`). ``sections``
    lets a caller that lints this transition again share the per-switch
    stage; like :func:`~repro.lint.lint_artifact`, it raises
    :class:`~repro.exceptions.LintError` when they were built for
    another topology.
    """
    if sections is not None and sections.topo is not topo:
        raise LintError("LintSections belong to a different topology")
    cert = TransitionCertificate(waves=[list(w) for w in waves])
    cert.switches_touched = sum(len(w) for w in waves)

    updated: Set[str] = set()
    boundaries = [set(updated)]
    for wave in waves:
        updated = updated | set(wave)
        boundaries.append(set(updated))

    switches = _SwitchVerdicts(sections if sections is not None else LintSections(topo), old, new)
    if _potential_certifies(old, new, switches):
        graph_errors: List[List[str]] = [[] for _ in boundaries]
        cert.wave_errors = [None] * len(waves)
    else:
        graph_errors = _certify_wave_order(topo, old, new, boundaries, cert)

    _boundary_lint_errors(topo, old, new, boundaries, graph_errors, switches)
    cert.boundary_errors = graph_errors

    if cert.covers_stragglers:
        cert.states_covered = 2 ** min(cert.switches_touched, 62)
    else:
        cert.states_covered = len(boundaries) + sum(
            2 ** min(len(wave), 62) - 2 for wave in waves if len(wave) > 1
        )
    return cert


#: A switch's part of a boundary's errors: its program section's rendered
#: error findings, or None when its rule section has a T002-T004 finding.
_Verdict = Optional[Tuple[str, ...]]


class _SwitchVerdicts:
    """Each switch's old and new table, resolved once per certificate
    through the shared sections: whether φ certifies it, and its part
    of a boundary's lint errors."""

    def __init__(self, sections: LintSections, old: Tables, new: Tables) -> None:
        self.sections = sections
        self._tables = {False: old, True: new}
        self._judged: Dict[Tuple[str, bool], Tuple[bool, _Verdict]] = {}

    def _judge(self, switch: str, updated: bool) -> Tuple[bool, _Verdict]:
        key = (switch, updated)
        if key not in self._judged:
            rule, program, verdict = self.sections.resolve(switch, self._tables[updated][switch])
            assert rule is not None
            self._judged[key] = (
                not rule.diagnostics and verdict is None,
                None
                if rule.diagnostics
                else tuple(
                    d.render()
                    for d in stamp(program.diagnostics, switch)
                    if d.severity is Severity.ERROR
                ),
            )
        return self._judged[key]

    def certified(self, switch: str, updated: bool) -> bool:
        return self._judge(switch, updated)[0]

    def lint_errors(self, switch: str, updated: bool) -> _Verdict:
        return self._judge(switch, updated)[1]


def _boundary_lint_errors(
    topo: Topology,
    old: Tables,
    new: Tables,
    boundaries: Sequence[Set[str]],
    graph_errors: List[List[str]],
    switches: _SwitchVerdicts,
) -> None:
    """Append to each boundary whose graph certified the error findings
    a full :func:`~repro.lint.lint_tables` of it would report.

    While every rule passes T002-T004, only the program sections can
    contribute one. T001 cannot fire: the boundary's graph — or the
    global union it is a subgraph of — was certified for R1 above, and
    lint's graph is a subgraph of it. R201-R203 are never errors, B301
    has no budget here, and B302 cannot fire under
    :func:`transition_queue_map`: live tags are then the initial tag and
    lossless rewrites of the two plans, all within the map. So each
    switch's verdict is taken once for its old and once for its new
    table, from sections shared by every switch with that content, and a
    boundary's errors are its switches' program-section errors, stamped
    with the switch, in sorted switch order, as the linter orders them.
    A boundary holding a rule T002-T004 rejects — malformed input, where
    a negative rewrite can be a live unmapped tag — is linted in full.
    """
    names = sorted(set(old) | set(new))
    for done, errors in zip(boundaries, graph_errors):
        if errors:
            continue
        found: List[str] = []
        for switch in names:
            updated = switch in done
            if switch not in (new if updated else old):
                continue
            program_errors = switches.lint_errors(switch, updated)
            if program_errors is None:
                report = lint_tables(
                    topo,
                    mixed_tables(old, new, done),
                    transition_queue_map(old, new),
                    sections=switches.sections,
                )
                found = [d.render() for d in report.errors]
                break
            found.extend(program_errors)
        errors.extend(found)


def _certify_wave_order(
    topo: Topology,
    old: Tables,
    new: Tables,
    boundaries: Sequence[Set[str]],
    cert: TransitionCertificate,
) -> List[List[str]]:
    """The graph certificate, for a transition φ does not certify.

    The global union goes first, as boundary 0's graph (the old fleet)
    plus the graph of the new tables whose rules differ: a table both
    plans share contributes the same edges twice. When it certifies,
    every boundary graph and per-wave union is a subgraph of it and none
    is built. Otherwise its verdict is ``cert.global_error``, and R1/R2
    are checked on every boundary graph and every per-wave union. Fills
    ``cert.wave_errors``; returns the per-boundary graph verdicts."""
    first = _graph_or_error(topo, mixed_tables(old, new, boundaries[0]))
    old_graph, global_error = first
    if old_graph is not None:
        # Sorted, as mixed_tables orders them, so an R2 witness names
        # the rule the all-new fleet's graph would have raised on.
        changed = {
            switch: new[switch]
            for switch in sorted(new)
            if switch not in old or new[switch].rules != old[switch].rules
        }
        delta, global_error = _graph_or_error(topo, changed)
        if delta is not None:
            global_error = verify_tagged_graph(_union([old_graph, delta])).violation()
    if global_error is None:
        cert.wave_errors = [None] * (len(boundaries) - 1)
        return [[] for _ in boundaries]
    cert.global_error = global_error

    built = [first] + [
        _graph_or_error(topo, mixed_tables(old, new, done))
        for done in boundaries[1:]
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
        # Both graphs were built by add_edge, which refused every
        # tag-decreasing edge, so their union cannot raise.
        cert.wave_errors.append(
            verify_tagged_graph(_union([before, after])).violation()
        )
    return boundary_errors
