"""Reference ``certify_rollout``: the pre-shortcut algorithm, frozen.

A verbatim copy of the verifier as it stood before rollout
certification became delta-proportional. It takes neither shortcut the
production verifier takes:

- it never concludes anything by subgraph implication — every boundary
  graph, every per-wave union and the global union are built and
  verified on their own, in the original order;
- every boundary goes through a fresh one-shot ``lint_tables`` that
  shares nothing with any other lint.

``tests/deploy/test_certify_differential.py`` asserts the production
certificate equals this one field for field. Do not "fix" or speed up
this file; it is the specification.
"""

from typing import List, Optional, Sequence, Set, Tuple

from repro.core.rules import rules_to_tagged_graph
from repro.core.tags import TaggedGraph
from repro.core.verification import VerificationReport, verify_tagged_graph
from repro.deploy import (
    TransitionCertificate,
    mixed_tables,
    transition_queue_map,
)
from repro.exceptions import ReproError
from repro.lint import lint_tables


def _graph_or_error(topo, tables) -> Tuple[Optional[TaggedGraph], Optional[str]]:
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


def _verdict(report: VerificationReport) -> Optional[str]:
    if report.deadlock_free:
        return None
    if report.decreasing_edge is not None:
        src, dst = report.decreasing_edge
        return f"R2 violated: edge {src} -> {dst} decreases the tag"
    assert report.tag_cycle is not None
    return f"R1 violated: cycle of {len(report.tag_cycle)} nodes"


def oracle_certify_rollout(topo, old, new, waves) -> TransitionCertificate:
    cert = TransitionCertificate(waves=[list(w) for w in waves])
    cert.switches_touched = sum(len(w) for w in waves)
    queue_map = transition_queue_map(old, new)

    boundary_graphs: List[Optional[TaggedGraph]] = []
    updated: Set[str] = set()
    boundaries = [set(updated)]
    for wave in waves:
        updated = updated | set(wave)
        boundaries.append(set(updated))
    for done in boundaries:
        tables = mixed_tables(old, new, done)
        graph, graph_error = _graph_or_error(topo, tables)
        boundary_graphs.append(graph)
        errors: List[str] = []
        if graph_error is not None:
            errors.append(graph_error)
        elif graph is not None:
            verdict = _verdict(verify_tagged_graph(graph))
            if verdict is not None:
                errors.append(verdict)
        if not errors:
            report = lint_tables(topo, tables, queue_map)
            errors.extend(d.render() for d in report.errors)
        cert.boundary_errors.append(errors)

    for k in range(len(waves)):
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
        cert.wave_errors.append(_verdict(verify_tagged_graph(union)))

    old_graph, old_error = _graph_or_error(topo, mixed_tables(old, new, set()))
    new_graph, new_error = _graph_or_error(
        topo, mixed_tables(old, new, set(old) | set(new))
    )
    if old_error or new_error or old_graph is None or new_graph is None:
        cert.global_error = old_error or new_error
    else:
        try:
            cert.global_error = _verdict(
                verify_tagged_graph(_union([old_graph, new_graph]))
            )
        except ReproError as exc:
            cert.global_error = f"R2 violated in global union: {exc}"

    if cert.covers_stragglers:
        cert.states_covered = 2 ** min(cert.switches_touched, 62)
    else:
        cert.states_covered = len(boundaries) + sum(
            2 ** min(len(wave), 62) - 2 for wave in waves if len(wave) > 1
        )
    return cert
