"""T-family checks: certify Theorem 5.1 from the rule tables alone.

The effective tagged graph is re-derived from the deployed rules — no
planner state is consulted — in two stages:

- **per switch** (:func:`rule_section`): **T002 / T003 / T004** validate
  each rule individually (monotone rewrites, valid tag range, existing
  ports), because a malformed rule must surface as a diagnostic rather
  than as a reconstruction crash, and every rule is resolved once into
  the switch's ``(tag, in_port) -> continuations`` index. Every edge of
  the graph derives from exactly one switch's table, so a section
  depends on nothing but that table and the wiring;
- **fabric-wide** (:func:`check_graph`): the sections' edges are joined
  into one graph (violating rules are excluded so one bad rule cannot
  mask a cycle elsewhere) and **T001** runs the R1 per-tag cycle search
  on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.core.rules import MatchKey, RuleTable
from repro.core.tags import INITIAL_TAG, LOSSY_TAG, PortKey, TaggedGraph
from repro.lint.diagnostics import Diagnostic, make_diagnostic
from repro.topology.base import Topology

#: One rule seen from its match state: ``(out_port, new_tag, far end)``.
#: The far end is the ingress ``(switch, port)`` the packet lands on, or
#: ``None`` when the egress faces a host or a port the switch lacks.
Continuation = Tuple[int, int, Optional[PortKey]]


@dataclass(frozen=True)
class RuleSection:
    """Everything one switch's rule table contributes to a lint.

    ``transitions`` holds *every* rule, keyed by match state in sorted
    order with each state's continuations sorted by egress port, so
    iterating it replays the table in sorted-key order. It is the one
    structure both the tagged graph (minus ``rejected``) and the
    R-family closure are derived from.
    """

    #: T002-T004 findings, in sorted-rule order.
    diagnostics: Tuple[Diagnostic, ...]
    transitions: Dict[Tuple[int, int], Tuple[Continuation, ...]]
    #: Rules T002-T004 rejected; they contribute no graph edge.
    rejected: FrozenSet[MatchKey]
    #: Every tag a rule matches or (losslessly) rewrites to.
    tags: FrozenSet[int]
    #: R201 findings per match state, filled by the R-family the first
    #: time that state is found dead: *whether* a state is dead is a
    #: fabric-wide fact, what to report about its rules is not.
    dead_rule_findings: Dict[Tuple[int, int], Tuple[Diagnostic, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )


def rule_section(topo: Topology, switch: str, table: RuleTable) -> RuleSection:
    """Per-switch stage: validate ``table`` and index its transitions."""
    diagnostics: List[Diagnostic] = []
    known = switch in topo.nodes and topo.node(switch).is_switch
    if not known:
        diagnostics.append(
            make_diagnostic(
                "T004",
                f"rules installed on unknown switch {switch!r}",
                switch=switch,
            )
        )
    ports = topo.ports(switch) if known else {}
    far_ends: Dict[int, Optional[PortKey]] = {
        port: (peer, topo.port_to(peer, switch))
        if topo.node(peer).is_switch
        else None
        for port, peer in ports.items()
    }
    grouped: Dict[Tuple[int, int], List[Continuation]] = {}
    rejected: List[MatchKey] = []
    tags: Set[int] = set()
    for key in sorted(table.rules):
        tag, in_port, out_port = key
        new_tag = table.rules[key]
        if not known or not _check_rule(
            switch, ports, key, new_tag, diagnostics
        ):
            rejected.append(key)
        tags.add(tag)
        if new_tag != LOSSY_TAG:
            tags.add(new_tag)
        grouped.setdefault((tag, in_port), []).append(
            (out_port, new_tag, far_ends.get(out_port))
        )
    return RuleSection(
        diagnostics=tuple(diagnostics),
        transitions={
            state: tuple(continuations)
            for state, continuations in grouped.items()
        },
        rejected=frozenset(rejected),
        tags=frozenset(tags),
    )


def rule_sections(
    topo: Topology, tables: Mapping[str, RuleTable]
) -> Dict[str, RuleSection]:
    """Fresh sections for every table, in sorted switch order."""
    return {
        switch: rule_section(topo, switch, tables[switch])
        for switch in sorted(tables)
    }


def _check_rule(
    switch: str,
    ports: Dict[int, str],
    key: MatchKey,
    new_tag: int,
    diagnostics: List[Diagnostic],
) -> bool:
    tag, in_port, out_port = key
    location = f"({tag},{in_port},{out_port})->{new_tag}"
    ok = True
    if tag < INITIAL_TAG or new_tag < LOSSY_TAG:
        diagnostics.append(
            make_diagnostic(
                "T003",
                f"rule matches tag {tag} / rewrites to {new_tag}; lossless "
                f"tags start at {INITIAL_TAG} and only {LOSSY_TAG} demotes",
                switch=switch,
                location=location,
            )
        )
        ok = False
    for label, port in (("ingress", in_port), ("egress", out_port)):
        if port not in ports:
            diagnostics.append(
                make_diagnostic(
                    "T004",
                    f"rule references {label} port {port}, but {switch!r} "
                    f"has no such port",
                    switch=switch,
                    location=location,
                )
            )
            ok = False
    if ok and new_tag != LOSSY_TAG and new_tag < tag:
        diagnostics.append(
            make_diagnostic(
                "T002",
                f"rewrite decreases the tag ({tag} -> {new_tag}); a packet "
                "could re-enter an earlier priority class and close a "
                "cross-tag buffer dependency cycle",
                switch=switch,
                location=location,
            )
        )
        ok = False
    return ok


def _effective_graph(sections: Mapping[str, RuleSection]) -> TaggedGraph:
    """The tagged graph the well-formed rules induce (one edge per rule
    whose egress faces a switch)."""
    graph = TaggedGraph()
    for switch, section in sections.items():
        rejected = section.rejected
        for (tag, in_port), continuations in section.transitions.items():
            src = ((switch, in_port), tag)
            for out_port, new_tag, far_end in continuations:
                if new_tag == LOSSY_TAG:
                    continue
                if rejected and (tag, in_port, out_port) in rejected:
                    continue
                if far_end is None:
                    graph.add_node(src)
                else:
                    graph.add_edge(src, (far_end, new_tag))
    return graph


def check_graph(
    topo: Topology,
    tables: Mapping[str, RuleTable],
    sections: Optional[Mapping[str, RuleSection]] = None,
) -> Tuple[List[Diagnostic], Dict[str, int]]:
    """Run the T-family checks; returns (diagnostics, graph stats).

    ``sections`` are the tables' per-switch sections when the caller
    already holds them (sorted switch order); otherwise built here.
    """
    if sections is None:
        sections = rule_sections(topo, tables)
    diagnostics: List[Diagnostic] = []
    for section in sections.values():
        diagnostics.extend(section.diagnostics)
    graph = _effective_graph(sections)
    for tag in graph.tags():
        cycle = graph.find_tag_cycle(tag)
        if cycle is None:
            continue
        pretty = " -> ".join(f"{sw}:{port}" for (sw, port), _ in cycle)
        diagnostics.append(
            make_diagnostic(
                "T001",
                f"tag {tag} subgraph contains the buffer-dependency cycle "
                f"{pretty} -> {cycle[0][0][0]}:{cycle[0][0][1]} "
                "(requirement R1 fails; this is a CBD)",
                switch=cycle[0][0][0],
                location=f"tag {tag}",
            )
        )
    stats = {
        "graph_nodes": graph.num_nodes,
        "graph_edges": graph.num_edges,
        "graph_tags": graph.num_tags,
    }
    return diagnostics, stats
