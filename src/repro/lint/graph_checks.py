"""T-family checks: certify Theorem 5.1 from the rule tables alone.

The effective tagged graph is re-derived from the deployed rules — no
planner state is consulted — in two stages:

- **per switch** (:func:`rule_section`): **T002 / T003 / T004** validate
  each rule individually (monotone rewrites, valid tag range, existing
  ports), because a malformed rule must surface as a diagnostic rather
  than as a reconstruction crash, and every rule is resolved once into
  the switch's ``(tag, in_port) -> continuations`` index. A section is a
  function of the table's rules and the switch's port set alone — no
  wiring, no switch name — so equal tables on equally numbered switches
  share one;
- **fabric-wide** (:func:`check_graph`): each section's findings are
  stamped with its switch. When every section is well formed and every
  switch's rules respect the rank potential φ (:mod:`repro.potential`),
  every edge raises φ, so **T001** cannot fire: the graph's stats are
  counted from the sections and no graph is built. Otherwise the edges
  are joined into one graph through each switch's :data:`PortMap`
  (violating rules are excluded so one bad rule cannot mask a cycle
  elsewhere) and **T001** runs the R1 per-tag cycle search on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.rules import MatchKey, RuleTable
from repro.core.tags import INITIAL_TAG, LOSSY_TAG, PortKey, TaggedGraph, TNode
from repro.lint.diagnostics import THIS_SWITCH, Diagnostic, make_diagnostic, stamp
from repro.topology.base import Topology

#: One rule seen from its match state: ``(out_port, new_tag)``.
Continuation = Tuple[int, int]

#: A switch's port numbers, or ``None`` when the topology has no such
#: switch (every rule is then rejected).
Ports = Optional[FrozenSet[int]]

#: One switch's wiring: each port's far end, the ingress
#: ``(switch, port)`` a packet sent out of it lands on, or ``None`` when
#: the port faces a host.
PortMap = Dict[int, Optional[PortKey]]


@dataclass(frozen=True)
class RuleSection:
    """Everything one table contributes to a lint, for any switch with
    its port set.

    ``transitions`` holds *every* rule, keyed by match state in sorted
    order with each state's continuations sorted by egress port, so
    iterating it replays the table in sorted-key order. It is the one
    structure both the tagged graph (minus ``rejected``) and the
    R-family closure are derived from.
    """

    #: T002-T004 findings, in sorted-rule order, naming no switch.
    diagnostics: Tuple[Diagnostic, ...]
    transitions: Dict[Tuple[int, int], Tuple[Continuation, ...]]
    #: Rules T002-T004 rejected; they contribute no graph edge.
    rejected: FrozenSet[MatchKey]
    #: Every tag a rule matches or (losslessly) rewrites to.
    tags: FrozenSet[int]


def _is_switch(topo: Topology, name: str) -> bool:
    return name in topo.nodes and topo.node(name).is_switch


def switch_ports(topo: Topology, switch: str) -> Ports:
    """The port set a section of ``switch`` is built for."""
    return frozenset(topo.ports(switch)) if _is_switch(topo, switch) else None


def port_maps(topo: Topology, switches: Iterable[str]) -> Dict[str, PortMap]:
    """The wiring half of the per-switch stage, read fabric-wide."""
    return {
        switch: {
            port: (peer, topo.port_to(peer, switch)) if _is_switch(topo, peer) else None
            for port, peer in (topo.ports(switch) if _is_switch(topo, switch) else {}).items()
        }
        for switch in switches
    }


def rule_section(rules: Mapping[MatchKey, int], ports: Ports) -> RuleSection:
    """Per-switch stage: validate ``rules`` and index their transitions."""
    diagnostics: List[Diagnostic] = []
    if ports is None:
        diagnostics.append(
            make_diagnostic(
                "T004", f"rules installed on unknown switch {THIS_SWITCH}"
            )
        )
    valid = ports or frozenset()
    grouped: Dict[Tuple[int, int], List[Continuation]] = {}
    rejected: List[MatchKey] = []
    tags: Set[int] = set()
    for key in sorted(rules):
        tag, in_port, out_port = key
        new_tag = rules[key]
        well_formed = (
            tag >= INITIAL_TAG
            and in_port in valid
            and out_port in valid
            and (new_tag == LOSSY_TAG or new_tag >= tag)
        )
        # A rule that passes the fast test passes _check_rule silently;
        # only the others pay for their diagnostics.
        if ports is None or (
            not well_formed and not _check_rule(valid, key, new_tag, diagnostics)
        ):
            rejected.append(key)
        tags.add(tag)
        if new_tag != LOSSY_TAG:
            tags.add(new_tag)
        grouped.setdefault((tag, in_port), []).append((out_port, new_tag))
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
        switch: rule_section(tables[switch].rules, switch_ports(topo, switch))
        for switch in sorted(tables)
    }


def _check_rule(
    ports: AbstractSet[int],
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
                location=location,
            )
        )
        ok = False
    for label, port in (("ingress", in_port), ("egress", out_port)):
        if port not in ports:
            diagnostics.append(
                make_diagnostic(
                    "T004",
                    f"rule references {label} port {port}, but "
                    f"{THIS_SWITCH} has no such port",
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
                location=location,
            )
        )
        ok = False
    return ok


def _effective_graph(
    sections: Mapping[str, RuleSection], wiring: Mapping[str, PortMap]
) -> TaggedGraph:
    """The tagged graph the well-formed rules induce (one edge per rule
    whose egress faces a switch)."""
    graph = TaggedGraph()
    for switch, section in sections.items():
        rejected = section.rejected
        far_ends = wiring[switch]
        for (tag, in_port), continuations in section.transitions.items():
            src = ((switch, in_port), tag)
            for out_port, new_tag in continuations:
                if new_tag == LOSSY_TAG:
                    continue
                if rejected and (tag, in_port, out_port) in rejected:
                    continue
                far_end = far_ends.get(out_port)
                if far_end is None:
                    graph.add_node(src)
                else:
                    graph.add_edge(src, (far_end, new_tag))
    return graph


def _potential_certifies(
    sections: Mapping[str, RuleSection], verdicts: Optional[Mapping[str, object]]
) -> bool:
    """Does the rank potential rule T001 out? Only when every section is
    free of T002-T004 findings and rejections and every switch's φ
    verdict is None (it has a rise vector under which no rule lowers
    φ): every edge of the graph then raises φ, so no tag holds a cycle
    (docs/THEORY.md §8)."""
    if verdicts is None:
        return False
    for switch, section in sections.items():
        if section.diagnostics or section.rejected:
            return False
        if switch not in verdicts or verdicts[switch] is not None:
            return False
    return True


#: A section's live match states, emitted ``(out_port, new_tag)`` pairs
#: and lossless rules per egress port (see :func:`_edge_summary`).
_Summary = Tuple[Set[Tuple[int, int]], Set[Continuation], Dict[int, int]]


def _edge_summary(section: RuleSection) -> _Summary:
    """What a section adds to the graph, before it meets the wiring: its
    live match states (``(tag, in_port)`` with a lossless rule), the
    ``(out_port, new_tag)`` pairs those rules emit, and how many lossless
    rules leave by each egress port."""
    live: Set[Tuple[int, int]] = set()
    emits: Set[Continuation] = set()
    per_port: Dict[int, int] = {}
    for state, continuations in section.transitions.items():
        for continuation in continuations:
            out_port, new_tag = continuation
            if new_tag == LOSSY_TAG:
                continue
            live.add(state)
            emits.add(continuation)
            per_port[out_port] = per_port.get(out_port, 0) + 1
    return live, emits, per_port


def _graph_stats(
    sections: Mapping[str, RuleSection], wiring: Mapping[str, PortMap]
) -> Dict[str, int]:
    """The stats of :func:`_effective_graph`'s graph, counted without
    building it, for sections with no rejected rule: a node per live
    match state and per ``(far end, new_tag)`` a switch-facing rule
    emits, an edge per switch-facing lossless rule (each leaves by its
    own port, so no two share a far end). Each distinct section is
    summarised once per call."""
    summaries: Dict[int, _Summary] = {}
    nodes: Set[TNode] = set()
    edges = 0
    for switch, section in sections.items():
        summary = summaries.get(id(section))
        if summary is None:
            summary = summaries[id(section)] = _edge_summary(section)
        live, emits, per_port = summary
        far_ends = wiring[switch]
        nodes.update(((switch, in_port), tag) for tag, in_port in live)
        for out_port, new_tag in emits:
            far_end = far_ends.get(out_port)
            if far_end is not None:
                nodes.add((far_end, new_tag))
        edges += sum(count for out_port, count in per_port.items() if far_ends.get(out_port) is not None)
    return {
        "graph_nodes": len(nodes),
        "graph_edges": edges,
        "graph_tags": len({tag for _port, tag in nodes}),
    }


def check_graph(
    topo: Topology,
    tables: Mapping[str, RuleTable],
    sections: Optional[Mapping[str, RuleSection]] = None,
    verdicts: Optional[Mapping[str, object]] = None,
) -> Tuple[List[Diagnostic], Dict[str, int]]:
    """Run the T-family checks; returns (diagnostics, graph stats).

    ``sections`` are the tables' per-switch sections when the caller
    already holds them (sorted switch order); otherwise built here.
    ``verdicts`` are the switches' φ verdicts (:mod:`repro.potential`;
    None where φ certifies the switch). When they certify every switch,
    T001 cannot fire: the graph is neither built nor searched, and its
    stats are counted from the sections. Otherwise the effective graph
    is built and every tag searched for a cycle.
    """
    if sections is None:
        sections = rule_sections(topo, tables)
    diagnostics: List[Diagnostic] = []
    for switch, section in sections.items():
        diagnostics.extend(stamp(section.diagnostics, switch))
    wiring = port_maps(topo, sections)
    if _potential_certifies(sections, verdicts):
        return diagnostics, _graph_stats(sections, wiring)
    graph = _effective_graph(sections, wiring)
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
