"""Determinism-aware tag minimization (rule-realizable Algorithm 2).

Algorithm 2 as printed in the paper assigns new tags to tagged-graph
*nodes* independently. Hardware rules, however, match only
``(tag, InPort, OutPort)`` — the rewrite must be a **function** of that
key. When the greedy pass merges two brute-force nodes ``(Ai, t1)`` and
``(Ai, t2)`` into one class but sends their same-port successors
``(Bj, t1+1)`` and ``(Bj, t2+1)`` to *different* classes, no rule table
can realize the result: the switch would need two rewrites for one match
key. (On the paper's testbed Clos with a 1-bounce ELP this actually
happens — see ``tests/core/test_determinize.py``.)

This module re-runs the greedy merge while building the transition
function explicitly:

- processing brute-force tags in ascending order (monotonicity, as in
  Algorithm 2);
- a node whose predecessor transitions are already defined is *forced*
  into the class those transitions dictate (the DFA-congruence closure of
  the merge);
- otherwise the node greedily tries the current class, then a new one,
  under the same per-class acyclicity sandbox as Algorithm 2;
- on contradiction (two predecessors force different classes, or the
  forced class closes a cycle) the node falls back to the lowest feasible
  class and the losing transitions keep their earlier definitions — the
  affected packets simply follow the earlier rules, and end-to-end ELP
  coverage is re-measured afterwards rather than assumed.

The output is directly a set of per-switch rule tables plus the tagged
graph they induce; by construction rule generation can never conflict.
Every plan, the re-planner's included, runs from scratch: no run keeps
state for a later one to resume from.

*One tag when one tag suffices.* Drop the tags and the brute-force
graph collapses to a graph on ingress ports. If that collapse is acyclic,
every sandbox check passes (the class-1 sandbox is a subgraph of it), so by
induction over the scan every node gets class 1 and every transition is
defined as 1: one ``(1, in_port, out_port) -> 1`` rule per collapsed
edge, and the collapse at tag 1 as the graph. The dispatch peels the
collapse once (Kahn) and returns that answer in closed form when every
port peels (up-down Clos ELPs); otherwise, a self-loop included, it runs
the merge unchanged. ``compile_plan``'s verifier judges either branch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.greedy import _Sandbox
from repro.core.rules import RuleTable
from repro.core.tags import INITIAL_TAG, PortKey, TaggedGraph, TNode
from repro.exceptions import TaggingError
from repro.topology.base import Topology

#: A transition key: packet in state (src_port, src_class) forwarded onto
#: the link whose far end is dst_port.
TransKey = Tuple[PortKey, int, PortKey]


@dataclass
class DeterministicTagging:
    """Result of :func:`deterministic_minimize`."""

    tables: Dict[str, RuleTable]
    graph: TaggedGraph
    node_class: Dict[TNode, int]
    num_tags: int
    contradictions: int

    @property
    def total_rules(self) -> int:
        return sum(len(table) for table in self.tables.values())


def deterministic_minimize(
    topo: Topology, bruteforce: TaggedGraph
) -> DeterministicTagging:
    """Minimize tags while keeping the rewrite a function of its match key."""
    if bruteforce.num_nodes == 0:
        raise TaggingError("cannot minimize an empty tagged graph")
    collapse = _port_collapse(bruteforce)
    if _peels(collapse):
        return _one_class(topo, bruteforce, collapse)
    return _merge(topo, bruteforce)


def _port_collapse(bruteforce: TaggedGraph) -> Dict[PortKey, Set[PortKey]]:
    """The graph with its tags dropped: ingress port -> successor ports."""
    collapse: Dict[PortKey, Set[PortKey]] = {}
    for node in bruteforce.nodes:
        succs = collapse.setdefault(node[0], set())
        succs.update(map(itemgetter(0), bruteforce.successors(node)))
    return collapse


def _peels(collapse: Dict[PortKey, Set[PortKey]]) -> bool:
    """True iff one Kahn pass peels every port (a self-loop never peels).

    Peeled here, not by ``find_tag_cycle``: the verifier that judges the
    closed form must not be what chose it."""
    indegree = Counter(chain.from_iterable(collapse.values()))
    frontier = [port for port in collapse if not indegree[port]]
    peeled = 0
    while frontier:
        peeled += len(frontier)
        hits = Counter(chain.from_iterable([collapse[p] for p in frontier]))
        frontier = []
        for port, count in hits.items():
            indegree[port] -= count
            if not indegree[port]:
                frontier.append(port)
    return peeled == len(collapse)


def _one_class(
    topo: Topology, bruteforce: TaggedGraph, collapse: Dict[PortKey, Set[PortKey]]
) -> DeterministicTagging:
    """The merge's answer on an acyclic collapse; ports and successors are
    visited in sorted order, so no order depends on the hash seed."""
    rank = {port: i for i, port in enumerate(sorted(collapse))}
    adjacency = {port: sorted(collapse[port], key=rank.__getitem__) for port in rank}
    tables: Dict[str, RuleTable] = {}
    for (switch, in_port), succs in adjacency.items():
        if not succs:
            continue
        if switch not in tables:  # a switch's ports are contiguous in rank
            tables[switch] = RuleTable(switch=switch)
            facing = topo.peer_ports(switch)
        tables[switch].rules.update(
            {(INITIAL_TAG, in_port, facing[peer]): INITIAL_TAG for peer, _ in succs}
        )
    return DeterministicTagging(
        tables=tables,
        graph=TaggedGraph.from_port_graph(adjacency),
        node_class=dict.fromkeys(bruteforce.nodes, INITIAL_TAG),
        num_tags=1,
        contradictions=0,
    )


def _merge(topo: Topology, bruteforce: TaggedGraph) -> DeterministicTagging:
    """The rule-realizable merge, scanned node by node."""
    node_class: Dict[TNode, int] = {}
    transitions: Dict[TransKey, int] = {}
    sandboxes: Dict[int, _Sandbox] = {}
    current = INITIAL_TAG
    contradictions = 0
    predecessors = bruteforce.predecessor_map()
    for old_tag in range(INITIAL_TAG, bruteforce.max_tag + 1):
        bumped = False
        for node in sorted(bruteforce.nodes_with_tag(old_tag)):
            port = node[0]
            preds = sorted(predecessors[node])
            pred_ports = [(pred, pred[0], node_class[pred]) for pred in preds]
            keys = [
                (pred_port, pred_cls, port)
                for _, pred_port, pred_cls in pred_ports
            ]
            defined = {transitions[k] for k in keys if k in transitions}

            if len(defined) == 1:
                candidates: List[int] = [next(iter(defined))]
            elif not defined:
                candidates = [current, current + 1]
            else:
                candidates = []  # predecessors force different classes

            assigned: Optional[int] = None
            for cls in candidates:
                if any(value != cls for value in defined):
                    continue
                if any(pred_cls > cls for _, _, pred_cls in pred_ports):
                    continue  # would need a tag-decreasing edge
                sandbox = sandboxes.setdefault(cls, _Sandbox())
                intra = [
                    pred_port
                    for _, pred_port, pred_cls in pred_ports
                    if pred_cls == cls
                ]
                if sandbox.would_cycle(port, intra):
                    continue
                assigned = cls
                break

            if assigned is None:
                contradictions += 1
                assigned = _fallback_class(
                    sandboxes, transitions, pred_ports, port, current
                )

            # Define transitions for predecessors whose key is still free
            # and whose class does not exceed the assignment (others keep
            # their earlier definitions or stay undefined -> lossy).
            sandbox = sandboxes.setdefault(assigned, _Sandbox())
            intra_new: List[PortKey] = []
            for _, pred_port, pred_cls in pred_ports:
                key = (pred_port, pred_cls, port)
                if key not in transitions and pred_cls <= assigned:
                    transitions[key] = assigned
                if transitions.get(key) == assigned and pred_cls == assigned:
                    intra_new.append(pred_port)
            sandbox.add(port, intra_new)
            node_class[node] = assigned
            if assigned > current:
                bumped = True
        if bumped:
            current += 1

    tables = _tables_from_transitions(topo, transitions)
    # Each transition is one rule (``_tables_from_transitions`` maps
    # them one-to-one), and the rule's edge is the transition itself:
    # the graph equals ``rules_to_tagged_graph(topo, tables)``
    # without resolving every rule back through the wiring.
    graph = TaggedGraph()
    add_edge = graph.add_edge
    for (src_port, src_cls, dst_port), new_cls in transitions.items():
        add_edge((src_port, src_cls), (dst_port, new_cls))
    # Entry nodes (first hops) carry class 1 by construction; make
    # sure they exist in the graph even if they have no outgoing rule
    # (single switch paths).
    for node, cls in node_class.items():
        graph.add_node((node[0], cls))
    return DeterministicTagging(
        tables=tables,
        graph=graph,
        node_class=node_class,
        num_tags=max(node_class.values()),
        contradictions=contradictions,
    )


def _fallback_class(
    sandboxes: Dict[int, _Sandbox],
    transitions: Dict[TransKey, int],
    pred_ports: Sequence[Tuple[TNode, PortKey, int]],
    port: PortKey,
    current: int,
) -> int:
    """Lowest class >= every predecessor's class that stays acyclic.

    Only predecessors whose transition will actually point at this node
    (i.e. their key is undefined so far) constrain the sandbox check.
    """
    floor = max(
        (pred_cls for _, _, pred_cls in pred_ports), default=INITIAL_TAG
    )
    cls = max(floor, INITIAL_TAG)
    while True:
        sandbox = sandboxes.setdefault(cls, _Sandbox())
        intra = [
            pred_port
            for _, pred_port, pred_cls in pred_ports
            if pred_cls == cls
            and (pred_port, pred_cls, port) not in transitions
        ]
        if not sandbox.would_cycle(port, intra):
            return cls
        cls += 1


def _tables_from_transitions(
    topo: Topology, transitions: Dict[TransKey, int]
) -> Dict[str, RuleTable]:
    tables: Dict[str, RuleTable] = {}
    port_to = topo.port_to
    for (src_port, src_cls, dst_port), new_cls in transitions.items():
        switch, in_port = src_port
        table = tables.get(switch)
        if table is None:
            table = tables[switch] = RuleTable(switch=switch)
        key = (src_cls, in_port, port_to(switch, dst_port[0]))
        existing = table.rules.get(key)
        if existing is not None and existing != new_cls:
            raise TaggingError(
                f"internal error: deterministic minimize produced a "
                f"conflicting rule at {switch!r} {key}"
            )
        table.rules[key] = new_cls
    return tables
