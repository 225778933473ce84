"""Match-action rule generation (paper §5.2 "Number of rules" and §7).

A Tagger deployment is, per switch, a rule list::

    (Tag, InPort, OutPort)  ->  NewTag

plus the tag -> priority-queue mapping and a final safeguard rule that
demotes any unmatched packet to the lossy class ("this rule is always the
last one in the TCAM rule list", paper footnote 3).

Rules are derived from a tagged graph: the edge ``(Ai, x) -> (Bj, y)``
becomes switch A's rule ``(x, i, port-toward-B) -> y``. Rules form a
*function* of the match key; if two edges demand different rewrites for
the same key (possible in principle after greedy minimization, see
:func:`rules_from_tagged_graph`), the conflict is resolved toward the
larger tag — safety (deadlock freedom) is preserved, a few packets may be
demoted to lossy earlier than strictly necessary, and the effective graph
can be re-verified via :func:`rules_to_tagged_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.tags import INITIAL_TAG, LOSSY_TAG, TaggedGraph
from repro.exceptions import RuleError, TaggingError
from repro.topology.base import Topology

MatchKey = Tuple[int, int, int]  # (tag, in_port, out_port)


@dataclass(frozen=True)
class MatchActionRule:
    """One uncompressed rule: exact match on (tag, in_port, out_port)."""

    tag: int
    in_port: int
    out_port: int
    new_tag: int

    @property
    def key(self) -> MatchKey:
        return (self.tag, self.in_port, self.out_port)

    @property
    def demotes(self) -> bool:
        return self.new_tag == LOSSY_TAG


#: Signature for a functional fallback policy (e.g. ClosTagger.rewrite).
RewriteFn = Callable[[str, int, int, int], int]


@dataclass
class RuleTable:
    """Per-switch rewrite rules with lossy-demotion default.

    ``lookup`` implements the full TCAM semantics: explicit rule first,
    then the optional functional policy (used by topology-aware taggers to
    avoid materializing dense tables), then the safeguard default
    (:data:`LOSSY_TAG`).
    """

    switch: str
    rules: Dict[MatchKey, int] = field(default_factory=dict)
    policy: Optional[RewriteFn] = None

    def add(self, rule: MatchActionRule) -> None:
        existing = self.rules.get(rule.key)
        if existing is not None and existing != rule.new_tag:
            raise RuleError(
                f"conflicting rule at {self.switch!r} for {rule.key}: "
                f"{existing} vs {rule.new_tag}"
            )
        self.rules[rule.key] = rule.new_tag

    def lookup(self, tag: int, in_port: int, out_port: int) -> int:
        """New tag for a transiting packet (LOSSY_TAG when unmatched)."""
        if tag == LOSSY_TAG:
            return LOSSY_TAG
        hit = self.rules.get((tag, in_port, out_port))
        if hit is not None:
            return hit
        if self.policy is not None:
            return self.policy(self.switch, in_port, out_port, tag)
        return LOSSY_TAG

    def __len__(self) -> int:
        return len(self.rules)

    def as_rules(self) -> List[MatchActionRule]:
        return sorted(
            (
                MatchActionRule(tag, in_port, out_port, new_tag)
                for (tag, in_port, out_port), new_tag in self.rules.items()
            ),
            key=lambda r: r.key,
        )


@dataclass
class RuleGenerationReport:
    """Outcome of :func:`rules_from_tagged_graph`."""

    tables: Dict[str, RuleTable]
    conflicts: List[Tuple[str, MatchKey, int, int]] = field(default_factory=list)

    @property
    def total_rules(self) -> int:
        return sum(len(table) for table in self.tables.values())

    def rules_per_switch(self) -> Dict[str, int]:
        return {switch: len(table) for switch, table in self.tables.items()}

    @property
    def max_rules_per_switch(self) -> int:
        if not self.tables:
            return 0
        return max(len(table) for table in self.tables.values())


def rules_from_tagged_graph(
    topo: Topology,
    graph: TaggedGraph,
    on_conflict: str = "max",
) -> RuleGenerationReport:
    """Translate tagged-graph edges into per-switch rule tables.

    Args:
        topo: Topology (to resolve egress port numbers).
        graph: A verified tagged graph.
        on_conflict: ``"max"`` keeps the larger rewrite tag (safe: tags
            stay monotone, the losing edge's packets may be demoted to
            lossy downstream); ``"error"`` raises :class:`RuleError`.

    Conflicts are recorded in the report either way.
    """
    if on_conflict not in ("max", "error"):
        raise RuleError(f"unknown conflict policy {on_conflict!r}")
    tables: Dict[str, RuleTable] = {}
    conflicts: List[Tuple[str, MatchKey, int, int]] = []
    for (src_port, src_tag), (dst_port, dst_tag) in graph.edges():
        switch, in_port = src_port
        dst_switch, _ = dst_port
        out_port = topo.port_to(switch, dst_switch)
        key = (src_tag, in_port, out_port)
        table = tables.setdefault(switch, RuleTable(switch=switch))
        existing = table.rules.get(key)
        if existing is not None and existing != dst_tag:
            conflicts.append((switch, key, existing, dst_tag))
            if on_conflict == "error":
                raise RuleError(
                    f"conflicting rewrites at {switch!r} {key}: "
                    f"{existing} vs {dst_tag}"
                )
            table.rules[key] = max(existing, dst_tag)
        else:
            table.rules[key] = dst_tag
    return RuleGenerationReport(tables=tables, conflicts=conflicts)


def rules_to_tagged_graph(
    topo: Topology, tables: Dict[str, RuleTable]
) -> TaggedGraph:
    """Reconstruct the *effective* tagged graph a rule deployment induces.

    Every explicit rule whose egress faces a switch contributes one edge;
    the node set is exactly what the rules can produce. Use this to
    re-verify deadlock freedom after conflict resolution or manual rule
    edits — it reflects deployed reality rather than design intent.
    """
    graph = TaggedGraph()
    for switch, table in tables.items():
        for (tag, in_port, out_port), new_tag in table.rules.items():
            if new_tag == LOSSY_TAG:
                continue
            src = ((switch, in_port), tag)
            peer = topo.peer_on_port(switch, out_port)
            if not topo.node(peer).is_switch:
                graph.add_node(src)
                continue
            peer_in = topo.port_to(peer, switch)
            graph.add_edge(src, ((peer, peer_in), new_tag))
    return graph


def materialize_policy_rules(
    topo: Topology,
    switch: str,
    policy: RewriteFn,
    tags: Sequence[int],
    include_host_ports: bool = True,
) -> RuleTable:
    """Expand a functional policy into explicit rules for one switch.

    Enumerates all (tag, in_port, out_port) combinations over the switch's
    ports; entries whose policy answer is :data:`LOSSY_TAG` are omitted
    (the safeguard default already demotes). Used to count hardware rules
    for topology-aware taggers and to feed the TCAM compressor.
    """
    table = RuleTable(switch=switch)
    ports = topo.ports(switch)
    for in_port, in_peer in ports.items():
        in_is_host = topo.node(in_peer).is_host
        for out_port, out_peer in ports.items():
            if in_port == out_port:
                continue
            for tag in tags:
                if in_is_host and tag != INITIAL_TAG:
                    continue  # hosts inject fresh packets only
                new_tag = policy(switch, in_port, out_port, tag)
                if new_tag == LOSSY_TAG:
                    continue
                if not include_host_ports and topo.node(out_peer).is_host:
                    continue
                table.rules[(tag, in_port, out_port)] = new_tag
    return table


def policy_tags_along_path(
    topo: Topology,
    policy: RewriteFn,
    path: Sequence[str],
    initial_tag: int = INITIAL_TAG,
) -> List[int]:
    """Tag a packet carries as it arrives at each hop of ``path``.

    Entry ``i`` is the tag on the wire into ``path[i + 1]``; the list
    has ``len(path) - 1`` entries. The packet is injected with
    ``initial_tag`` and every transit switch applies ``policy``; once
    demoted, it stays :data:`LOSSY_TAG` (policies map lossy to lossy).
    This is the one path walk behind every topology-aware tagger's
    ``tag_along_path``.
    """
    tags: List[int] = []
    tag = initial_tag
    for i in range(len(path) - 1):
        if i > 0:
            prev_node, node, next_node = path[i - 1], path[i], path[i + 1]
            if not topo.node(node).is_switch:
                raise TaggingError(f"non-switch transit node {node!r}")
            tag = policy(
                node,
                topo.port_to(node, prev_node),
                topo.port_to(node, next_node),
                tag,
            )
        tags.append(tag)
    return tags


def policy_tagged_graph(
    topo: Topology,
    policy: RewriteFn,
    tags: Sequence[int],
    host_tags: Sequence[int] = (INITIAL_TAG,),
) -> TaggedGraph:
    """The complete tagged graph a functional policy induces.

    Covers *every* physical trajectory the fabric allows (not just an
    enumerated ELP): for each transit pattern ``A -> B -> C`` and each
    live tag, an edge with the rewritten tag — unless the rewrite
    demotes the packet, in which case it leaves the lossless world and
    contributes no dependency. Switch-facing ingress ports are live for
    every tag in ``tags``; host-facing ones for ``host_tags`` only
    (hosts inject fresh packets; multi-class deployments inject one
    staggered tag per class).
    """
    graph = TaggedGraph()
    for switch in topo.switches:
        ports = topo.ports(switch)
        for in_port, in_peer in ports.items():
            live_tags = host_tags if topo.node(in_peer).is_host else tags
            for tag in live_tags:
                node = ((switch, in_port), tag)
                graph.add_node(node)
                for out_port, out_peer in ports.items():
                    if out_port == in_port:
                        continue
                    if not topo.node(out_peer).is_switch:
                        continue
                    new_tag = policy(switch, in_port, out_port, tag)
                    if new_tag == LOSSY_TAG:
                        continue
                    peer_in_port = topo.port_to(out_peer, switch)
                    graph.add_edge(node, ((out_peer, peer_in_port), new_tag))
    return graph


@dataclass(frozen=True)
class RuleDiff:
    """Difference between two rule deployments for one switch.

    Used to plan incremental updates (paper §6 "Topology changes"):
    ``added`` rules must be installed, ``removed`` deleted, ``changed``
    atomically replaced. An empty diff means the switch needs no touch.
    """

    switch: str
    added: Tuple[Tuple[MatchKey, int], ...]
    removed: Tuple[Tuple[MatchKey, int], ...]
    changed: Tuple[Tuple[MatchKey, int, int], ...]  # key, old, new

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.changed)

    @property
    def touch_count(self) -> int:
        return len(self.added) + len(self.removed) + len(self.changed)


def diff_tables(
    before: Dict[str, RuleTable], after: Dict[str, RuleTable]
) -> Dict[str, RuleDiff]:
    """Per-switch rule diff between two deployments.

    Switches present in only one deployment contribute pure adds/removes.
    Only non-empty diffs are returned.
    """
    diffs: Dict[str, RuleDiff] = {}
    for switch in sorted(set(before) | set(after)):
        old = before.get(switch).rules if switch in before else {}
        new = after.get(switch).rules if switch in after else {}
        added = tuple(
            (key, new[key]) for key in sorted(set(new) - set(old))
        )
        removed = tuple(
            (key, old[key]) for key in sorted(set(old) - set(new))
        )
        changed = tuple(
            (key, old[key], new[key])
            for key in sorted(set(old) & set(new))
            if old[key] != new[key]
        )
        diff = RuleDiff(
            switch=switch, added=added, removed=removed, changed=changed
        )
        if not diff.is_empty:
            diffs[switch] = diff
    return diffs


def canonical_tables(
    tables: Dict[str, RuleTable],
) -> Dict[str, List[List[int]]]:
    """JSON-stable canonical form of a rule deployment.

    Per switch (sorted), a sorted list of ``[tag, in_port, out_port,
    new_tag]`` rows. Switches with no explicit rules are omitted, so two
    deployments that demote identically compare equal regardless of
    whether empty tables were materialized. This is the format the
    golden snapshot tests freeze and the byte-identity oracle compares.
    """
    canonical: Dict[str, List[List[int]]] = {}
    for switch in sorted(tables):
        rules = tables[switch].rules
        if not rules:
            continue
        canonical[switch] = [
            [tag, in_port, out_port, rules[(tag, in_port, out_port)]]
            for tag, in_port, out_port in sorted(rules)
        ]
    return canonical


def tables_equal(
    a: Dict[str, RuleTable], b: Dict[str, RuleTable]
) -> bool:
    """True iff two deployments install byte-identical explicit rules,
    i.e. iff their :func:`canonical_tables` are equal (compared here
    without building and sorting the canonical form)."""
    return {s: t.rules for s, t in a.items() if t.rules} == {
        s: t.rules for s, t in b.items() if t.rules
    }


def coverage_report(
    topo: Topology,
    tables: Dict[str, RuleTable],
    paths: Iterable[Sequence[str]],
    initial_tag: int = INITIAL_TAG,
) -> Tuple[int, int, List[Tuple[Tuple[str, ...], int]]]:
    """How many of ``paths`` stay lossless end-to-end under ``tables``.

    Simulates the tag rewrite along each path. Returns
    ``(lossless_count, total, demoted)`` where ``demoted`` lists each
    demoted path with the hop index at which it lost losslessness.
    """
    lossless = 0
    total = 0
    demoted: List[Tuple[Tuple[str, ...], int]] = []
    for path in paths:
        total += 1
        tag = initial_tag
        failed_at = -1
        for i in range(1, len(path) - 1):
            prev_node, node, next_node = path[i - 1], path[i], path[i + 1]
            if not topo.node(node).is_switch:
                continue
            if topo.node(next_node).is_host:
                # Delivery hop: the packet keeps its tag onto the host
                # link (no rewrite rule needed; mirrors the simulator).
                continue
            table = tables.get(node)
            if table is None:
                failed_at = i
                break
            tag = table.lookup(
                tag,
                topo.port_to(node, prev_node),
                topo.port_to(node, next_node),
            )
            if tag == LOSSY_TAG:
                failed_at = i
                break
        if failed_at == -1:
            lossless += 1
        else:
            demoted.append((tuple(path), failed_at))
    return lossless, total, demoted
