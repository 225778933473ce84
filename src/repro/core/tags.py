"""Tagged graph ``G(V, E)`` — the formal object at the heart of Tagger.

Following the paper's §5 formalization (Table 2):

- A node ``(Ai, x)`` says "switch A's ingress port *i* may receive lossless
  packets carrying tag *x*". We represent the port as a
  ``PortKey = (switch_name, ingress_port)`` tuple and the node as
  ``TNode = (PortKey, tag)``.
- An edge ``(Ai, x) -> (Bj, y)`` says switch A may forward a packet that
  arrived on port *i* with tag *x* to neighbor B (arriving on B's port
  *j*), rewriting the tag to *y* (``x == y`` allowed).

Tags are positive integers starting at :data:`INITIAL_TAG`. The special
:data:`LOSSY_TAG` (0) marks demoted packets; it never appears in a tagged
graph — packets leave the graph when demoted.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import TaggingError
from repro.topology.base import Topology

PortKey = Tuple[str, int]
TNode = Tuple[PortKey, int]
TEdge = Tuple[TNode, TNode]

#: Tag carried by packets entering the network.
INITIAL_TAG = 1

#: Sentinel tag for packets demoted to the lossy class. Never in a graph.
LOSSY_TAG = 0


def port_key(switch: str, port: int) -> PortKey:
    return (switch, port)


def tnode(switch: str, port: int, tag: int) -> TNode:
    if tag < INITIAL_TAG:
        raise TaggingError(f"tag must be >= {INITIAL_TAG}; got {tag}")
    return ((switch, port), tag)


class TaggedGraph:
    """Mutable tagged graph with per-tag views and structural queries.

    Nodes and edges are plain tuples (hashable, cheap); the class maintains
    forward/backward adjacency and a per-tag node index so the
    deadlock-freedom requirements (R1 per-tag acyclicity, R2 monotone
    transitions) can be checked efficiently.
    """

    def __init__(self) -> None:
        self.nodes: Set[TNode] = set()
        self._out: Dict[TNode, Set[TNode]] = {}
        self._in: Dict[TNode, Set[TNode]] = {}
        self._by_tag: Dict[int, Set[TNode]] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: TNode) -> None:
        if node in self.nodes:
            return
        (switch, port), tag = node
        if tag < INITIAL_TAG:
            raise TaggingError(f"invalid tag {tag} in node {node}")
        self.nodes.add(node)
        self._out.setdefault(node, set())
        self._in.setdefault(node, set())
        self._by_tag.setdefault(tag, set()).add(node)

    def add_edge(self, src: TNode, dst: TNode) -> None:
        """Add an edge, creating endpoints as needed.

        Rejects tag-decreasing edges outright — they could never belong to
        a valid tagging scheme (requirement R2).
        """
        if dst[1] < src[1]:
            raise TaggingError(
                f"tag-decreasing edge {src} -> {dst} violates monotonicity"
            )
        nodes = self.nodes
        if src not in nodes:
            self.add_node(src)
        if dst not in nodes:
            self.add_node(dst)
        self._out[src].add(dst)
        self._in[dst].add(src)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def successors(self, node: TNode) -> Set[TNode]:
        return set(self._out.get(node, ()))

    def predecessors(self, node: TNode) -> Set[TNode]:
        return set(self._in.get(node, ()))

    def has_node(self, node: TNode) -> bool:
        return node in self.nodes

    def has_edge(self, src: TNode, dst: TNode) -> bool:
        return dst in self._out.get(src, ())

    def edges(self) -> Iterator[TEdge]:
        for src in self._out:
            for dst in self._out[src]:
                yield (src, dst)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(dsts) for dsts in self._out.values())

    def tags(self) -> List[int]:
        """Sorted list of tags present in the graph."""
        return sorted(tag for tag, nodes in self._by_tag.items() if nodes)

    @property
    def num_tags(self) -> int:
        return len(self.tags())

    @property
    def max_tag(self) -> int:
        present = self.tags()
        if not present:
            raise TaggingError("empty tagged graph has no max tag")
        return present[-1]

    def nodes_with_tag(self, tag: int) -> Set[TNode]:
        return set(self._by_tag.get(tag, ()))

    def tag_subgraph_edges(self, tag: int) -> List[TEdge]:
        """Edges of ``G_k``: both endpoints carry ``tag``."""
        members = self._by_tag.get(tag, set())
        result = []
        for src in members:
            for dst in self._out.get(src, ()):
                if dst[1] == tag:
                    result.append((src, dst))
        return result

    def ports(self) -> Set[PortKey]:
        """Distinct ingress ports appearing in the graph."""
        return {node[0] for node in self.nodes}

    def tags_on_port(self, port: PortKey) -> List[int]:
        return sorted(tag for (p, tag) in self.nodes if p == port)

    # ------------------------------------------------------------------
    # Structure checks (used by verification and by Algorithm 2's sandbox)
    # ------------------------------------------------------------------
    def tag_subgraph_is_acyclic(self, tag: int) -> bool:
        """True iff ``G_k`` (the same-tag subgraph) has no directed cycle."""
        return self.find_tag_cycle(tag) is None

    def find_tag_cycle(self, tag: int) -> Optional[List[TNode]]:
        """Return one directed cycle within ``G_k``, or None.

        Iterative three-color DFS restricted to nodes/edges of ``tag``.
        """
        members = self._by_tag.get(tag, set())
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {node: WHITE for node in members}
        parent: Dict[TNode, Optional[TNode]] = {}

        for root in members:
            if color[root] != WHITE:
                continue
            stack: List[Tuple[TNode, Iterator[TNode]]] = []
            color[root] = GRAY
            parent[root] = None
            stack.append((root, iter(sorted(self._out.get(root, ()), key=repr))))
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ[1] != tag or succ not in color:
                        continue
                    if color[succ] == WHITE:
                        color[succ] = GRAY
                        parent[succ] = node
                        stack.append(
                            (succ, iter(sorted(self._out.get(succ, ()), key=repr)))
                        )
                        advanced = True
                        break
                    if color[succ] == GRAY:
                        # Found a back edge: reconstruct the cycle.
                        cycle = [succ]
                        walk = node
                        while walk != succ:
                            cycle.append(walk)
                            walk = parent[walk]
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    # ------------------------------------------------------------------
    # Export / comparison
    # ------------------------------------------------------------------
    def to_networkx(self) -> Any:
        """Export to a :class:`networkx.DiGraph` (nodes are TNode tuples)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes)
        graph.add_edges_from(self.edges())
        return graph

    def copy(self) -> "TaggedGraph":
        clone = TaggedGraph()
        for node in self.nodes:
            clone.add_node(node)
        for src, dst in self.edges():
            clone.add_edge(src, dst)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaggedGraph):
            return NotImplemented
        return self.nodes == other.nodes and set(self.edges()) == set(other.edges())

    def __repr__(self) -> str:
        return (
            f"TaggedGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"tags={self.tags()})"
        )


def tagged_walk(topo: Topology, path: Sequence[str]) -> List[TNode]:
    """Algorithm 1 on one path: its tagged nodes, in hop order.

    For every consecutive pair ``(prev, cur)`` where ``cur`` is a switch,
    one node ``((cur, port on cur facing prev), tag)``; the first carries
    :data:`INITIAL_TAG`, the second ``INITIAL_TAG + 1``, and so on (paper
    §5.2). Host endpoints therefore contribute the host-facing ports of
    their edge switches, and a path that *starts* at a switch contributes
    nothing for that first switch (a freshly injected packet occupies no
    ingress buffer there). The path's tagged-graph edges are the
    consecutive pairs of the returned list.

    Every consumer of Algorithm 1 — :func:`~repro.core.bruteforce.bruteforce_tagging`,
    the planner's pinned extras, the re-planner's refcounts — walks a
    path through this function.
    """
    walk: List[TNode] = []
    tag = INITIAL_TAG
    for i in range(len(path) - 1):
        prev, cur = path[i], path[i + 1]
        if topo.node(cur).is_switch:
            walk.append(((cur, topo.port_to(cur, prev)), tag))
            tag += 1
    return walk


def ingress_hops(topo: Topology, path: Sequence[str]) -> List[PortKey]:
    """Per-hop ingress ``PortKey`` sequence for a path: the ports of its
    :func:`tagged_walk`, without the tags."""
    return [port for port, _tag in tagged_walk(topo, path)]


def transit_triples(
    topo: Topology, path: Sequence[str]
) -> List[Tuple[str, int, int]]:
    """``(switch, in_port, out_port)`` for every transit switch on a path.

    The final switch is included when the path terminates at a host (its
    out_port faces the host); a path ending at a switch has no egress
    there, so that switch is excluded.
    """
    triples = []
    for i in range(1, len(path) - 1):
        prev, cur, nxt = path[i - 1], path[i], path[i + 1]
        if not topo.node(cur).is_switch:
            continue
        triples.append(
            (cur, topo.port_to(cur, prev), topo.port_to(cur, nxt))
        )
    return triples
