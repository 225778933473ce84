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

from collections import Counter
from itertools import chain
from typing import (
    Any,
    Dict,
    ItemsView,
    Iterator,
    KeysView,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import TaggingError
from repro.topology.base import Topology

PortKey = Tuple[str, int]
TNode = Tuple[PortKey, int]
TEdge = Tuple[TNode, TNode]

#: Tag carried by packets entering the network.
INITIAL_TAG = 1

#: Sentinel tag for packets demoted to the lossy class. Never in a graph.
LOSSY_TAG = 0


class TaggedGraph:
    """Mutable tagged graph with per-tag views and structural queries.

    Nodes and edges are plain tuples (hashable, cheap); the class maintains
    forward adjacency (each edge held once, in its source's successor
    set) and a per-tag node index so the deadlock-freedom requirements
    (R1 per-tag acyclicity, R2 monotone transitions) can be checked
    efficiently: both need only forward edges. The few scans that walk
    edges backwards build :meth:`predecessor_map` once. Each node is
    stored as one tuple object: :attr:`nodes` views the keys of a map
    from a node to its stored object, and :meth:`add_edge` swaps each
    endpoint for that object, so the adjacency sets never hold an equal
    copy.
    """

    def __init__(self) -> None:
        self._node: Dict[TNode, TNode] = {}
        self._out: Dict[TNode, Set[TNode]] = {}
        self._by_tag: Dict[int, Set[TNode]] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: TNode) -> None:
        if node in self._node:
            return
        (switch, port), tag = node
        if tag < INITIAL_TAG:
            raise TaggingError(f"invalid tag {tag} in node {node}")
        self._node[node] = node
        self._out[node] = set()
        self._by_tag.setdefault(tag, set()).add(node)

    @classmethod
    def from_port_graph(cls, adjacency: Dict[PortKey, Sequence[PortKey]]) -> "TaggedGraph":
        """Every port of ``adjacency`` (successors included among its
        keys) at :data:`INITIAL_TAG`, one edge per port-to-port edge:
        what :meth:`add_edge` would build, built in bulk."""
        graph = cls()
        node = {port: (port, INITIAL_TAG) for port in adjacency}
        graph._node = {stored: stored for stored in node.values()}
        graph._out = {node[port]: {node[dst] for dst in succs} for port, succs in adjacency.items()}
        graph._by_tag[INITIAL_TAG] = set(graph._node)
        return graph

    def add_edge(self, src: TNode, dst: TNode) -> None:
        """Add an edge, creating endpoints as needed.

        Rejects tag-decreasing edges outright — they could never belong to
        a valid tagging scheme (requirement R2).
        """
        if dst[1] < src[1]:
            raise TaggingError(
                f"tag-decreasing edge {src} -> {dst} violates monotonicity"
            )
        stored = self._node
        if src in stored:
            src = stored[src]
        else:
            self.add_node(src)
        if dst in stored:
            dst = stored[dst]
        else:
            self.add_node(dst)
        self._out[src].add(dst)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> KeysView[TNode]:
        """The graph's nodes, as a live set-like view."""
        return self._node.keys()

    def successors(self, node: TNode) -> Set[TNode]:
        return set(self._out.get(node, ()))

    def predecessor_map(self) -> Dict[TNode, List[TNode]]:
        """Every node's predecessors, built in one pass over the edges.

        The graph holds each edge once, forward; a scan that walks edges
        backwards (the merge, Algorithm 2) builds this map once per run.
        """
        preds: Dict[TNode, List[TNode]] = {node: [] for node in self._node}
        for src, dsts in self._out.items():
            for dst in dsts:
                preds[dst].append(src)
        return preds

    def has_node(self, node: TNode) -> bool:
        return node in self._node

    def has_edge(self, src: TNode, dst: TNode) -> bool:
        return dst in self._out.get(src, ())

    def adjacency(self) -> ItemsView[TNode, Set[TNode]]:
        """Each node with its successor set, as a live view (read only)."""
        return self._out.items()

    def edges(self) -> Iterator[TEdge]:
        for src in self._out:
            for dst in self._out[src]:
                yield (src, dst)

    @property
    def num_nodes(self) -> int:
        return len(self._node)

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

        One Kahn pass first: count in-degrees over same-tag edges (from
        the members' successor sets, so no predecessor index) and peel
        nodes of in-degree 0, a whole frontier at a time. ``G_k`` is
        acyclic iff every node peels, so the common (certified) case ends
        there, in linear time and without sorting anything. Otherwise the
        unpeeled *residue* holds every cycle and is closed under
        successors; a three-color DFS over it, rooted and expanded in
        sorted order, extracts the witness, which is rotated to start at
        its smallest node. The witness therefore depends on the graph
        alone, never on set iteration order.
        """
        members = self._by_tag.get(tag)
        if not members:
            return None
        out = self._out
        # Only members' successor sets are counted, so a member's count
        # is its in-degree within ``G_k``.
        hits = Counter(chain.from_iterable([out[node] for node in members]))
        indegree = {node: hits[node] for node in members}
        frontier = [node for node, degree in indegree.items() if not degree]
        peeled = 0
        while frontier:
            peeled += len(frontier)
            hits = Counter(chain.from_iterable([out[node] for node in frontier]))
            frontier = []
            for dst, count in hits.items():
                if dst[1] == tag:
                    indegree[dst] -= count
                    if not indegree[dst]:
                        frontier.append(dst)
        if peeled == len(members):
            return None

        residue = {node for node, degree in indegree.items() if degree > 0}
        WHITE, GRAY, BLACK = 0, 1, 2
        color = dict.fromkeys(residue, WHITE)
        parent: Dict[TNode, TNode] = {}

        def successors(node: TNode) -> Iterator[TNode]:
            return iter(sorted(succ for succ in out[node] if succ in residue))

        for root in sorted(residue):
            if color[root] != WHITE:
                continue
            color[root] = GRAY
            stack: List[Tuple[TNode, Iterator[TNode]]] = [(root, successors(root))]
            while stack:
                node, it = stack[-1]
                for succ in it:
                    if color[succ] == WHITE:
                        color[succ] = GRAY
                        parent[succ] = node
                        stack.append((succ, successors(succ)))
                        break
                    if color[succ] == GRAY:
                        # Back edge: the cycle is succ -> ... -> node -> succ.
                        cycle = [node]
                        while cycle[-1] != succ:
                            cycle.append(parent[cycle[-1]])
                        cycle.reverse()
                        start = cycle.index(min(cycle))
                        return cycle[start:] + cycle[:start]
                else:
                    color[node] = BLACK
                    stack.pop()
        raise AssertionError(f"tag {tag}: unpeeled residue without a cycle")

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
    the planner's pinned extras, the certificate's residue correction —
    walks a path through this function.
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
