"""Algorithm 2 — greedy tag minimization (paper §5.2).

Takes the brute-force tagged graph of Algorithm 1 and merges as many nodes
as possible into each new tag class, subject to the CBD-free constraint:
a class (= one lossless priority) may not contain a directed cycle. Nodes
are scanned in ascending brute-force tag order and the new tag only ever
moves forward, which preserves monotonicity (requirement R2); the sandbox
acyclicity check preserves per-class acyclicity (requirement R1).

Properties (paper §5.3):

- output tag count <= input tag count (never worse than brute force);
- optimal for BCube with default routing (k tags for a k-level BCube);
- 3 tags for 2000-switch Jellyfish with shortest-path ELPs;
- *not* optimal for Clos with bounce paths (Fig. 6): it can use 3 tags
  where the topology-aware scheme of :mod:`repro.core.clos` uses 2.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Sequence, Set

from repro.core.tags import INITIAL_TAG, PortKey, TaggedGraph, TNode
from repro.exceptions import TaggingError


class _Sandbox:
    """Incremental per-class acyclicity checker.

    Holds the directed graph of the tag class currently being filled,
    keyed by :class:`PortKey` (the class's tag is implicit). Supports the
    one query Algorithm 2 needs: *would* adding this node with these
    incoming edges close a directed cycle?
    """

    def __init__(self, ports: Iterable[PortKey] = ()) -> None:
        self.out: Dict[PortKey, Set[PortKey]] = {}
        self.ports: Set[PortKey] = set(ports)

    def would_cycle(self, port: PortKey, preds: Sequence[PortKey]) -> bool:
        """True iff adding edges ``pred -> port`` creates a directed cycle.

        A new cycle must traverse one of the new edges, i.e. reach some
        ``pred`` starting from ``port`` (a self-edge counts immediately).
        """
        if port in preds:
            return True
        targets = {p for p in preds if p in self.ports}
        if not targets or port not in self.ports:
            # Either no intra-class edges to add, or `port` is brand new
            # and therefore has no outgoing edges to close a cycle with.
            return False
        seen = {port}
        queue = deque([port])
        while queue:
            node = queue.popleft()
            for succ in self.out.get(node, ()):
                if succ in targets:
                    return True
                if succ not in seen:
                    seen.add(succ)
                    queue.append(succ)
        return False

    def add(self, port: PortKey, preds: Sequence[PortKey]) -> None:
        self.ports.add(port)
        for pred in preds:
            if pred in self.ports:
                self.out.setdefault(pred, set()).add(port)


def greedy_minimize(bruteforce: TaggedGraph) -> TaggedGraph:
    """Run Algorithm 2 on a brute-force tagged graph.

    Returns a new :class:`TaggedGraph` over the same ports whose tag count
    is at most (usually much less than) the input's. Every brute-force
    node maps to exactly one output node and every brute-force edge to one
    output edge, so ELP coverage is preserved exactly.
    """
    if bruteforce.num_nodes == 0:
        raise TaggingError("cannot minimize an empty tagged graph")
    new_tag: Dict[TNode, int] = {}
    current = INITIAL_TAG
    sandbox = _Sandbox()
    predecessors = bruteforce.predecessor_map()

    for old_tag in range(INITIAL_TAG, bruteforce.max_tag + 1):
        bumped: Set[PortKey] = set()
        for node in sorted(bruteforce.nodes_with_tag(old_tag)):
            port = node[0]
            intra_preds = [
                pred[0]
                for pred in predecessors[node]
                if new_tag.get(pred) == current
            ]
            if sandbox.would_cycle(port, intra_preds):
                new_tag[node] = current + 1
                bumped.add(port)
            else:
                sandbox.add(port, intra_preds)
                new_tag[node] = current
        if bumped:
            # Close the current class; the bumped ports seed the next one.
            # They all came from the same brute-force tag, so no edges run
            # between them yet and the fresh sandbox starts acyclic.
            current += 1
            sandbox = _Sandbox(bumped)

    result = TaggedGraph()
    for node in bruteforce.nodes:
        result.add_node((node[0], new_tag[node]))
    for src, dst in bruteforce.edges():
        result.add_edge((src[0], new_tag[src]), (dst[0], new_tag[dst]))
    return result
