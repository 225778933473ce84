"""Algorithm 1 — brute-force tagging (paper §5.2).

For every ELP path, walk its hops assigning tag 1 to the first ingress
port, tag 2 to the second, and so on; add an edge between consecutive
hops. The resulting graph trivially satisfies both deadlock-freedom
requirements:

- R1: an edge always goes from tag ``t`` to tag ``t + 1``, so no per-tag
  subgraph ``G_k`` has any edge at all, let alone a cycle;
- R2: tags strictly increase along every edge.

The price is tag count: as many tags as the longest ELP path has hops
(5 priorities for 3-layer Clos up-down routing). Algorithm 2
(:mod:`repro.core.greedy`) compresses this.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.tags import TaggedGraph, ingress_hops, tagged_walk
from repro.exceptions import TaggingError
from repro.routing.base import is_loop_free
from repro.topology.base import Topology


def add_tagged_path(
    graph: TaggedGraph, topo: Topology, path: Sequence[str]
) -> None:
    """Add one path's Algorithm-1 nodes and edges to ``graph``."""
    nodes = tagged_walk(topo, path)
    if nodes:
        graph.add_node(nodes[0])
    for src, dst in zip(nodes, nodes[1:]):
        graph.add_edge(src, dst)


def bruteforce_tagging(
    topo: Topology,
    elp: Iterable[Sequence[str]],
    require_loop_free: bool = True,
) -> TaggedGraph:
    """Run Algorithm 1 over an ELP path set.

    Args:
        topo: The topology the paths live in.
        elp: Expected lossless paths (node-name sequences; may include host
            endpoints, which map to the edge switches' host-facing ports).
        require_loop_free: Reject paths that revisit a node — the paper's
            only restriction on ELP membership (§6, "Specifying ELP").

    Returns:
        The brute-force :class:`TaggedGraph`.

    Raises:
        TaggingError: On a looping path (when ``require_loop_free``) or an
            empty ELP.
    """
    graph = TaggedGraph()
    saw_path = False
    for path in elp:
        saw_path = True
        if require_loop_free and not is_loop_free(path):
            raise TaggingError(f"ELP path revisits a node: {tuple(path)}")
        add_tagged_path(graph, topo, path)
    if not saw_path:
        raise TaggingError("empty ELP: nothing to tag")
    return graph


def longest_path_hops(topo: Topology, elp: Iterable[Sequence[str]]) -> int:
    """Number of tags Algorithm 1 will use: the longest hop count in ELP."""
    longest = 0
    for path in elp:
        longest = max(longest, len(ingress_hops(topo, path)))
    return longest
