"""Static circular-buffer-dependency (CBD) analysis.

CBD is the necessary condition for PFC deadlock (paper §2): buffer A
waits on buffer B when packets in A must be forwarded into B, and a
directed cycle of such waits can freeze permanently. This module builds
the buffer-dependency graph induced by a set of paths — with or without a
tagging scheme — and finds cycles.

Without tags, a buffer is an ingress port ``(switch, in_port)``; with
tags it is ``(switch, in_port, tag)`` and demoted (lossy) hops contribute
no dependency, which is exactly how Tagger removes CBDs. The graph is a
:class:`~repro.core.tags.TaggedGraph`, untagged buffers at
:data:`~repro.core.tags.INITIAL_TAG`, so a CBD is a cycle within one tag.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.rules import RewriteFn, policy_tags_along_path
from repro.core.tags import INITIAL_TAG, LOSSY_TAG, TaggedGraph, TNode
from repro.topology.base import Topology

Buffer = Tuple  # (switch, in_port) or (switch, in_port, tag)


class BufferGraph(TaggedGraph):
    """A path set's buffer-dependency graph. ``tagged`` says whether a
    buffer is named with its tag; untagged buffers all sit at
    :data:`~repro.core.tags.INITIAL_TAG`."""

    def __init__(self, tagged: bool) -> None:
        super().__init__()
        self.tagged = tagged


def cbd_graph(
    topo: Topology,
    paths: Iterable[Sequence[str]],
    tag_policy: Optional[RewriteFn] = None,
    initial_tag: int = INITIAL_TAG,
) -> BufferGraph:
    """Buffer-dependency graph of a path set.

    Args:
        topo: The topology.
        paths: Flow paths (may include host endpoints).
        tag_policy: Optional Tagger rewrite function. When given, buffers
            are per-tag and lossy hops break the dependency chain; a
            policy that lowers a tag raises
            :class:`~repro.exceptions.TaggingError` (requirement R2).
        initial_tag: Tag packets carry entering the first switch.

    Returns a graph whose nodes are ingress buffers and whose edges are
    wait-for dependencies along the given paths.
    """
    graph = BufferGraph(tagged=tag_policy is not None)
    for path in paths:
        nodes = list(path)
        tags = (
            None
            if tag_policy is None
            else policy_tags_along_path(topo, tag_policy, nodes, initial_tag)
        )
        prev_buffer: Optional[TNode] = None
        for i in range(len(nodes) - 1):
            prev_node, node = nodes[i], nodes[i + 1]
            if not topo.node(node).is_switch:
                prev_buffer = None
                continue
            port = (node, topo.port_to(node, prev_node))
            if tags is None:
                buffer: Optional[TNode] = (port, INITIAL_TAG)
            else:
                buffer = None if tags[i] == LOSSY_TAG else (port, tags[i])
            if buffer is not None:
                graph.add_node(buffer)
                if prev_buffer is not None:
                    graph.add_edge(prev_buffer, buffer)
            prev_buffer = buffer
    return graph


def find_cbd(graph: BufferGraph) -> Optional[List[Buffer]]:
    """One dependency cycle, or None if the graph is CBD-free: the
    :meth:`~repro.core.tags.TaggedGraph.find_tag_cycle` witness of the
    lowest tag that holds a cycle, starting at its smallest buffer."""
    for tag in graph.tags():
        cycle = graph.find_tag_cycle(tag)
        if cycle is not None:
            if graph.tagged:
                return [(switch, port, tag) for (switch, port), _tag in cycle]
            return [port for port, _tag in cycle]
    return None


def has_cbd(
    topo: Topology,
    paths: Iterable[Sequence[str]],
    tag_policy: Optional[RewriteFn] = None,
) -> bool:
    """Convenience: does this path set create a CBD?"""
    return find_cbd(cbd_graph(topo, paths, tag_policy=tag_policy)) is not None
