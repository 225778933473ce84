"""Static circular-buffer-dependency (CBD) analysis.

CBD is the necessary condition for PFC deadlock (paper §2): buffer A
waits on buffer B when packets in A must be forwarded into B, and a
directed cycle of such waits can freeze permanently. This module builds
the buffer-dependency graph induced by a set of paths — with or without a
tagging scheme — and finds cycles.

Without tags, a buffer is an ingress port ``(switch, in_port)``; with
tags it is ``(switch, in_port, tag)`` and demoted (lossy) hops contribute
no dependency, which is exactly how Tagger removes CBDs.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.tags import INITIAL_TAG, LOSSY_TAG
from repro.topology.base import Topology

Buffer = Tuple  # (switch, in_port) or (switch, in_port, tag)

#: Signature of a tag policy: (switch, in_port, out_port, tag) -> new tag.
TagPolicy = Callable[[str, int, int, int], int]


def cbd_graph(
    topo: Topology,
    paths: Iterable[Sequence[str]],
    tag_policy: Optional[TagPolicy] = None,
    initial_tag: int = INITIAL_TAG,
) -> nx.DiGraph:
    """Buffer-dependency graph of a path set.

    Args:
        topo: The topology.
        paths: Flow paths (may include host endpoints).
        tag_policy: Optional Tagger rewrite function. When given, buffers
            are per-tag and lossy hops break the dependency chain.
        initial_tag: Tag packets carry entering the first switch.

    Returns a directed graph whose nodes are ingress buffers and whose
    edges are wait-for dependencies along the given paths.
    """
    graph = nx.DiGraph()
    for path in paths:
        nodes = list(path)
        tag = initial_tag
        prev_buffer: Optional[Buffer] = None
        for i in range(len(nodes) - 1):
            prev_node, node = nodes[i], nodes[i + 1]
            if not topo.node(node).is_switch:
                prev_buffer = None
                continue
            in_port = topo.port_to(node, prev_node)
            if tag_policy is None:
                buffer: Optional[Buffer] = (node, in_port)
            else:
                if i > 0 and topo.node(prev_node).is_switch:
                    out_port = topo.port_to(prev_node, node)
                    prev_in = topo.port_to(prev_node, nodes[i - 1])
                    tag = tag_policy(prev_node, prev_in, out_port, tag)
                buffer = (
                    None if tag == LOSSY_TAG else (node, in_port, tag)
                )
            if buffer is not None:
                graph.add_node(buffer)
                if prev_buffer is not None:
                    graph.add_edge(prev_buffer, buffer)
            prev_buffer = buffer
    return graph


def find_cbd(graph: nx.DiGraph) -> Optional[List[Buffer]]:
    """One dependency cycle, or None if the graph is CBD-free."""
    try:
        cycle = nx.find_cycle(graph, orientation="original")
    except nx.NetworkXNoCycle:
        return None
    return [edge[0] for edge in cycle]


def has_cbd(
    topo: Topology,
    paths: Iterable[Sequence[str]],
    tag_policy: Optional[TagPolicy] = None,
) -> bool:
    """Convenience: does this path set create a CBD?"""
    return find_cbd(cbd_graph(topo, paths, tag_policy=tag_policy)) is not None


def all_cbd_cycles(
    graph: nx.DiGraph, limit: int = 100
) -> List[List[Buffer]]:
    """Up to ``limit`` simple dependency cycles (diagnostics)."""
    cycles = []
    for cycle in nx.simple_cycles(graph):
        cycles.append(cycle)
        if len(cycles) >= limit:
            break
    return cycles
