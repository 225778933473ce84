"""Up-down (valley-free) routing for layered topologies.

In up-down routing a packet first travels UP from the source ToR to a
common ancestor of source and destination, then DOWN to the destination
ToR, never reversing direction (paper §3.2). Up-down paths over a Clos
fabric are deadlock-free by construction, which is why the paper's default
ELP set is "all shortest up-down paths".

All functions operate on the *active* topology (failed links excluded)
unless stated otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import RoutingError
from repro.routing.base import Path
from repro.topology.base import Topology
from repro.topology.clos import upward_neighbors


def _up_paths_from(topo: Topology, start: str, max_layer: int) -> Dict[str, List[Path]]:
    """All strictly-upward paths from ``start``.

    Returns a map ``reached_switch -> [path, ...]`` including the trivial
    path ``(start,)``. Paths only use active links and only climb one layer
    per hop.
    """
    reached: Dict[str, List[Path]] = {start: [(start,)]}
    frontier: List[str] = [start]
    current_layer = topo.layer_of(start)
    if current_layer is None:
        raise RoutingError(f"{start!r} has no layer; up-down routing undefined")
    while frontier and current_layer < max_layer:
        next_frontier: List[str] = []
        for node in frontier:
            for upper in upward_neighbors(topo, node):
                new_paths = [path + (upper,) for path in reached[node]]
                if upper not in reached:
                    reached[upper] = []
                    next_frontier.append(upper)
                reached[upper].extend(new_paths)
        frontier = next_frontier
        current_layer += 1
    return reached


def updown_paths(
    topo: Topology,
    src: str,
    dst: str,
    shortest_only: bool = True,
) -> List[Path]:
    """All up-down switch paths between two switches (typically ToRs).

    With ``shortest_only`` (the default, matching the paper's ELP), only
    paths through the *lowest* common ancestor layer are returned; set it to
    False to also include paths that climb higher than necessary (still
    up-down, hence still valley-free).
    """
    for endpoint in (src, dst):
        if not topo.node(endpoint).is_switch:
            raise RoutingError(
                f"up-down endpoints must be switches; got {endpoint!r}"
            )
    if src == dst:
        return [(src,)]
    src_layer = topo.layer_of(src)
    dst_layer = topo.layer_of(dst)
    if src_layer is None or dst_layer is None:
        raise RoutingError("up-down routing requires layered endpoints")
    max_layer = max(
        (node.layer for node in topo.nodes.values() if node.is_switch and node.layer is not None),
        default=0,
    )
    ups = _up_paths_from(topo, src, max_layer)
    downs = _up_paths_from(topo, dst, max_layer)  # reversed later

    # Group candidate ancestors by layer, ascending; combine up + reversed
    # down segments at the same ancestor.
    results: List[Path] = []
    ancestors = sorted(
        set(ups) & set(downs),
        key=lambda name: (topo.layer_of(name), name),
    )
    best_layer: Optional[int] = None
    for ancestor in ancestors:
        layer = topo.layer_of(ancestor)
        if shortest_only:
            if best_layer is None:
                best_layer = layer
            elif layer > best_layer:
                break
        for up_path in ups[ancestor]:
            for down_path in downs[ancestor]:
                candidate = up_path + tuple(reversed(down_path[:-1]))
                if len(set(candidate)) == len(candidate):
                    results.append(candidate)
    if not results:
        raise RoutingError(f"no up-down path {src!r} -> {dst!r}")
    if shortest_only:
        shortest = min(len(p) for p in results)
        results = [p for p in results if len(p) == shortest]
    return sorted(set(results))


def reachable_updown_paths(
    topo: Topology, src: str, dst: str, shortest_only: bool = True
) -> List[Path]:
    """:func:`updown_paths`, with no paths (not an error) for a pair that
    has no up-down connectivity — the per-pair step of every all-pairs
    enumeration, where a partitioned fabric is the caller's to judge."""
    try:
        return updown_paths(topo, src, dst, shortest_only)
    except RoutingError:
        return []


def all_updown_paths(
    topo: Topology,
    endpoints: Optional[Sequence[str]] = None,
    shortest_only: bool = True,
) -> List[Path]:
    """Up-down paths between every ordered pair of endpoints.

    ``endpoints`` defaults to all ToR-layer switches. Pairs with no
    up-down connectivity (partitioned fabric) are skipped silently — the
    caller decides whether that is an error.
    """
    if endpoints is None:
        endpoints = sorted(topo.switches_at_layer(0))
    paths: List[Path] = []
    for src in endpoints:
        for dst in endpoints:
            if src != dst:
                paths.extend(
                    reachable_updown_paths(topo, src, dst, shortest_only)
                )
    return paths


def updown_tables_paths(topo: Topology) -> List[Path]:
    """Host-to-host shortest up-down paths (one ELP entry per path).

    Convenience wrapper that extends every ToR-to-ToR up-down path with the
    host stubs at both ends, plus the degenerate same-ToR host pairs.
    """
    paths: List[Path] = []
    tors = sorted(topo.switches_at_layer(0))
    tor_paths: Dict[Tuple[str, str], List[Path]] = {}
    for src in tors:
        for dst in tors:
            if src != dst:
                tor_paths[(src, dst)] = reachable_updown_paths(topo, src, dst)
    for src_tor in tors:
        for src_host in topo.hosts_under(src_tor):
            for dst_tor in tors:
                for dst_host in topo.hosts_under(dst_tor):
                    if dst_host == src_host:
                        continue
                    if src_tor == dst_tor:
                        paths.append((src_host, src_tor, dst_host))
                        continue
                    for core in tor_paths[(src_tor, dst_tor)]:
                        paths.append((src_host,) + core + (dst_host,))
    return paths
