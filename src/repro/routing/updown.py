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

from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import RoutingError
from repro.routing.base import Path
from repro.topology.base import Topology
from repro.topology.clos import upward_neighbors

Pair = Tuple[str, str]


def _up_paths_from(topo: Topology, start: str, max_layer: int) -> Dict[str, List[Path]]:
    """All strictly-upward paths from ``start`` (its up-DAG).

    Returns a map ``reached_switch -> [path, ...]`` including the trivial
    path ``(start,)``. Paths only use active links and only climb one layer
    per hop.
    """
    reached: Dict[str, List[Path]] = {start: [(start,)]}
    frontier: List[str] = [start]
    current_layer = topo.layer_of(start)
    if current_layer is None:
        raise RoutingError(f"up-down endpoint {start!r} has no layer")
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


def _join(
    topo: Topology,
    ups: Dict[str, List[Path]],
    tails: Dict[str, List[Path]],
) -> List[Path]:
    """Shortest up-down paths from the source's up-DAG ``ups`` to the
    destination whose up-DAG, reversed and without the ancestor, is
    ``tails``: every up path joined to every tail at a common ancestor of
    the *lowest* common layer, loop-free, the shortest of them, sorted.

    No candidate repeats: the fabric has no parallel links, so the
    up-DAG's paths are distinct, and a joined path's strict climb and
    descent fix its ancestor as its one highest node.
    """
    results: List[Path] = []
    ancestors = sorted(
        ups.keys() & tails.keys(),
        key=lambda name: (topo.layer_of(name), name),
    )
    best_layer: Optional[int] = None
    for ancestor in ancestors:
        layer = topo.layer_of(ancestor)
        if best_layer is None:
            best_layer = layer
        elif layer > best_layer:
            break
        joins = tails[ancestor]
        for up_path in ups[ancestor]:
            climbed = set(up_path)
            results.extend(
                [up_path + tail for tail in joins if climbed.isdisjoint(tail)]
            )
    if results:
        shortest = min(map(len, results))
        results = [p for p in results if len(p) == shortest]
    results.sort()
    return results


def updown_paths_by_pair(
    topo: Topology, pairs: Iterable[Pair]
) -> Dict[Pair, List[Path]]:
    """:func:`updown_paths` for many pairs at the cost of one up-DAG per
    distinct endpoint: the top layer is found once, each endpoint's
    up-DAG is built the first time it is needed and joined against every
    partner after that.

    A pair with no up-down connectivity maps to no paths — in an
    all-pairs enumeration a partitioned fabric is the caller's to judge.
    A bad endpoint — not a switch, or a switch without a layer — raises
    :class:`~repro.exceptions.RoutingError` naming it: that is a caller
    error, not a partitioned fabric.
    """
    top = max(
        (
            node.layer
            for node in topo.nodes.values()
            if node.is_switch and node.layer is not None
        ),
        default=0,
    )
    #: endpoint -> (its up-DAG, the same DAG as join tails)
    dags: Dict[str, Tuple[Dict[str, List[Path]], Dict[str, List[Path]]]] = {}
    found: Dict[Pair, List[Path]] = {}
    for src, dst in pairs:
        for endpoint in (src, dst):
            if not topo.node(endpoint).is_switch:
                raise RoutingError(
                    f"up-down endpoints must be switches; got {endpoint!r}"
                )
        if src == dst:
            found[(src, dst)] = [(src,)]
            continue
        for endpoint in (src, dst):
            if endpoint not in dags:
                dag = _up_paths_from(topo, endpoint, top)
                dags[endpoint] = (
                    dag,
                    {
                        ancestor: [path[-2::-1] for path in paths]
                        for ancestor, paths in dag.items()
                    },
                )
        found[(src, dst)] = _join(topo, dags[src][0], dags[dst][1])
    return found


def updown_paths(topo: Topology, src: str, dst: str) -> List[Path]:
    """The shortest up-down switch paths between two switches.

    The switches are typically ToRs; the paths are those through the
    *lowest* common ancestor layer, matching the paper's ELP.
    """
    paths = updown_paths_by_pair(topo, [(src, dst)])[(src, dst)]
    if not paths:
        raise RoutingError(f"no up-down path {src!r} -> {dst!r}")
    return paths
