"""Generic shortest-path routing (BFS/ECMP) for arbitrary topologies.

Used for Jellyfish and BCube ELP construction (paper Table 5 and §5.3) and
as the forwarding-table generator the simulator runs when no scenario-
specific tables are installed. All computations respect link failures.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.routing.base import ForwardingTable, Path, as_path
from repro.topology.base import Topology


def bfs_distances(topo: Topology, root: str) -> Dict[str, int]:
    """Hop distances from ``root`` over active links."""
    dist = {root: 0}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for peer in topo.neighbors(node):
            if peer not in dist:
                dist[peer] = dist[node] + 1
                queue.append(peer)
    return dist


def _downhill_walk(
    topo: Topology, dist: Dict[str, int], src: str, dst: str
) -> Path:
    """Greedy walk down ``dst``'s BFS distances, lexicographic tie-break."""
    node = src
    path = [src]
    while node != dst:
        node = min(
            peer
            for peer in topo.neighbors(node)
            if dist.get(peer, float("inf")) == dist[node] - 1
        )
        path.append(node)
    return as_path(path)


def _downhill_ecmp(
    topo: Topology,
    dist: Dict[str, int],
    src: str,
    dst: str,
    limit: Optional[int],
) -> List[Path]:
    """Every walk down ``dst``'s BFS distances in DFS order, optionally capped."""
    results: List[Path] = []

    def extend(prefix: List[str]) -> bool:
        node = prefix[-1]
        if node == dst:
            results.append(as_path(prefix))
            return limit is not None and len(results) >= limit
        for peer in sorted(topo.neighbors(node)):
            if dist.get(peer, float("inf")) == dist[node] - 1:
                if extend(prefix + [peer]):
                    return True
        return False

    extend([src])
    return results


def downhill_paths(
    topo: Topology, dist: Dict[str, int], src: str, dst: str, per_pair: int = 1
) -> List[Path]:
    """One endpoint pair's shortest paths, given ``bfs_distances(topo, dst)``.

    ``per_pair = 1`` gives the single deterministic path (greedy walk);
    larger values that many ECMP alternatives. An unreachable pair has
    none. This is the per-pair step of :func:`pairwise_shortest_paths`,
    exposed so a caller that needs one pair pays one BFS.
    """
    if src not in dist:
        return []
    if per_pair == 1:
        return [_downhill_walk(topo, dist, src, dst)]
    return _downhill_ecmp(topo, dist, src, dst, per_pair)


def iter_pairwise_shortest_paths(
    topo: Topology,
    endpoints: Sequence[str],
    per_pair: int = 1,
) -> Iterator[Path]:
    """Lazily yield shortest paths between every ordered endpoint pair.

    ``per_pair = 1`` gives a single deterministic path per pair (the
    paper's "shortest-path routing" for Jellyfish); larger values include
    that many ECMP alternatives. Unreachable pairs are skipped.

    Implementation note: one BFS per *destination* serves all sources, so
    the cost is ``O(|endpoints| * (V + E))`` plus path reconstruction.
    """
    names = list(endpoints)
    for dst in names:
        dist = bfs_distances(topo, dst)
        for src in names:
            if src != dst:
                yield from downhill_paths(topo, dist, src, dst, per_pair)


def pairwise_shortest_paths(
    topo: Topology,
    endpoints: Sequence[str],
    per_pair: int = 1,
) -> List[Path]:
    """Shortest paths between every ordered endpoint pair, as a list
    (the batch form of :func:`iter_pairwise_shortest_paths`)."""
    return list(iter_pairwise_shortest_paths(topo, endpoints, per_pair))


def shortest_path_tables(
    topo: Topology, destinations: Optional[Iterable[str]] = None
) -> ForwardingTable:
    """ECMP shortest-path forwarding tables over the active topology.

    For each destination (default: every host) and each switch, next hops
    are all neighbors strictly closer to the destination. This models
    converged IGP/BGP ECMP routing; rerun after failures to model a
    *converged* reroute, or use :mod:`repro.routing.reroute` for transient
    local detours.
    """
    table = ForwardingTable()
    if destinations is None:
        destinations = topo.hosts
    for dst in destinations:
        dist = bfs_distances(topo, dst)
        for switch in topo.switches:
            if switch not in dist or switch == dst:
                continue
            next_hops = sorted(
                peer
                for peer in topo.neighbors(switch)
                if dist.get(peer, float("inf")) == dist[switch] - 1
            )
            if next_hops:
                table.set_next_hops(switch, dst, next_hops)
    return table


def random_loopfree_paths(
    topo: Topology,
    count: int,
    endpoints: Optional[Sequence[str]] = None,
    seed: int = 7,
) -> List[Path]:
    """Random loop-free paths (for the "extra random paths" row of Table 5).

    Each path is a random walk between two random endpoints that never
    revisits a node and gives up beyond the shortest distance plus 3 hops.
    """
    import random

    rng = random.Random(seed)
    if endpoints is None:
        endpoints = sorted(topo.switches)
    paths: List[Path] = []
    attempts = 0
    while len(paths) < count and attempts < count * 50:
        attempts += 1
        src, dst = rng.sample(list(endpoints), 2)
        dist = bfs_distances(topo, dst)
        if src not in dist:
            continue
        budget = dist[src] + 3
        node, walk, visited = src, [src], {src}
        while node != dst and len(walk) <= budget:
            candidates = [
                peer
                for peer in topo.neighbors(node)
                if peer not in visited
                and topo.node(peer).is_switch
                and dist.get(peer, float("inf")) + len(walk) <= budget + 1
            ]
            if not candidates:
                break
            # Bias toward progress so most walks terminate.
            closer = [p for p in candidates if dist[p] < dist[node]]
            pool = closer if (closer and rng.random() < 0.7) else candidates
            node = rng.choice(pool)
            walk.append(node)
            visited.add(node)
        if node == dst:
            paths.append(as_path(walk))
    return paths
