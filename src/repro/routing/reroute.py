"""Transient local rerouting around failed links.

The bounces the paper measures in production (§3.2) arise because routing
protocols are asynchronous distributed systems: after a link fails, the
switch adjacent to the failure detours traffic locally (or a not-yet-
reconverged upstream keeps sending toward it), producing paths that go
DOWN and then UP again — the 1-bounce paths of Fig. 3.

:func:`apply_local_reroute` edits a forwarding table exactly that way:
only switches that lost their next hop pick a new one; everybody else's
state is untouched. This is the mechanism the Fig. 10 deadlock scenario
uses to force flows onto bounce paths.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.exceptions import RoutingError
from repro.routing.base import ForwardingTable
from repro.routing.shortest import bfs_distances
from repro.topology.base import Topology

LinkKey = Tuple[str, str]


def apply_local_reroute(
    topo: Topology,
    table: ForwardingTable,
    failed: LinkKey,
) -> List[Tuple[str, str, str]]:
    """Detour around one failed link by editing only the adjacent switches.

    For every ``(switch, dst)`` entry whose next-hop set crosses the failed
    link, the dead next hop is removed; if the ECMP set becomes empty the
    switch installs a detour via some other active neighbor that can still
    reach ``dst`` (excluding the failed peer). Upward neighbors are tried
    first, which in a Clos produces exactly the canonical 1-bounce detour.

    The topology must already have the link marked failed (so the detour
    search does not use it). Returns the list of edits as
    ``(switch, dst, new_next_hop)`` tuples.

    Raises :class:`RoutingError` if some affected destination becomes
    unreachable from the detouring switch.
    """
    a, b = failed
    if not topo.is_failed(a, b):
        raise RoutingError(f"link {failed} must be failed before rerouting")

    edits: List[Tuple[str, str, str]] = []
    distance_cache: Dict[str, Dict[str, int]] = {}

    for switch, dead_peer in ((a, b), (b, a)):
        routes = table.entries.get(switch, {})
        for dst in list(routes):
            hops = routes[dst]
            if dead_peer not in hops:
                continue
            remaining = [hop for hop in hops if hop != dead_peer]
            if remaining:
                table.set_next_hops(switch, dst, remaining)
                continue
            detour = _pick_detour(topo, switch, dead_peer, dst, distance_cache)
            if detour is None:
                raise RoutingError(
                    f"{switch!r} has no detour to {dst!r} after losing "
                    f"link to {dead_peer!r}"
                )
            table.set_next_hops(switch, dst, [detour])
            edits.append((switch, dst, detour))
    return edits


def _pick_detour(
    topo: Topology,
    switch: str,
    dead_peer: str,
    dst: str,
    distance_cache: Dict[str, Dict[str, int]],
) -> Optional[str]:
    """Choose a live neighbor of ``switch`` that can still reach ``dst``."""
    if dst not in distance_cache:
        distance_cache[dst] = bfs_distances(topo, dst)
    dist = distance_cache[dst]
    candidates = [
        peer
        for peer in topo.neighbors(switch)
        if peer != dead_peer and topo.node(peer).is_switch and peer in dist
    ]
    if not candidates:
        return None

    def sort_key(peer: str) -> Tuple[int, int, str]:
        layer = topo.node(peer).layer
        my_layer = topo.node(switch).layer
        goes_up = (
            0
            if (layer is not None and my_layer is not None and layer > my_layer)
            else 1
        )
        return (goes_up, dist[peer], peer)

    return sorted(candidates, key=sort_key)[0]
