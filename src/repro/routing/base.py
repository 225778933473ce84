"""Routing primitives: paths, route sets and forwarding tables.

A *path* is a list of node names. Paths used as expected lossless paths
(ELP) are switch-level: they may start/end at hosts, in which case the host
hops are ignored by the tagging algorithms (tags live on switch ingress
ports). Forwarding tables map destinations to next hops per switch and are
what the simulator actually executes; deadlock scenarios are created by
editing these tables (paper Figs 10-12).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.exceptions import RoutingError
from repro.topology.base import Topology

Path = Tuple[str, ...]


@lru_cache(maxsize=65536)
def _ecmp_mix(switch: str, flow_hash: int) -> int:
    """Per-(switch, flow) ECMP selector.

    Real ASICs salt the ECMP hash per box so consecutive hops make
    independent member choices (avoiding hash polarization). The mixer
    must be *non-linear* in the inputs: a CRC-style mix makes any two
    switches' choices differ by a flow-independent constant (CRC is
    linear over GF(2)), which re-introduces polarization. BLAKE2 is
    deterministic across processes and cached per (switch, flow).
    """
    digest = hashlib.blake2b(
        f"{switch}:{flow_hash}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def as_path(nodes: Sequence[str]) -> Path:
    """Normalize a node sequence to the canonical tuple form."""
    return tuple(nodes)


def validate_path(topo: Topology, path: Sequence[str], allow_failed: bool = False) -> Path:
    """Check that ``path`` exists in ``topo`` (consecutive hops are linked).

    Returns the canonical tuple. Raises :class:`RoutingError` otherwise.
    """
    if len(path) == 0:
        raise RoutingError("empty path")
    for name in path:
        if name not in topo.nodes:
            raise RoutingError(f"path visits unknown node {name!r}")
    for a, b in hops(path):
        if not topo.has_link(a, b):
            raise RoutingError(f"path uses non-existent link {a!r} -> {b!r}")
        if not allow_failed and topo.is_failed(a, b):
            raise RoutingError(f"path uses failed link {a!r} -> {b!r}")
    return as_path(path)


def hops(path: Sequence[str]) -> Iterator[Tuple[str, str]]:
    """Yield consecutive ``(from, to)`` node pairs."""
    for i in range(len(path) - 1):
        yield path[i], path[i + 1]


def is_loop_free(path: Sequence[str]) -> bool:
    """True iff no node repeats."""
    return len(set(path)) == len(path)


@dataclass
class ForwardingTable:
    """Per-switch destination-based forwarding state.

    ``entries[switch][dst]`` is an ordered list of next-hop node names
    (multiple entries = ECMP group; the simulator picks by flow hash).
    ``dst`` is a host name (or, for switch-terminated traffic such as
    BCube relay servers, a switch name).
    """

    entries: Dict[str, Dict[str, List[str]]] = field(default_factory=dict)
    #: Bumped by every mutation. Route caches (the fast simulator switch)
    #: key their validity on this, so mid-run table edits — convergence
    #: replays, reroutes, injected loops — invalidate instantly. All
    #: writes go through the three mutators below.
    version: int = 0

    def set_next_hops(self, switch: str, dst: str, next_hops: Sequence[str]) -> None:
        if not next_hops:
            raise RoutingError(f"empty next-hop set for {dst!r} at {switch!r}")
        self.entries.setdefault(switch, {})[dst] = list(next_hops)
        self.version += 1

    def add_next_hop(self, switch: str, dst: str, next_hop: str) -> None:
        bucket = self.entries.setdefault(switch, {}).setdefault(dst, [])
        if next_hop not in bucket:
            bucket.append(next_hop)
            self.version += 1

    def next_hops(self, switch: str, dst: str) -> List[str]:
        try:
            return list(self.entries[switch][dst])
        except KeyError:
            raise RoutingError(f"{switch!r} has no route to {dst!r}") from None

    def has_route(self, switch: str, dst: str) -> bool:
        return dst in self.entries.get(switch, {})

    def next_hop(self, switch: str, dst: str, flow_hash: int = 0) -> str:
        """Deterministic ECMP selection by flow hash.

        The flow hash is mixed with a per-switch seed, as real ASICs do to
        avoid ECMP polarization (every switch picking the same member for
        the same flow). Without this, e.g., a bounced packet would revisit
        the exact ECMP choices that led it to the failed link.
        """
        candidates = self.next_hops(switch, dst)
        return candidates[_ecmp_mix(switch, flow_hash) % len(candidates)]

    def remove_route(self, switch: str, dst: str) -> None:
        if self.entries.get(switch, {}).pop(dst, None) is not None:
            self.version += 1

    def trace(
        self, src: str, dst: str, flow_hash: int = 0, max_hops: int = 64
    ) -> Tuple[Path, bool]:
        """Walk the tables from ``src`` towards ``dst``.

        Returns ``(path, completed)``. ``completed`` is False when the walk
        exceeded ``max_hops`` (i.e. a forwarding loop) — the path then holds
        the visited prefix.
        """
        path = [src]
        current = src
        for _ in range(max_hops):
            if current == dst:
                return as_path(path), True
            nxt = self.next_hop(current, dst, flow_hash)
            path.append(nxt)
            current = nxt
        return as_path(path), current == dst

    @staticmethod
    def from_paths(topo: Topology, paths: Iterable[Sequence[str]]) -> "ForwardingTable":
        """Build tables that realize a set of (host-to-host) paths.

        Every path contributes, at each transit node, a next-hop entry
        toward the path's final node. Conflicting paths for the same
        (switch, dst) merge into an ECMP group.
        """
        table = ForwardingTable()
        for path in paths:
            canonical = validate_path(topo, path, allow_failed=True)
            dst = canonical[-1]
            for node, nxt in hops(canonical):
                if topo.node(node).is_host:
                    continue
                table.add_next_hop(node, dst, nxt)
        return table


def count_bounces(topo: Topology, path: Sequence[str]) -> int:
    """Number of DOWN->UP direction reversals along a layered-topology path.

    A *bounce* (paper §4.2) is a violation of the up-down property: the
    packet was travelling down (or sideways after having descended) and
    goes up again. Hosts are treated as layer ``-1`` so the initial
    host->ToR hop counts as the start of the UP phase, not a bounce.

    Raises :class:`RoutingError` if any node lacks a layer (unlayered
    topologies have no notion of bounce).
    """
    layers = []
    for name in path:
        layer = topo.node(name).layer
        if layer is None:
            raise RoutingError(f"node {name!r} has no layer; bounce undefined")
        layers.append(layer)
    bounces = 0
    descended = False
    for i in range(len(layers) - 1):
        if layers[i + 1] < layers[i]:
            descended = True
        elif layers[i + 1] > layers[i] and descended:
            bounces += 1
            descended = False
    return bounces
