"""Core topology model: switches, hosts, ports and bidirectional links.

The Tagger paper reasons about switches at the granularity of *ports*: a
tagged-graph node is an ``(ingress port, tag)`` pair and match-action rules
match on ``(tag, InPort, OutPort)``. The :class:`Topology` class therefore
tracks, for every link, which port number it occupies on each endpoint.

Nodes are identified by short string names (``"T0"``, ``"L1"``, ``"S0"``,
``"H3"``...). Switches carry an optional integer ``layer`` (0 = ToR,
1 = leaf, 2 = spine in a 3-layer Clos) used by up-down routing and the
Clos-specific tagger.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from repro.exceptions import TopologyError

if TYPE_CHECKING:  # pragma: no cover - networkx is imported where it is called
    import networkx as nx

#: Node kind constants.
SWITCH = "switch"
HOST = "host"


@dataclass(frozen=True)
class Node:
    """A device in the topology.

    Attributes:
        name: Unique identifier, e.g. ``"L2"``.
        kind: Either :data:`SWITCH` or :data:`HOST`.
        layer: Layer index for layered topologies (0 = ToR upward). Hosts
            have layer ``-1``. ``None`` for unlayered topologies (Jellyfish).
    """

    name: str
    kind: str
    layer: Optional[int] = None

    @property
    def is_switch(self) -> bool:
        return self.kind == SWITCH

    @property
    def is_host(self) -> bool:
        return self.kind == HOST


@dataclass(frozen=True)
class Link:
    """An undirected link occupying one port on each endpoint.

    ``port_a`` is the port number on ``a``; ``port_b`` the port on ``b``.
    """

    a: str
    b: str
    port_a: int
    port_b: int

    def other(self, name: str) -> str:
        """Return the endpoint opposite to ``name``."""
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise TopologyError(f"{name!r} is not an endpoint of {self}")

    def port_on(self, name: str) -> int:
        """Return the port number this link uses on endpoint ``name``."""
        if name == self.a:
            return self.port_a
        if name == self.b:
            return self.port_b
        raise TopologyError(f"{name!r} is not an endpoint of {self}")

    @property
    def key(self) -> Tuple[str, str]:
        """Canonical (sorted) endpoint pair identifying this link."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


class Topology:
    """A data center topology of switches, hosts and links.

    The class keeps three synchronized indexes:

    - ``nodes``: name -> :class:`Node`
    - ``links``: canonical endpoint pair -> :class:`Link`
    - per-node port maps (port number -> neighbor name and back)

    Links may be administratively *failed*; failed links stay in the object
    (so port numbering is stable) but are excluded from ``active``
    adjacency queries and from the graphs handed to routing.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self._ports: Dict[str, Dict[int, str]] = {}      # node -> port -> peer
        self._peer_port: Dict[str, Dict[str, int]] = {}  # node -> peer -> port
        self._failed: Set[Tuple[str, str]] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, kind: str, layer: Optional[int] = None) -> Node:
        """Add a node; raises :class:`TopologyError` on duplicates."""
        if name in self.nodes:
            raise TopologyError(f"duplicate node {name!r}")
        if kind not in (SWITCH, HOST):
            raise TopologyError(f"unknown node kind {kind!r}")
        node = Node(name=name, kind=kind, layer=layer)
        self.nodes[name] = node
        self._ports[name] = {}
        self._peer_port[name] = {}
        return node

    def add_switch(self, name: str, layer: Optional[int] = None) -> Node:
        return self.add_node(name, SWITCH, layer=layer)

    def add_host(self, name: str) -> Node:
        return self.add_node(name, HOST, layer=-1)

    def add_link(
        self,
        a: str,
        b: str,
        port_a: Optional[int] = None,
        port_b: Optional[int] = None,
    ) -> Link:
        """Connect ``a`` and ``b``. Ports default to the next free number.

        Port numbers are dense non-negative integers per node, mirroring
        physical switch port numbering. Explicit ports must not collide
        with ports already in use on that node.
        """
        for name in (a, b):
            if name not in self.nodes:
                raise TopologyError(f"unknown node {name!r}")
        if a == b:
            raise TopologyError(f"self-loop on {a!r} not allowed")
        key = (a, b) if a <= b else (b, a)
        if key in self.links:
            raise TopologyError(f"duplicate link {a!r} <-> {b!r}")

        if port_a is None:
            port_a = self._next_free_port(a)
        if port_b is None:
            port_b = self._next_free_port(b)
        if port_a in self._ports[a]:
            raise TopologyError(f"port {port_a} on {a!r} already in use")
        if port_b in self._ports[b]:
            raise TopologyError(f"port {port_b} on {b!r} already in use")

        link = Link(a=a, b=b, port_a=port_a, port_b=port_b)
        self.links[key] = link
        self._ports[a][port_a] = b
        self._ports[b][port_b] = a
        self._peer_port[a][b] = port_a
        self._peer_port[b][a] = port_b
        return link

    def _next_free_port(self, name: str) -> int:
        used = self._ports[name]
        for candidate in itertools.count():
            if candidate not in used:
                return candidate
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # Failure management
    # ------------------------------------------------------------------
    def fail_link(self, a: str, b: str) -> None:
        """Mark the a<->b link as down. Idempotent."""
        self._failed.add(self._link_key(a, b))

    def restore_link(self, a: str, b: str) -> None:
        """Bring the a<->b link back up. Idempotent."""
        self._failed.discard(self._link_key(a, b))

    def restore_all(self) -> None:
        """Clear every failure."""
        self._failed.clear()

    def is_failed(self, a: str, b: str) -> bool:
        return self._link_key(a, b) in self._failed

    @property
    def failed_links(self) -> Set[Tuple[str, str]]:
        return set(self._failed)

    def _link_key(self, a: str, b: str) -> Tuple[str, str]:
        key = (a, b) if a <= b else (b, a)
        if key not in self.links:
            raise TopologyError(f"no link {a!r} <-> {b!r}")
        return key

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def link(self, a: str, b: str) -> Link:
        return self.links[self._link_key(a, b)]

    def has_link(self, a: str, b: str) -> bool:
        key = (a, b) if a <= b else (b, a)
        return key in self.links

    def neighbors(self, name: str, include_failed: bool = False) -> List[str]:
        """Neighbors of ``name`` over (by default) non-failed links."""
        if name not in self.nodes:
            raise TopologyError(f"unknown node {name!r}")
        result = []
        for port in sorted(self._ports[name]):
            peer = self._ports[name][port]
            if include_failed or not self.is_failed(name, peer):
                result.append(peer)
        return result

    def port_to(self, name: str, peer: str) -> int:
        """Port number on ``name`` that faces ``peer``."""
        try:
            return self._peer_port[name][peer]
        except KeyError:
            raise TopologyError(f"no link {name!r} -> {peer!r}") from None

    def peer_ports(self, name: str) -> Dict[str, int]:
        """Copy of the peer map (peer -> port) for ``name``: one
        :meth:`port_to` answer per neighbour, looked up once."""
        if name not in self.nodes:
            raise TopologyError(f"unknown node {name!r}")
        return dict(self._peer_port[name])

    def peer_on_port(self, name: str, port: int) -> str:
        """The node on the far end of ``name``'s port ``port``."""
        try:
            return self._ports[name][port]
        except KeyError:
            raise TopologyError(f"{name!r} has no port {port}") from None

    def ports(self, name: str) -> Dict[int, str]:
        """Copy of the port map (port -> peer) for ``name``."""
        if name not in self.nodes:
            raise TopologyError(f"unknown node {name!r}")
        return dict(self._ports[name])

    def degree(self, name: str, include_failed: bool = True) -> int:
        if include_failed:
            return len(self._ports[name])
        return len(self.neighbors(name))

    # ------------------------------------------------------------------
    # Collections
    # ------------------------------------------------------------------
    @property
    def switches(self) -> List[str]:
        return [n.name for n in self.nodes.values() if n.is_switch]

    @property
    def hosts(self) -> List[str]:
        return [n.name for n in self.nodes.values() if n.is_host]

    def switches_at_layer(self, layer: int) -> List[str]:
        return [
            n.name
            for n in self.nodes.values()
            if n.is_switch and n.layer == layer
        ]

    def layer_of(self, name: str) -> Optional[int]:
        return self.node(name).layer

    def iter_links(self, include_failed: bool = False) -> Iterator[Link]:
        for key, link in sorted(self.links.items()):
            if include_failed or key not in self._failed:
                yield link

    def host_tor(self, host: str) -> str:
        """The (unique) switch a host attaches to."""
        node = self.node(host)
        if not node.is_host:
            raise TopologyError(f"{host!r} is not a host")
        peers = self.neighbors(host, include_failed=True)
        if len(peers) != 1:
            raise TopologyError(
                f"host {host!r} has {len(peers)} uplinks; expected exactly 1"
            )
        return peers[0]

    def hosts_under(self, switch: str) -> List[str]:
        """Hosts directly attached to ``switch``."""
        return [
            peer
            for peer in self.neighbors(switch, include_failed=True)
            if self.node(peer).is_host
        ]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_networkx(self) -> "nx.Graph":
        """Export the (active) topology to an undirected networkx graph."""
        import networkx as nx

        graph = nx.Graph()
        for node in self.nodes.values():
            graph.add_node(node.name, kind=node.kind, layer=node.layer)
        for link in self.iter_links():
            graph.add_edge(link.a, link.b, port_a=link.port_a, port_b=link.port_b)
        return graph

    def validate(self) -> None:
        """Internal consistency check; raises :class:`TopologyError`."""
        for name, ports in self._ports.items():
            for port, peer in ports.items():
                if self._peer_port[peer].get(name) is None:
                    raise TopologyError(
                        f"asymmetric link record {name!r} port {port} -> {peer!r}"
                    )
        for key in self._failed:
            if key not in self.links:
                raise TopologyError(f"failed link {key} not in topology")

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, switches={len(self.switches)}, "
            f"hosts={len(self.hosts)}, links={len(self.links)}, "
            f"failed={len(self._failed)})"
        )
