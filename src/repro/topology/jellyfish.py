"""Jellyfish topology builder (Singla et al., NSDI 2012).

Jellyfish wires top-of-rack switches into a random regular graph. The
Tagger paper evaluates scalability on Jellyfish instances with up to 2000
switches where *half the ports on each switch are connected to servers*
(Table 5), and finds that shortest-path ELPs need at most 3 lossless
priorities.

We generate the switch-to-switch fabric with
:func:`networkx.random_regular_graph` (seeded, so instances are
reproducible), then optionally attach hosts to the remaining ports.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import TopologyError
from repro.topology.base import Topology


def jellyfish(
    num_switches: int,
    ports_per_switch: int,
    network_ports: Optional[int] = None,
    hosts_per_switch: Optional[int] = None,
    seed: int = 1,
) -> Topology:
    """Build a Jellyfish fabric.

    Args:
        num_switches: Number of ToR switches.
        ports_per_switch: Total ports on each switch.
        network_ports: Ports used for switch-to-switch links. Defaults to
            ``ports_per_switch // 2`` (the paper's Table 5 setting: half the
            ports face servers).
        hosts_per_switch: Hosts attached per switch. Defaults to
            ``ports_per_switch - network_ports``. Pass ``0`` to build a
            switch-only fabric (faster for tag-assignment studies).
        seed: RNG seed for the random regular graph.

    The random regular graph requires ``num_switches * network_ports`` to be
    even and ``network_ports < num_switches``.
    """
    if num_switches < 2:
        raise TopologyError("Jellyfish needs at least 2 switches")
    if ports_per_switch < 2:
        raise TopologyError("Jellyfish needs at least 2 ports per switch")
    if network_ports is None:
        network_ports = ports_per_switch // 2
    if not 0 < network_ports < num_switches:
        raise TopologyError(
            f"network_ports must be in (0, num_switches); got {network_ports}"
        )
    if network_ports > ports_per_switch:
        raise TopologyError("network_ports cannot exceed ports_per_switch")
    if (num_switches * network_ports) % 2 != 0:
        raise TopologyError(
            "num_switches * network_ports must be even for a regular graph"
        )
    if hosts_per_switch is None:
        hosts_per_switch = ports_per_switch - network_ports

    import networkx as nx

    random_graph = nx.random_regular_graph(network_ports, num_switches, seed=seed)
    if not nx.is_connected(random_graph):
        # Regenerate with successive seeds until connected; random regular
        # graphs with degree >= 3 are connected with high probability.
        for retry in range(1, 50):
            random_graph = nx.random_regular_graph(
                network_ports, num_switches, seed=seed + retry * 1000003
            )
            if nx.is_connected(random_graph):
                break
        else:
            raise TopologyError(
                "could not generate a connected Jellyfish instance"
            )

    topo = Topology(name=f"jellyfish-{num_switches}x{ports_per_switch}")
    for i in range(num_switches):
        topo.add_switch(f"J{i}", layer=None)
    for a, b in sorted(random_graph.edges()):
        topo.add_link(f"J{a}", f"J{b}")
    host_index = 1
    for i in range(num_switches):
        for _ in range(hosts_per_switch):
            host = f"H{host_index}"
            host_index += 1
            topo.add_host(host)
            topo.add_link(host, f"J{i}")
    return topo
