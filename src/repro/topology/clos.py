"""Clos topology builders.

The paper's running example (Fig. 2) is a 3-layer Clos: ToR switches at
layer 0, leaf switches at layer 1 and spine switches at layer 2, with hosts
hanging off the ToRs. ToRs connect to every leaf in their pod; every leaf
connects to every spine. The testbed in §8 is exactly ``clos3(num_pods=2,
tors_per_pod=2, leaves_per_pod=2, num_spines=2, hosts_per_tor=4)``.

Naming convention matches the paper: ``T1..``, ``L1..``, ``S1..``, ``H1..``
(1-based, global numbering across pods).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.exceptions import TopologyError
from repro.topology.base import Topology

#: Layer indexes used throughout the library.
TOR_LAYER = 0
LEAF_LAYER = 1
SPINE_LAYER = 2


@dataclass(frozen=True)
class ClosParams:
    """Parameters of a 3-layer Clos fabric."""

    num_pods: int = 2
    tors_per_pod: int = 2
    leaves_per_pod: int = 2
    num_spines: int = 2
    hosts_per_tor: int = 4

    def validate(self) -> None:
        for field_name in (
            "num_pods",
            "tors_per_pod",
            "leaves_per_pod",
            "num_spines",
        ):
            if getattr(self, field_name) < 1:
                raise TopologyError(f"{field_name} must be >= 1")
        if self.hosts_per_tor < 0:
            raise TopologyError("hosts_per_tor must be >= 0")


def clos3(params: ClosParams = ClosParams()) -> Topology:
    """Build a 3-layer Clos fabric.

    Wiring:
      - host ``H{i}`` -> its ToR;
      - each ToR -> every leaf in the same pod;
      - each leaf -> every spine.

    Returns a :class:`Topology` whose switches carry layer attributes
    (:data:`TOR_LAYER`, :data:`LEAF_LAYER`, :data:`SPINE_LAYER`).
    """
    params.validate()
    topo = Topology(name=f"clos3-p{params.num_pods}")

    spines = [f"S{i + 1}" for i in range(params.num_spines)]
    for spine in spines:
        topo.add_switch(spine, layer=SPINE_LAYER)

    host_index = 1
    for pod in range(params.num_pods):
        leaves = [
            f"L{pod * params.leaves_per_pod + j + 1}"
            for j in range(params.leaves_per_pod)
        ]
        tors = [
            f"T{pod * params.tors_per_pod + j + 1}"
            for j in range(params.tors_per_pod)
        ]
        for leaf in leaves:
            topo.add_switch(leaf, layer=LEAF_LAYER)
            for spine in spines:
                topo.add_link(leaf, spine)
        for tor in tors:
            topo.add_switch(tor, layer=TOR_LAYER)
            for leaf in leaves:
                topo.add_link(tor, leaf)
            for _ in range(params.hosts_per_tor):
                host = f"H{host_index}"
                host_index += 1
                topo.add_host(host)
                topo.add_link(host, tor)
    return topo


def testbed_clos() -> Topology:
    """The exact 16-host / 8-switch testbed topology of paper §8 (Fig. 2)."""
    return clos3(
        ClosParams(
            num_pods=2,
            tors_per_pod=2,
            leaves_per_pod=2,
            num_spines=2,
            hosts_per_tor=4,
        )
    )


#: Paper Fig. 3 / Fig. 10's two 1-bounce flows on :func:`testbed_clos`,
#: host to host (the switch-only form is ``[1:-1]``): green bounces at
#: L1, blue bounces at L3, together forming the CBD L1->S1->L3->S2->L1.
TESTBED_GREEN_PATH = ("H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H2")
TESTBED_BLUE_PATH = ("H1", "T1", "L1", "S1", "L3", "S2", "L4", "T4", "H13")


def leaf_spine(
    num_leaves: int, num_spines: int, hosts_per_leaf: int = 0
) -> Topology:
    """Build a 2-layer leaf-spine Clos (every leaf to every spine)."""
    if num_leaves < 1 or num_spines < 1:
        raise TopologyError("need at least one leaf and one spine")
    topo = Topology(name=f"leafspine-{num_leaves}x{num_spines}")
    spines = [f"S{i + 1}" for i in range(num_spines)]
    for spine in spines:
        topo.add_switch(spine, layer=LEAF_LAYER)
    host_index = 1
    for i in range(num_leaves):
        leaf = f"T{i + 1}"
        topo.add_switch(leaf, layer=TOR_LAYER)
        for spine in spines:
            topo.add_link(leaf, spine)
        for _ in range(hosts_per_leaf):
            host = f"H{host_index}"
            host_index += 1
            topo.add_host(host)
            topo.add_link(host, leaf)
    return topo


def pod_of(topo: Topology, switch: str, params: ClosParams) -> int:
    """Pod index (0-based) of a ToR or leaf switch in a :func:`clos3` fabric."""
    node = topo.node(switch)
    index = int(switch[1:]) - 1
    if node.layer == TOR_LAYER:
        return index // params.tors_per_pod
    if node.layer == LEAF_LAYER:
        return index // params.leaves_per_pod
    raise TopologyError(f"{switch!r} is not a ToR or leaf switch")


def upward_neighbors(topo: Topology, switch: str) -> List[str]:
    """Active switch neighbors one layer above ``switch``."""
    layer = topo.layer_of(switch)
    if layer is None:
        raise TopologyError(f"{switch!r} has no layer")
    return [
        peer
        for peer in topo.neighbors(switch)
        if topo.node(peer).is_switch and topo.node(peer).layer == layer + 1
    ]
