"""Flexible topologies: optical / wireless express links (paper §6).

"Tagger can support architectures like Helios, Flyways or Projector, as
long as the ELP set is specified." Those systems augment a static Clos
with reconfigurable *express links* directly connecting ToR switches
(optical circuit switches in Helios/Projector, 60 GHz wireless in
Flyways). Express links are same-layer, so the §4.3 bounce rule alone
no longer suffices; the turn rule of :class:`~repro.core.clos.ClosTagger`
also raises the tag around flat hops.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.exceptions import TopologyError
from repro.topology.base import Link, Topology


def add_express_link(
    topo: Topology, tor_a: str, tor_b: str
) -> Link:
    """Install a direct ToR-to-ToR express link (same-layer).

    Both endpoints must be switches on the same layer. The link behaves
    like any other: it can fail, carries PFC, and appears in ELP paths.
    """
    for name in (tor_a, tor_b):
        node = topo.node(name)
        if not node.is_switch:
            raise TopologyError(f"express endpoint {name!r} is not a switch")
        if node.layer is None:
            raise TopologyError(f"express endpoint {name!r} has no layer")
    if topo.layer_of(tor_a) != topo.layer_of(tor_b):
        raise TopologyError(
            "express links connect switches on the SAME layer; "
            f"got {tor_a!r} (L{topo.layer_of(tor_a)}) and "
            f"{tor_b!r} (L{topo.layer_of(tor_b)})"
        )
    return topo.add_link(tor_a, tor_b)


def express_links(topo: Topology) -> List[Tuple[str, str]]:
    """All same-layer switch-to-switch links currently installed."""
    result = []
    for link in topo.iter_links(include_failed=True):
        a, b = topo.node(link.a), topo.node(link.b)
        if (
            a.is_switch
            and b.is_switch
            and a.layer is not None
            and a.layer == b.layer
        ):
            result.append(link.key)
    return result


def reconfigure_express(
    topo: Topology,
    remove: Sequence[Tuple[str, str]] = (),
    add: Sequence[Tuple[str, str]] = (),
) -> List[Link]:
    """One optical reconfiguration step: tear down and set up circuits.

    Removal is modelled as failing the link (port numbering stays stable,
    matching how a circuit switch re-points an existing port); additions
    create new links. Returns the newly created links.
    """
    for a, b in remove:
        topo.fail_link(a, b)
    created = []
    for a, b in add:
        if topo.has_link(a, b):
            topo.restore_link(a, b)
        else:
            created.append(add_express_link(topo, a, b))
    return created
