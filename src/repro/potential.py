"""The rank potential: a certificate of Theorem 5.1 that needs no graph.

On a layered fabric every port has a *rise*: ``+1`` when it faces a
higher layer, ``0`` across a flat (same-layer) link and ``-1`` toward a
lower one, with hosts at layer ``-1``. A packet that arrived on port
``in`` travelled in direction ``d_in = -rise(in)``; leaving on ``out``
it travels ``d_out = rise(out)``. The potential of a buffer node is

    ``φ(switch, in_port, tag) = (tag, phase, key)``

- phase 0 while climbing (``d_in = +1``), key ``layer(switch)``;
- phase 1 after a flat hop (``d_in = 0``), key 0;
- phase 2 while descending (``d_in = -1``), key ``-layer(switch)``;

compared lexicographically. A rule ``(t, in, out) -> t'`` respects φ iff
``t' > t``, or ``t' == t`` and ``d_out <= d_in`` with not both 0: the
turn rule of THEORY.md §7. Every edge such a rule induces raises φ
(the tag grows, or the phase grows, or the key grows along a climb or a
descent), so a plan whose every rule respects φ has no cycle in any tag
(R1) and no falling tag (R2). docs/THEORY.md §8 has the proof.

The rank is the layer. The check reads only the topology and the rule
tables; it shares no code with the cycle search of the tagged graph, so
a plan it certifies is certified twice, by arguments that share nothing.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Protocol, Tuple

from repro.topology.base import Topology

__all__ = [
    "LOSSY_TAG",
    "MatchKey",
    "Rise",
    "Rule",
    "Table",
    "check_potential",
    "port_rise",
    "table_violation",
]

#: Tag 0 demotes: a rule that rewrites to it sends the packet to the
#: lossy queue, outside every lossless buffer, so it induces no edge.
LOSSY_TAG = 0

#: ``(tag, in_port, out_port)``, as a rule table keys its rules.
MatchKey = Tuple[int, int, int]

#: One rule: its match key and its rewrite.
Rule = Tuple[MatchKey, int]


class Table(Protocol):
    """Anything holding one switch's rules (a ``RuleTable`` does)."""

    rules: Mapping[MatchKey, int]


#: Each port's rise: +1 up, 0 flat, -1 down (hosts sit below every switch).
Rise = Dict[int, int]


def port_rise(topo: Topology, switch: str) -> Optional[Rise]:
    """Each port of ``switch`` with its rise, from the nodes' layers.

    None when ``switch`` is not a switch of ``topo``, or when it or any
    node it is wired to has no layer: the potential is then undefined
    there and only a cycle search can judge the switch's rules.
    """
    node = topo.nodes.get(switch)
    if node is None or not node.is_switch or node.layer is None:
        return None
    layer = node.layer
    rise: Rise = {}
    for port, peer in topo.ports(switch).items():
        peer_layer = topo.node(peer).layer
        if peer_layer is None:
            return None
        rise[port] = (peer_layer > layer) - (peer_layer < layer)
    return rise


def table_violation(rules: Mapping[MatchKey, int], rise: Mapping[int, int]) -> Optional[Rule]:
    """The first rule of one table, in sorted key order, that lowers φ
    on a switch whose ports rise as ``rise``; None when every rule
    respects it.

    A lossless rule naming a port the switch does not have cannot be
    placed, so it is reported too.
    """
    violations = []
    for key, new_tag in rules.items():
        if new_tag == LOSSY_TAG:
            continue
        tag, in_port, out_port = key
        if in_port not in rise or out_port not in rise:
            violations.append(key)
        elif new_tag > tag:
            continue
        elif new_tag < tag:
            violations.append(key)
        else:
            d_in = -rise[in_port]
            d_out = rise[out_port]
            if d_out > d_in or d_in == d_out == 0:
                violations.append(key)
    if not violations:
        return None
    first = min(violations)
    return first, rules[first]


def check_potential(
    topo: Topology, tables: Mapping[str, Table]
) -> Optional[Tuple[str, Optional[Rule]]]:
    """The first switch, in sorted order, whose rules φ does not certify,
    with the first rule that lowers φ; None when every rule of every
    table respects φ.

    A switch without a rise vector (see :func:`port_rise`) comes back as
    ``(switch, None)``: nothing on it can be judged by φ.
    """
    for switch in sorted(tables):
        rise = port_rise(topo, switch)
        if rise is None:
            return switch, None
        violation = table_violation(tables[switch].rules, rise)
        if violation is not None:
            return switch, violation
    return None
