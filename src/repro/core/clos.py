"""Topology-aware Tagger for layered fabrics (paper §4.3 and §6).

The layered scheme needs no path enumeration at all. Packets start with
an initial tag; a switch raises the tag when a packet *turns back up*,
and tag ``i`` maps to lossless priority ``i`` for ``i <= k + 1`` where
``k`` is the operator's turn budget; packets that turn more than ``k``
times exceed the largest lossless tag and are demoted to the lossy
class. The paper proves this is *optimal* on a Clos: making all
<= k-bounce paths lossless requires at least ``k + 1`` lossless
priorities (§4.4, pigeonhole).

One turn rule covers every layered fabric. Each port of a switch is
classified once, by where its peer sits: ``rise = +1`` toward a higher
layer, ``-1`` toward a lower one (hosts sit at layer -1) and ``0`` across
a same-layer express link. A transit ``in -> out`` raises the tag iff
``rise(in) + rise(out) > 0``, or both are 0:

- on a strictly layered Clos/FatTree only ``+1, +1`` fires: the packet
  came down and goes back up — the §4.3 bounce;
- with Flyways/Helios/Projector express links (§6) it also fires on
  DOWN -> FLAT, FLAT -> UP and FLAT -> FLAT, so within one tag a packet
  climbs, crosses at most one express link, then only descends, and no
  cycle (an express ring included) fits in one priority.

§6's staggered traffic classes are the same policy with several
initial tags (:func:`repro.core.multiclass.staggered_tagger`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.rules import RuleTable, materialize_policy, policy_tags_along_path
from repro.core.tags import INITIAL_TAG, LOSSY_TAG, TaggedGraph
from repro.exceptions import TaggingError
from repro.topology.base import Topology


class ClosTagger:
    """Turn-counting tag policy for a layered fabric.

    Ports are classified when the tagger is built; build a new tagger
    after adding links.

    Attributes:
        topo: A layered topology (every switch has a ``layer``).
        max_bounces: Turn budget ``k``; paths with more turns go lossy.
        initial_tags: Tags hosts inject, one per traffic class.
        max_lossless_tag: ``INITIAL_TAG + k``, the last tag kept lossless.
    """

    def __init__(
        self,
        topo: Topology,
        max_bounces: int = 1,
        initial_tags: Sequence[int] = (INITIAL_TAG,),
    ) -> None:
        if max_bounces < 0:
            raise TaggingError("max_bounces must be >= 0")
        self.topo = topo
        self.max_bounces = max_bounces
        self.max_lossless_tag = INITIAL_TAG + max_bounces
        self.initial_tags = tuple(initial_tags)
        layer: Dict[str, int] = {}
        for name, node in topo.nodes.items():
            if node.layer is None:
                raise TaggingError(
                    f"{name!r} has no layer; ClosTagger needs a layered topology"
                )
            layer[name] = node.layer
        self._rise = {
            switch: {
                port: (layer[peer] > layer[switch]) - (layer[peer] < layer[switch])
                for port, peer in topo.ports(switch).items()
            }
            for switch in topo.switches
        }

    @property
    def num_lossless_tags(self) -> int:
        """Lossless priorities required: ``k + 1`` (paper-optimal)."""
        return self.max_bounces + 1

    # ------------------------------------------------------------------
    # The tag policy itself
    # ------------------------------------------------------------------
    def raises_tag(self, switch: str, in_port: int, out_port: int) -> bool:
        """Does this transit turn back up, ``rise(in) + rise(out) > 0``,
        or take a second flat hop in a row?"""
        rise = self._rise[switch]
        turn = rise[in_port] + rise[out_port]
        return turn > 0 or (turn == 0 and rise[in_port] == 0)

    def rewrite(self, switch: str, in_port: int, out_port: int, tag: int) -> int:
        """New tag for a packet transiting ``switch``.

        Mirrors the match-action behaviour: lossy stays lossy; a turn
        raises the tag; exceeding the lossless budget demotes to
        :data:`LOSSY_TAG`.
        """
        if not INITIAL_TAG <= tag <= self.max_lossless_tag:
            return LOSSY_TAG
        if self.raises_tag(switch, in_port, out_port):
            tag += 1
        return tag if tag <= self.max_lossless_tag else LOSSY_TAG

    def tag_along_path(
        self, path: Sequence[str], initial_tag: int = INITIAL_TAG
    ) -> List[int]:
        """Tag carried by a packet as it arrives at each hop of ``path``.

        Entry ``i`` is the tag on the wire into ``path[i + 1]``; the list
        has ``len(path) - 1`` entries. The packet is injected with
        ``initial_tag``; once demoted, it stays :data:`LOSSY_TAG`.
        """
        return policy_tags_along_path(self.topo, self.rewrite, path, initial_tag)

    def path_stays_lossless(self, path: Sequence[str]) -> bool:
        """True iff no hop of ``path`` is demoted to the lossy class."""
        return LOSSY_TAG not in self.tag_along_path(path)

    # ------------------------------------------------------------------
    # Tagged-graph export (for verification and CBD analysis)
    # ------------------------------------------------------------------
    def tagged_graph(self) -> TaggedGraph:
        """The complete tagged graph induced by this policy
        (:func:`~repro.core.rules.materialize_policy` over :meth:`rewrite`
        and every lossless tag; host ports are live for
        :attr:`initial_tags`)."""
        return self.materialize()[0]

    def materialize(self) -> Tuple[TaggedGraph, Dict[str, RuleTable]]:
        """This policy's tagged graph and per-switch rule tables, from one
        evaluation of :meth:`rewrite` per transit."""
        return materialize_policy(
            self.topo,
            self.rewrite,
            range(INITIAL_TAG, self.max_lossless_tag + 1),
            self.initial_tags,
        )
