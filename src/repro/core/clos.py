"""Topology-aware Tagger for Clos/FatTree fabrics (paper §4.3).

The Clos scheme needs no path enumeration at all. Packets start with tag
1; every time a ToR or leaf switch sees a packet *come down and go back
up* (a bounce), it increments the tag; spines never change tags. Tag
``i`` maps to lossless priority ``i`` for ``i <= k + 1`` where ``k`` is
the operator's bounce budget; packets that bounce more than ``k`` times
exceed the largest lossless tag and are demoted to the lossy class.

The paper proves this is *optimal*: making all <= k-bounce paths lossless
requires at least ``k + 1`` lossless priorities (§4.4, pigeonhole).

The implementation generalizes to any strictly layered topology (every
link connects adjacent layers): a bounce is "ingress port faces a higher
layer AND egress port faces a higher layer".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.rules import policy_tagged_graph, policy_tags_along_path
from repro.core.tags import INITIAL_TAG, LOSSY_TAG, TaggedGraph
from repro.exceptions import TaggingError
from repro.topology.base import Topology


@dataclass(frozen=True)
class ClosTagger:
    """Bounce-counting tag policy for a layered fabric.

    Attributes:
        topo: A layered topology (every switch has a ``layer``).
        max_bounces: Bounce budget ``k``; paths with more bounces go lossy.
    """

    topo: Topology
    max_bounces: int = 1

    def __post_init__(self) -> None:
        if self.max_bounces < 0:
            raise TaggingError("max_bounces must be >= 0")
        for name in self.topo.switches:
            if self.topo.layer_of(name) is None:
                raise TaggingError(
                    f"switch {name!r} has no layer; ClosTagger needs a "
                    "layered topology"
                )

    @property
    def num_lossless_tags(self) -> int:
        """Lossless priorities required: ``k + 1`` (paper-optimal)."""
        return self.max_bounces + 1

    @property
    def max_lossless_tag(self) -> int:
        return INITIAL_TAG + self.max_bounces

    # ------------------------------------------------------------------
    # The tag policy itself
    # ------------------------------------------------------------------
    def is_bounce(self, switch: str, in_port: int, out_port: int) -> bool:
        """Does transiting ``switch`` this way reverse DOWN -> UP?"""
        my_layer = self.topo.layer_of(switch)
        in_peer = self.topo.peer_on_port(switch, in_port)
        out_peer = self.topo.peer_on_port(switch, out_port)
        in_layer = self.topo.layer_of(in_peer)
        out_layer = self.topo.layer_of(out_peer)
        return (
            in_layer is not None
            and out_layer is not None
            and in_layer > my_layer
            and out_layer > my_layer
        )

    def rewrite(self, switch: str, in_port: int, out_port: int, tag: int) -> int:
        """New tag for a packet transiting ``switch``.

        Mirrors the match-action behaviour: lossy stays lossy; a bounce
        increments the tag; exceeding the lossless budget demotes to
        :data:`LOSSY_TAG`.
        """
        if tag == LOSSY_TAG:
            return LOSSY_TAG
        if tag < INITIAL_TAG or tag > self.max_lossless_tag:
            return LOSSY_TAG
        new_tag = tag + 1 if self.is_bounce(switch, in_port, out_port) else tag
        if new_tag > self.max_lossless_tag:
            return LOSSY_TAG
        return new_tag

    def tag_along_path(self, path: Sequence[str]) -> List[int]:
        """Tag carried by a packet as it arrives at each hop of ``path``.

        Entry ``i`` is the tag on the wire into ``path[i + 1]``; the list
        has ``len(path) - 1`` entries. The packet is injected with
        :data:`INITIAL_TAG`; once demoted, it stays :data:`LOSSY_TAG`.
        """
        return policy_tags_along_path(self.topo, self.rewrite, path)

    def path_stays_lossless(self, path: Sequence[str]) -> bool:
        """True iff no hop of ``path`` is demoted to the lossy class."""
        return all(tag != LOSSY_TAG for tag in self.tag_along_path(path))

    # ------------------------------------------------------------------
    # Tagged-graph export (for verification and CBD analysis)
    # ------------------------------------------------------------------
    def tagged_graph(self, host_tags: Sequence[int] = (INITIAL_TAG,)) -> TaggedGraph:
        """The complete tagged graph induced by this policy
        (:func:`~repro.core.rules.policy_tagged_graph` over
        :meth:`rewrite` and every lossless tag)."""
        return policy_tagged_graph(
            self.topo,
            self.rewrite,
            range(INITIAL_TAG, self.max_lossless_tag + 1),
            host_tags,
        )
