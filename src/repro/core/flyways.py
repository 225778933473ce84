"""Tagger for fabrics with same-layer express links (paper §6).

Flyways/Helios/Projector augment a Clos with direct ToR-to-ToR links.
Those links are *flat* (same layer), so the up-down bounce rule of
:class:`~repro.core.clos.ClosTagger` is no longer sufficient: a packet
could descend, cross a flat link, and climb again without ever turning
"down then up" at a single switch — or circulate around a ring of
express links — re-creating CBDs inside one priority.

The fix generalizes the bounce rule to a *phase order*. Each hop has a
direction: UP (toward a higher layer), FLAT (express) or DOWN. Within a
tag, a trajectory must follow the phase order ``UP* FLAT? DOWN*`` — climb
as much as you like, cross at most one express link, then only descend.
Any transit that violates the order increments the tag:

- DOWN -> UP (the classic bounce),
- FLAT -> UP (climbing after an express crossing),
- DOWN -> FLAT (an express crossing after descending),
- FLAT -> FLAT (a second consecutive express hop — this is what breaks
  express-ring cycles).

Within one tag the trajectory's layer profile is unimodal with at most
one flat step, so no cycle fits in a single priority (R1), and the tag
only ever grows (R2) — Theorem 5.1 applies unchanged, which the test
suite confirms by running the generic verifier on the full tagged graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.rules import policy_tagged_graph, policy_tags_along_path
from repro.core.tags import INITIAL_TAG, LOSSY_TAG, TaggedGraph
from repro.exceptions import TaggingError
from repro.topology.base import Topology

#: Hop phases, ordered: a same-tag trajectory may only move forward.
UP, FLAT, DOWN = 0, 1, 2


@dataclass(frozen=True)
class FlywaysTagger:
    """Phase-ordered tag policy for layered fabrics with express links.

    Attributes:
        topo: Layered topology, possibly with same-layer express links.
        max_increments: How many phase-order violations a packet may
            accumulate before demotion to lossy. A plain up-down path
            needs 0; a single-bounce reroute needs 1; a typical express
            path "up-down, express, up-down" needs 2.
    """

    topo: Topology
    max_increments: int = 2

    def __post_init__(self) -> None:
        if self.max_increments < 0:
            raise TaggingError("max_increments must be >= 0")
        for name in self.topo.switches:
            if self.topo.layer_of(name) is None:
                raise TaggingError(
                    f"switch {name!r} has no layer; FlywaysTagger needs a "
                    "layered topology"
                )

    @property
    def num_lossless_tags(self) -> int:
        return self.max_increments + 1

    @property
    def max_lossless_tag(self) -> int:
        return INITIAL_TAG + self.max_increments

    # ------------------------------------------------------------------
    # Phase machinery
    # ------------------------------------------------------------------
    def _phase_in(self, switch: str, in_port: int) -> int:
        """Phase the packet was in when it arrived at ``switch``."""
        peer = self.topo.peer_on_port(switch, in_port)
        peer_layer = self.topo.layer_of(peer)
        my_layer = self.topo.layer_of(switch)
        if peer_layer is None:  # host: packets from hosts are climbing
            return UP
        if peer_layer < my_layer:
            return UP
        if peer_layer > my_layer:
            return DOWN
        return FLAT

    def _phase_out(self, switch: str, out_port: int) -> int:
        peer = self.topo.peer_on_port(switch, out_port)
        peer_layer = self.topo.layer_of(peer)
        my_layer = self.topo.layer_of(switch)
        if peer_layer is None:  # host delivery: the final descent
            return DOWN
        if peer_layer > my_layer:
            return UP
        if peer_layer < my_layer:
            return DOWN
        return FLAT

    def violates_order(self, switch: str, in_port: int, out_port: int) -> bool:
        """Does this transit step the phase order backwards?"""
        phase_in = self._phase_in(switch, in_port)
        phase_out = self._phase_out(switch, out_port)
        if phase_in == FLAT and phase_out == FLAT:
            return True  # consecutive express hops: break express rings
        return phase_out < phase_in

    def rewrite(self, switch: str, in_port: int, out_port: int, tag: int) -> int:
        if tag == LOSSY_TAG:
            return LOSSY_TAG
        if tag < INITIAL_TAG or tag > self.max_lossless_tag:
            return LOSSY_TAG
        new_tag = (
            tag + 1 if self.violates_order(switch, in_port, out_port) else tag
        )
        if new_tag > self.max_lossless_tag:
            return LOSSY_TAG
        return new_tag

    # ------------------------------------------------------------------
    # Path helpers and tagged-graph export (same API as ClosTagger)
    # ------------------------------------------------------------------
    def tag_along_path(self, path: Sequence[str]) -> List[int]:
        """Arriving tag per hop (see ClosTagger.tag_along_path)."""
        return policy_tags_along_path(self.topo, self.rewrite, path)

    def path_stays_lossless(self, path: Sequence[str]) -> bool:
        return all(tag != LOSSY_TAG for tag in self.tag_along_path(path))

    def tagged_graph(self, host_tags: Sequence[int] = (INITIAL_TAG,)) -> TaggedGraph:
        """Complete induced tagged graph (see ClosTagger.tagged_graph)."""
        return policy_tagged_graph(
            self.topo,
            self.rewrite,
            range(INITIAL_TAG, self.max_lossless_tag + 1),
            host_tags,
        )
