"""Multiple application classes over shared tags (paper §6).

Operators often dedicate separate lossless classes to different traffic
types (e.g. data vs. congestion-notification packets in DCQCN). Treating
each of N classes independently over an M-bounce Clos ELP would cost
``N * (M + 1)`` lossless priorities; the paper's trick is to *stagger*
the classes: class ``c`` (0-based) injects packets with tag ``1 + c`` and
each bounce still increments the tag by one, so with equal bounce budgets
M all classes together need only ``M + N`` tags.

Because the switch rule table is shared (a rule matches only on
``(tag, InPort, OutPort)`` — it cannot tell classes apart), demotion to
the lossy class happens at the *global* maximum tag. A class that starts
lower therefore enjoys a few bonus bounces; the real trade-off is reduced
isolation: a once-bounced class-0 packet shares its priority queue with
fresh class-1 packets.

Deadlock freedom is unaffected — each tag still carries only up-down path
segments and tag updates remain monotone, so both Theorem 5.1
requirements keep holding (verified by :meth:`MultiClassClosTagger.tagged_graph`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.clos import ClosTagger
from repro.core.rules import policy_tags_along_path
from repro.core.tags import INITIAL_TAG, LOSSY_TAG, TaggedGraph
from repro.exceptions import TaggingError
from repro.topology.base import Topology


@dataclass(frozen=True)
class TrafficClass:
    """One application class: its name and its bounce tolerance."""

    name: str
    max_bounces: int


class MultiClassClosTagger:
    """Staggered multi-class bounce tagger for layered fabrics.

    Class ``c`` (0-based, in declaration order) injects packets with tag
    ``INITIAL_TAG + c``. All classes share one rule table, implemented by
    an internal :class:`ClosTagger` whose lossless tag space spans
    ``max(c + M_c) + 1`` tags.
    """

    def __init__(self, topo: Topology, classes: Sequence[TrafficClass]) -> None:
        if not classes:
            raise TaggingError("need at least one traffic class")
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise TaggingError("traffic class names must be unique")
        for cls in classes:
            if cls.max_bounces < 0:
                raise TaggingError(f"negative bounce budget for {cls.name!r}")
        self.topo = topo
        self.classes = list(classes)
        self._index = {cls.name: i for i, cls in enumerate(classes)}
        # Shared rule table: one tagger whose budget covers the whole
        # staggered tag space.
        self._shared = ClosTagger(
            topo,
            max_bounces=max(
                i + cls.max_bounces for i, cls in enumerate(classes)
            ),
        )

    @property
    def num_lossless_tags(self) -> int:
        """Distinct lossless tags: ``max(c + M_c) + 1`` (paper: M + N)."""
        return self._shared.num_lossless_tags

    def class_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise TaggingError(f"unknown traffic class {name!r}") from None

    def initial_tag(self, name: str) -> int:
        """Tag injected for packets of class ``name``."""
        return INITIAL_TAG + self.class_index(name)

    def guaranteed_bounces(self, name: str) -> int:
        """Bounces class ``name`` survives before demotion.

        At least the class's declared budget; classes injected at lower
        tags pick up extra headroom from the shared demotion threshold.
        """
        return self._shared.max_lossless_tag - self.initial_tag(name)

    def rewrite(self, switch: str, in_port: int, out_port: int, tag: int) -> int:
        """The shared rule table's rewrite (class-agnostic)."""
        return self._shared.rewrite(switch, in_port, out_port, tag)

    def tag_along_path(self, name: str, path: Sequence[str]) -> List[int]:
        """Arriving tag per hop for a packet of class ``name`` on ``path``."""
        return policy_tags_along_path(
            self.topo, self.rewrite, path, initial_tag=self.initial_tag(name)
        )

    def path_stays_lossless(self, name: str, path: Sequence[str]) -> bool:
        return all(tag != LOSSY_TAG for tag in self.tag_along_path(name, path))

    def tagged_graph(self) -> TaggedGraph:
        """Tagged graph of the shared deployment, for verification.

        Host-facing ingress ports carry one node per class (its staggered
        initial tag); everything else follows the shared rewrite.
        """
        host_tags = [self.initial_tag(cls.name) for cls in self.classes]
        return self._shared.tagged_graph(host_tags=host_tags)


def naive_priority_count(classes: Sequence[TrafficClass]) -> int:
    """Priorities used by the naive per-class design: ``sum(M_c + 1)``."""
    return sum(cls.max_bounces + 1 for cls in classes)
