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

The shared table is one :class:`~repro.core.clos.ClosTagger` whose hosts
inject every class's tag, so deadlock freedom is the single-class
argument unchanged: each tag still carries only up-down path segments
and tag updates remain monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.clos import ClosTagger
from repro.core.tags import INITIAL_TAG
from repro.exceptions import TaggingError
from repro.topology.base import Topology


@dataclass(frozen=True)
class TrafficClass:
    """One application class: its name and its bounce tolerance."""

    name: str
    max_bounces: int


def staggered_tagger(topo: Topology, classes: Sequence[TrafficClass]) -> ClosTagger:
    """The shared tagger for ``classes``, staggered in declaration order.

    Class ``c`` injects ``initial_tags[c] = INITIAL_TAG + c``; the turn
    budget ``max(c + M_c)`` covers every class's bounces, so the tagger
    spans ``max(c + M_c) + 1`` tags (paper: M + N). Class ``c`` survives
    ``max_lossless_tag - initial_tags[c]`` bounces, at least ``M_c``.
    """
    if not classes:
        raise TaggingError("need at least one traffic class")
    names = [cls.name for cls in classes]
    if len(set(names)) != len(names):
        raise TaggingError("traffic class names must be unique")
    for cls in classes:
        if cls.max_bounces < 0:
            raise TaggingError(f"negative bounce budget for {cls.name!r}")
    return ClosTagger(
        topo,
        max_bounces=max(i + cls.max_bounces for i, cls in enumerate(classes)),
        initial_tags=range(INITIAL_TAG, INITIAL_TAG + len(classes)),
    )


def naive_priority_count(classes: Sequence[TrafficClass]) -> int:
    """Priorities used by the naive per-class design: ``sum(M_c + 1)``."""
    return sum(cls.max_bounces + 1 for cls in classes)
