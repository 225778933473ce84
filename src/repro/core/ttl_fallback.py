"""The TTL-based bounce detector the paper considered — and rejected.

§4.2: "One way for S2 (and any switches afterwards) to recognize a
bounced packet is by TTL. Since the ELP consists of shortest paths, a
bounced packet will have lower than expected TTL. However, TTL values are
set by end hosts, so a more controllable way is for L1 to provide this
information via a special tag."  (§7 adds that TTL is also decremented by
the forwarding pipeline itself, complicating rule structure.)

This module implements the TTL idea faithfully so its limits can be
*demonstrated* rather than asserted: a switch demotes any packet whose
hop count (``initial_ttl - ttl``) exceeds the longest ELP path. That is
implementable with local state only — but it is **not** a deadlock
prevention scheme, and the test suite shows it failing against *both*
hazards:

- **bounces**: packets on a bounced path are indistinguishable from
  packets early on a long lossless path until they exceed the global
  length bound, so the single lossless priority still contains
  down-then-up segments and the Fig. 3 CBD survives;
- **loops**: one might hope looping packets age out past any finite
  bound — but deadlock formation races ageing and wins: the loop's
  buffers fill with *young* packets (and fresh ones keep arriving at
  hop count 1), mutual PAUSE freezes them, and frozen packets never
  take another hop to age. The Fig. 11 deadlock forms with zero
  demotions at every bound.

Tagger demotes on the packet's *structure* (its second down-up turn),
at the very transit that would complete a cycle — cumulative hop
counting cannot replicate that, which is the executable version of the
paper's decision to carry an explicit tag.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import PipelineConfig, QueueMap
from repro.core.rules import RuleTable, materialize_policy
from repro.core.tags import INITIAL_TAG, LOSSY_TAG, TaggedGraph
from repro.exceptions import TaggingError
from repro.topology.base import Topology


@dataclass(frozen=True)
class TtlFallback:
    """Hop-count demotion: lossless while hops <= bound, lossy beyond.

    The simulator exposes a packet's consumed hops through its tag in
    this scheme: the "tag" *is* the hop count + 1, incremented at every
    switch, with every value up to ``max_hops + 1`` mapped to the SAME
    single lossless priority. That encodes exactly the information a real
    switch could read from the TTL field.
    """

    topo: Topology
    max_hops: int

    def __post_init__(self) -> None:
        if self.max_hops < 1:
            raise TaggingError("max_hops must be >= 1")

    @property
    def num_lossless_tags(self) -> int:
        """Distinct tag values in flight (all share one priority)."""
        return self.max_hops + 1

    def rewrite(self, switch: str, in_port: int, out_port: int, tag: int) -> int:
        if tag == LOSSY_TAG:
            return LOSSY_TAG
        if tag < INITIAL_TAG or tag > self.max_hops:
            return LOSSY_TAG
        return tag + 1

    def pipeline_config(self) -> PipelineConfig:
        """Single-lossless-queue pipeline implementing the TTL check."""
        queue_map = QueueMap(
            mapping=tuple(
                (tag, 1) for tag in range(1, self.num_lossless_tags + 1)
            )
        )
        table = RuleTable(switch="*", policy=self.rewrite)
        return PipelineConfig(rule_table=table, queue_map=queue_map)

    def tagged_graph(self) -> TaggedGraph:
        """The induced dependency structure, for the verifier.

        All hop-count tags share one priority queue, so for deadlock
        analysis they are ONE tag class: the graph places every ingress
        port in tag 1 with an edge for every transit (the policy graph of
        a rewrite that always answers tag 1). On any fabric with a
        physical cycle shorter than ``max_hops`` this contains a CBD —
        which is the point.
        """
        graph, _ = materialize_policy(
            self.topo,
            lambda switch, in_port, out_port, tag: INITIAL_TAG,
            (INITIAL_TAG,),
        )
        return graph
