"""The simulated switch: forwarding, Tagger pipeline, PFC reaction.

Packet life inside a switch:

1. arrival: TTL check, route lookup (flow-pinned next hop or forwarding
   table with ECMP-by-flow-hash);
2. ingress accounting against the (in_port, priority) PFC account, where
   the priority is the *arriving* tag's queue (step 1 of the Tagger
   pipeline); XOFF crossings pause the upstream neighbor;
3. tag rewrite (step 2) and egress queue selection (step 3 — by the new
   tag when ``decouple_egress``, by the old tag to reproduce the Fig. 8a
   bug otherwise);
4. egress FIFO; the PFC account is released only when the packet finishes
   serializing out, and XON crossings resume the upstream neighbor.

The pure part of a hop — route lookup, egress-port resolution, both
queue classifications and the tag rewrite — is computed once per
``(dst, flow_id, tag, in_port)`` and replayed from a *decision cache*.
What the code does not show:

- a cached decision is valid only for one forwarding-table ``version``,
  one ``net._pinned_version`` and one live pipeline object, so mid-run
  table edits, flow re-pins and pipeline swaps (recovery rollouts — the
  only sanctioned way to change rules mid-run) behave exactly as
  uncached lookups; ports never change after wiring;
- demotion accounting and the quarantine check are *not* cached: the
  first has a per-packet side effect, and recovery mutates
  ``net.quarantined`` mid-run;
- ``tests/simulator/reference_stack.py`` keeps the uncached switch, and
  the equivalence suite diffs full traces to hold every metrics, tracer
  and PFC side effect here to its order.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.core.pipeline import LOSSY_QUEUE, PipelineConfig
from repro.core.tags import LOSSY_TAG
from repro.exceptions import RoutingError
from repro.simulator.buffers import (
    CHARGE_ACCEPT_PAUSE,
    CHARGE_REJECT,
    RELEASE_RESUME,
    IngressAccounting,
)
from repro.simulator.metrics import (
    DROP_LOSSLESS,
    DROP_LOSSY,
    DROP_NO_ROUTE,
    DROP_TTL,
)
from repro.simulator.packet import Packet
from repro.simulator.txport import TxPort

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.network import SimNetwork

#: Cached decision: next hop, egress port number, ingress queue,
#: rewritten tag, egress queue, egress port object. ``None`` caches
#: "no route".
Decision = Optional[Tuple[str, int, int, int, int, TxPort]]


class SimSwitch:
    """One switch instance inside a :class:`SimNetwork`."""

    # Slotted: the switch object is touched on every hop of every
    # packet; slots keep the lookups off the dict.
    __slots__ = (
        "net", "name", "pipeline", "accounting", "tx_ports",
        "_decisions", "_table_version", "_pinned_seen", "_cls_pipeline",
    )

    def __init__(
        self,
        net: "SimNetwork",
        name: str,
        pipeline: PipelineConfig,
    ) -> None:
        self.net = net
        self.name = name
        self.pipeline = pipeline
        self.accounting = IngressAccounting(net.config)
        self.tx_ports: Dict[int, TxPort] = {}
        self._decisions: Dict[Tuple[str, int, int, int], Decision] = {}
        self._table_version = -1
        self._pinned_seen = -1
        self._cls_pipeline: Optional[PipelineConfig] = None

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _decide(
        self, dst: str, flow_id: int, tag: int, in_port: int
    ) -> Decision:
        """The pure part of one hop (what the decision cache stores)."""
        net = self.net
        next_hop: Optional[str] = None
        if net._pinned:
            next_hop = net.pinned_next_hop(flow_id, self.name, dst=dst)
        if next_hop is None:
            try:
                next_hop = net.table.next_hop(
                    self.name, dst, flow_hash=flow_id
                )
            except RoutingError:
                return None
        out_port = net.topo.port_to(self.name, next_hop)
        pipeline = self.pipeline
        in_queue = pipeline.classify_ingress(tag)
        if net.topo.node(next_hop).is_host:
            # Delivery hop: keep the tag onto the host link (plans built
            # from switch-level ELP paths have no host-egress rules; the
            # safeguard default must not demote deliveries).
            new_tag = tag
        else:
            new_tag = pipeline.rewrite(tag, in_port, out_port)
        egress_queue = pipeline.classify_egress(tag, new_tag)
        return (
            next_hop, out_port, in_queue, new_tag, egress_queue,
            self.tx_ports[out_port],
        )

    def receive(self, packet: Packet, in_port: int) -> None:
        net = self.net
        metrics = net.metrics
        tracer = net.tracer
        if tracer is not None:
            self._trace(packet, "receive", f"in_port={in_port}")
        packet.ttl -= 1
        packet.hops += 1
        if packet.ttl <= 0:
            metrics.record_drop(net.sim.now, DROP_TTL, packet.flow_id)
            if tracer is not None:
                self._trace(packet, "drop", DROP_TTL)
            return

        decisions = self._decisions
        if (
            net.table.version != self._table_version
            or net._pinned_version != self._pinned_seen
        ):
            decisions.clear()
            self._table_version = net.table.version
            self._pinned_seen = net._pinned_version
        pipeline = self.pipeline
        if pipeline is not self._cls_pipeline:
            # Pipeline swapped mid-run (recovery rollout): reset cache.
            self._cls_pipeline = pipeline
            decisions.clear()
        tag = packet.tag
        key = (packet.dst, packet.flow_id, tag, in_port)
        try:
            hit = decisions[key]
        except KeyError:
            hit = decisions[key] = self._decide(
                packet.dst, packet.flow_id, tag, in_port
            )
        if hit is None:
            metrics.record_drop(net.sim.now, DROP_NO_ROUTE, packet.flow_id)
            if tracer is not None:
                self._trace(packet, "drop", DROP_NO_ROUTE)
            return
        next_hop, out_port, in_queue, new_tag, egress_queue, port = hit

        code = self.accounting.charge_code(in_port, in_queue, packet.size)
        if code == CHARGE_REJECT:
            reason = DROP_LOSSY if in_queue == LOSSY_QUEUE else DROP_LOSSLESS
            metrics.record_drop(net.sim.now, reason, packet.flow_id)
            if tracer is not None:
                self._trace(packet, "drop", reason)
            return
        if code == CHARGE_ACCEPT_PAUSE:
            net.send_pfc(self.name, in_port, in_queue, pause=True)

        if new_tag != tag:
            metrics.record_demotion(
                net.sim.now, self.name, tag, new_tag, packet.flow_id
            )
        if (
            net.quarantined
            and egress_queue != LOSSY_QUEUE
            and (self.name, out_port, egress_queue) in net.quarantined
        ):
            # Recovery quarantined this egress queue: run it lossy (the
            # new tag rides along so downstream hops stay lossy too).
            metrics.record_demotion(
                net.sim.now, self.name, new_tag, LOSSY_TAG, packet.flow_id
            )
            new_tag = LOSSY_TAG
            egress_queue = LOSSY_QUEUE
        packet.tag = new_tag
        packet.in_port = in_port
        packet.in_queue = in_queue
        if tracer is not None:
            self._trace(
                packet,
                "forward",
                f"-> {next_hop} tag {tag}->{new_tag} q{egress_queue}",
            )
        port.enqueue(packet, egress_queue)

    def _trace(self, packet: Packet, kind: str, detail: str) -> None:
        self.net.tracer.record(
            self.net.sim.now,
            kind,
            self.name,
            flow_id=packet.flow_id,
            packet_id=packet.packet_id,
            tag=packet.tag,
            detail=detail,
        )

    def on_sent(self, packet: Packet) -> None:
        """Egress serialization finished: release the PFC account."""
        in_port = packet.in_port
        in_queue = packet.in_queue
        assert in_port is not None and in_queue is not None
        code = self.accounting.release_code(in_port, in_queue, packet.size)
        if code == RELEASE_RESUME:
            self.net.send_pfc(self.name, in_port, in_queue, pause=False)

    # ------------------------------------------------------------------
    # PFC control path (frames from downstream neighbors)
    # ------------------------------------------------------------------
    def on_pfc(self, port: int, queue: int, pause: bool) -> None:
        tx = self.tx_ports[port]
        if pause:
            tx.on_pause(queue)
        else:
            tx.on_resume(queue)

    def __repr__(self) -> str:
        return f"SimSwitch({self.name}, buffered={self.accounting.total_bytes}B)"
