"""Simulation assembly: topology + routing + Tagger plan -> running fabric.

:class:`SimNetwork` instantiates a :class:`SimSwitch` per switch and a
:class:`SimHost` per host, wires a :class:`TxPort` onto every directed
link, and exposes the experiment API the benchmarks drive:

- ``add_flow`` / ``at`` (scheduled mutations, e.g. "install a bad route
  at t = 20 s");
- ``run(until)``;
- ``metrics`` (rates, drops, PFC activity) and deadlock probes.

Switches run the paper's 3-step pipeline when given a
:class:`TaggerPlan`; without one they run plain PFC on a single lossless
priority (the paper's "without Tagger" baseline).

There is one engine and one class per component. The four ``*_cls``
attributes on :class:`SimNetwork` are a test seam, not an option: the
equivalence suite's ``ReferenceSimNetwork``
(``tests/simulator/reference_stack.py``) overrides them to wire the
naive reference stack through this same assembly code.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.core.pipeline import PipelineConfig, QueueMap
from repro.core.planner import TaggerPlan
from repro.core.rules import RuleTable
from repro.exceptions import SimulationError
from repro.routing.base import ForwardingTable
from repro.simulator.engine import Simulator
from repro.simulator.flow import Flow
from repro.simulator.host import SimHost
from repro.simulator.metrics import DROP_LINK_DOWN, MetricsRecorder
from repro.simulator.packet import SimConfig
from repro.simulator.switch import SimSwitch
from repro.simulator.txport import TxPort
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import Telemetry


def passthrough_pipeline(num_lossless_tags: int = 1) -> PipelineConfig:
    """Plain PFC, no Tagger: tags pass through unchanged, tag = queue.

    This is the baseline the paper's "without Tagger" experiments run:
    every lossless packet stays in its priority for its whole life, so
    bounces and loops can form CBDs.
    """
    keep_tag = lambda switch, in_port, out_port, tag: tag  # noqa: E731
    return PipelineConfig(
        rule_table=RuleTable(switch="*", policy=keep_tag),
        queue_map=QueueMap.identity(num_lossless_tags),
        decouple_egress=True,
    )


class SimNetwork:
    """A fully wired simulated fabric."""

    #: What the fabric is assembled from (see the module docstring).
    engine_cls = Simulator
    switch_cls = SimSwitch
    host_cls = SimHost
    port_cls = TxPort

    def __init__(
        self,
        topo: Topology,
        table: ForwardingTable,
        pipelines: Optional[Dict[str, PipelineConfig]] = None,
        config: SimConfig = SimConfig(),
        host_queue_map: Optional[QueueMap] = None,
        metrics_bucket: float = 0.001,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        self.topo = topo
        self.table = table
        self.config = config
        self.sim: Simulator = self.engine_cls()
        self.rng = random.Random(config.seed)
        self._next_packet_id = 0
        self.metrics = MetricsRecorder(bucket_width=metrics_bucket)
        self.telemetry = telemetry
        if telemetry is not None:
            # Events from this fabric are stamped with simulated time.
            telemetry.bind_clock(lambda: self.sim.now)
            self.metrics.attach_telemetry(telemetry)
        default_pipeline = passthrough_pipeline()
        self._pipelines = pipelines or {}
        self.host_queue_map = host_queue_map or default_pipeline.queue_map
        self._pinned: Dict[int, Tuple[Optional[str], Dict[str, str]]] = {}
        #: Bumped on every (re)pin; switches key their cached
        #: forwarding decisions on it (see simulator.switch).
        self._pinned_version = 0
        self.tracer = None  # optional PacketTracer (see simulator.trace)
        self.transports: Dict[int, object] = {}  # flow_id -> ReliableMessage
        #: Control-path taps called for every PFC frame sent (the runtime
        #: deadlock detector registers here; see simulator.detection).
        self.pfc_observers: List[Callable[[str, int, int, bool], None]] = []
        #: Egress queues (switch, out_port, queue) under recovery
        #: quarantine: traffic headed for them is demoted to lossy at the
        #: owning switch until recovery re-arms the queue.
        self.quarantined: Set[Tuple[str, int, int]] = set()

        self.switches: Dict[str, SimSwitch] = {}
        self.hosts: Dict[str, SimHost] = {}
        for name in topo.switches:
            pipeline = self._pipelines.get(name, default_pipeline)
            self.switches[name] = self.switch_cls(self, name, pipeline)
        for name in topo.hosts:
            self.hosts[name] = self.host_cls(self, name)
        self._wire_ports()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def with_plan(
        cls,
        topo: Topology,
        table: ForwardingTable,
        plan: TaggerPlan,
        config: SimConfig = SimConfig(),
        decouple_egress: bool = True,
        metrics_bucket: float = 0.001,
        telemetry: Optional["Telemetry"] = None,
    ) -> "SimNetwork":
        """Build a fabric running a :class:`TaggerPlan` on every switch."""
        pipelines = {
            switch: plan.pipeline_config(switch, decouple_egress=decouple_egress)
            for switch in topo.switches
        }
        return cls(
            topo,
            table,
            pipelines=pipelines,
            config=config,
            host_queue_map=plan.queue_map,
            metrics_bucket=metrics_bucket,
            telemetry=telemetry,
        )

    def _wire_ports(self) -> None:
        for link in self.topo.iter_links(include_failed=True):
            self._wire_direction(link.a, link.port_a, link.b, link.port_b)
            self._wire_direction(link.b, link.port_b, link.a, link.port_a)

    def _wire_direction(
        self, src: str, src_port: int, dst: str, dst_port: int
    ) -> None:
        if self.topo.node(dst).is_switch:
            receive = self.switches[dst].receive
        else:
            receive = self.hosts[dst].receive
        sender = (
            self.switches[src]
            if self.topo.node(src).is_switch
            else self.hosts[src]
        )
        port = self.port_cls(
            self.sim,
            self.config,
            owner=src,
            port=src_port,
            peer=dst,
            receive=receive,
            recv_port=dst_port,
            on_sent=sender.on_sent,
        )
        if isinstance(sender, SimSwitch):
            sender.tx_ports[src_port] = port
        else:
            sender.nic = port

    def new_packet_id(self) -> int:
        """Next packet id for this fabric (per-network, not per-process)."""
        pid = self._next_packet_id
        self._next_packet_id = pid + 1
        return pid

    # ------------------------------------------------------------------
    # Experiment API
    # ------------------------------------------------------------------
    def add_flow(self, flow: Flow) -> Flow:
        if flow.src not in self.hosts:
            raise SimulationError(f"unknown source host {flow.src!r}")
        if flow.dst not in self.hosts:
            raise SimulationError(f"unknown destination host {flow.dst!r}")
        if flow.pinned_next_hops:
            self.pin_flow(flow.flow_id, flow.pinned_next_hops, dst=flow.dst)
        self.hosts[flow.src].attach_flow(flow)
        return flow

    def pin_flow(
        self,
        flow_id: int,
        next_hops: Dict[str, str],
        dst: Optional[str] = None,
    ) -> None:
        """(Re)pin a flow's path.

        With ``dst`` given, the pin applies only to packets addressed to
        that destination — reverse-direction packets of the same flow
        (transport ACKs) follow the normal tables instead of being bent
        onto the forward path.
        """
        self._pinned[flow_id] = (dst, dict(next_hops))
        self._pinned_version += 1

    def pinned_next_hop(
        self, flow_id: int, switch: str, dst: Optional[str] = None
    ) -> Optional[str]:
        entry = self._pinned.get(flow_id)
        if entry is None:
            return None
        pin_dst, mapping = entry
        if pin_dst is not None and dst is not None and dst != pin_dst:
            return None
        return mapping.get(switch)

    def at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule a mutation (table edit, link failure, ...) at ``time``."""
        self.sim.at(time, action)

    def set_receiver_rate(self, host: str, rate_bps: Optional[float]) -> None:
        """Throttle (rate in bit/s) or restore (None) a host's receiver."""
        self.hosts[host].set_receive_rate(rate_bps)

    def fail_link(self, a: str, b: str) -> int:
        """Physically fail a switch-to-switch link mid-simulation.

        Both directions stop transmitting; packets queued on the dead
        ports are lost (counted as ``link_down`` drops) and their PFC
        accounts released, exactly as a real port-down event discards the
        egress queue. Returns the number of packets lost. Routing is NOT
        touched — compose with table edits / local reroute / convergence
        to model the control-plane reaction.

        A host link is refused before anything changes: only switch
        ports are brought down here, so a "failed" host link would keep
        delivering in one direction.
        """
        for end in (a, b):
            if end not in self.switches:
                raise SimulationError(
                    f"cannot fail link {a}-{b}: {end} is not a switch "
                    "(only switch-to-switch links can be failed)"
                )
        self.topo.fail_link(a, b)
        lost = 0
        for src, dst in ((a, b), (b, a)):
            port = self.topo.port_to(src, dst)
            tx = self.switches[src].tx_ports[port]
            tx.set_link_state(False)
            for queue in list(tx.queues):
                lost += self.drain_egress_queue(src, port, queue, DROP_LINK_DOWN)
        return lost

    def drain_egress_queue(
        self, switch_name: str, port: int, queue: int, reason: str
    ) -> int:
        """Drop every packet in one egress queue, recording ``reason``.

        Each dropped packet releases its ingress PFC account exactly as a
        transmitted packet would, so upstream pauses lift and whatever was
        waiting on the queue drains on its own. Returns the packets
        dropped. The one queue drain behind :meth:`fail_link`,
        :class:`~repro.simulator.recovery.DeadlockBreaker` and
        :class:`~repro.simulator.watchdog.PfcWatchdog`.
        """
        switch = self.switches[switch_name]
        tx = switch.tx_ports[port]
        fifo = tx.queues.get(queue)
        dropped = 0
        while fifo:
            packet = fifo.popleft()
            tx.queued_bytes[queue] -= packet.size
            self.metrics.record_drop(self.sim.now, reason, packet.flow_id)
            crossing = switch.accounting.release(
                packet.in_port, packet.in_queue, packet.size
            )
            if crossing.send_resume:
                self.send_pfc(
                    switch_name, packet.in_port, packet.in_queue, pause=False
                )
            dropped += 1
        return dropped

    def restore_link(self, a: str, b: str) -> None:
        """Bring a previously failed link back up."""
        self.topo.restore_link(a, b)
        for src, dst in ((a, b), (b, a)):
            if src in self.switches:
                port = self.topo.port_to(src, dst)
                self.switches[src].tx_ports[port].set_link_state(True)

    def run(self, until: float) -> None:
        self.sim.run(until=until)
        self.metrics.publish()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def send_pfc(self, sender: str, in_port: int, queue: int, pause: bool) -> None:
        """Deliver a PAUSE/RESUME from ``sender`` to its upstream neighbor."""
        upstream = self.topo.peer_on_port(sender, in_port)
        self.metrics.pfc.record(self.sim.now, sender, upstream, queue, pause)
        if self.tracer is not None:
            from repro.simulator.trace import EV_PAUSE, EV_RESUME

            self.tracer.record(
                self.sim.now,
                EV_PAUSE if pause else EV_RESUME,
                sender,
                tag=queue,
                detail=f"-> {upstream}",
            )
        upstream_node = self.topo.node(upstream)
        if upstream_node.is_switch:
            target = self.switches[upstream]
            port = self.topo.port_to(upstream, sender)
        else:
            target = self.hosts[upstream]
            port = 0
        self.sim.schedule(
            self.config.pfc_delay,
            lambda: target.on_pfc(port, queue, pause),
        )
        for observer in self.pfc_observers:
            observer(sender, in_port, queue, pause)

    def total_buffered_bytes(self) -> int:
        return sum(s.accounting.total_bytes for s in self.switches.values())

    def conservation_check(self) -> Dict[str, int]:
        """Injected vs delivered vs dropped vs in-flight packet counts."""
        injected = sum(self.metrics.injected_packets.values())
        delivered = sum(self.metrics.delivered_packets.values())
        dropped = sum(self.metrics.drops.values())
        in_network = injected - delivered - dropped
        return {
            "injected": injected,
            "delivered": delivered,
            "dropped": dropped,
            "in_flight": in_network,
        }
