"""Simulated hosts: RDMA-style traffic sources and sinks.

A host owns one NIC port toward its ToR. The NIC honours PFC like a real
RoCE NIC: when the ToR pauses a priority, packets of that priority stop
leaving the host. Closed-loop flows refill their NIC window on every
transmit completion, so PFC back-pressure throttles them exactly as it
would throttle an RDMA sender.

Per packet, a host looks nothing up twice: closed-loop flows are
dispatched from a dict, each flow's injection queue and the config
constants are fixed at attach time, and an unthrottled, untraced
delivery is accounted in :meth:`SimHost.receive` itself.
``tests/simulator/reference_stack.py`` keeps the scan-and-look-up host
the equivalence suite diffs this one against.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, TYPE_CHECKING

from repro.simulator.flow import Flow
from repro.simulator.packet import Packet
from repro.simulator.txport import TxPort

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.network import SimNetwork


class SimHost:
    """One host: flow sources, a PFC-honouring NIC, and a delivery sink.

    The sink models the notorious RoCE failure trigger: a receiver NIC
    that temporarily processes packets slower than line rate (PCIe
    pressure, cache misses) buffers them and, like a real RoCE NIC, sends
    PFC PAUSE to its ToR when its buffer crosses XOFF. The paper's
    production deadlocks form under exactly this kind of transient
    back-pressure — and persist after it abates (§1).
    """

    def __init__(self, net: "SimNetwork", name: str) -> None:
        self.net = net
        self.name = name
        self.nic: Optional[TxPort] = None  # wired by SimNetwork
        self._flows: List[Flow] = []
        self._sent_bytes: Dict[int, int] = {}
        self._closed_by_id: Dict[int, Flow] = {}
        self._flow_queue: Dict[int, int] = {}
        self._ttl = net.config.default_ttl
        self._jitter = net.config.injection_jitter
        # Receiver-side state (None rate = wire speed, no buffering).
        self._rx_rate_bps: Optional[float] = None
        self._rx_queue: Deque[Packet] = deque()
        self._rx_bytes = 0
        self._rx_draining = False
        self._rx_pause_sent = False

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    def attach_flow(self, flow: Flow) -> None:
        self._flow_queue[flow.flow_id] = self.net.host_queue_map.queue_for(
            flow.initial_tag
        )
        self._flows.append(flow)
        self._sent_bytes[flow.flow_id] = 0
        if flow.closed_loop:
            self._closed_by_id[flow.flow_id] = flow
            self.net.sim.at(flow.start, lambda: self._start_closed_loop(flow))
        else:
            self.net.sim.at(flow.start, lambda: self._inject_open_loop(flow))

    def _start_closed_loop(self, flow: Flow) -> None:
        for _ in range(flow.window):
            if not self._inject(flow):
                break

    def _inject_open_loop(self, flow: Flow) -> None:
        if not flow.active_at(self.net.sim.now):
            return
        self._inject(flow)
        assert flow.rate_bps is not None
        interval = flow.packet_size * 8.0 / flow.rate_bps
        self.net.sim.schedule(interval, lambda: self._inject_open_loop(flow))

    def _inject(self, flow: Flow) -> bool:
        """Create one packet and enqueue it at the NIC. False = budget done."""
        if flow.total_bytes is not None and (
            self._sent_bytes[flow.flow_id] + flow.packet_size > flow.total_bytes
        ):
            return False
        net = self.net
        now = net.sim.now
        # flow.active_at, inlined.
        if now < flow.start or (flow.stop is not None and now >= flow.stop):
            return False
        packet = Packet(
            flow.flow_id,
            self.name,
            flow.dst,
            flow.packet_size,
            flow.initial_tag,
            self._ttl,
            net.new_packet_id(),
            now,
        )
        self._sent_bytes[flow.flow_id] += flow.packet_size
        net.metrics.record_injection(now, flow.flow_id)
        nic = self.nic
        assert nic is not None, "host NIC not wired"
        nic.enqueue(packet, self._flow_queue[flow.flow_id])
        return True

    def on_sent(self, packet: Packet) -> None:
        """NIC finished serializing a packet: refill closed-loop windows."""
        flow = self._closed_by_id.get(packet.flow_id)
        if flow is None:
            return
        jitter = self._jitter
        if jitter > 0:
            delay = self.net.rng.uniform(0.0, jitter)
            self.net.sim.schedule(delay, lambda f=flow: self._inject(f))
        else:
            self._inject(flow)

    # ------------------------------------------------------------------
    # Sink
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, in_port: int = 0) -> None:
        net = self.net
        if net.tracer is None and self._rx_rate_bps is None and not self._rx_queue:
            # Unthrottled, untraced delivery: _deliver without the two
            # frames above it.
            net.metrics.record_delivery(
                net.sim.now,
                packet.flow_id,
                packet.size,
                created_at=packet.created_at,
            )
            transport = net.transports.get(packet.flow_id)
            if transport is not None:
                transport.on_delivery(packet, self.name)
            return
        self._receive_slow(packet)

    def _receive_slow(self, packet: Packet) -> None:
        """Delivery with a tracer attached or a throttled receiver."""
        if self.net.tracer is not None:
            self.net.tracer.record(
                self.net.sim.now,
                "deliver",
                self.name,
                flow_id=packet.flow_id,
                packet_id=packet.packet_id,
                tag=packet.tag,
            )
        if self._rx_rate_bps is None and not self._rx_queue:
            self._deliver(packet)
            return
        self._rx_queue.append(packet)
        self._rx_bytes += packet.size
        if (
            not self._rx_pause_sent
            and self._rx_bytes >= self.net.config.xoff_bytes
        ):
            # A pressured NIC pauses every lossless priority: its receive
            # buffer is shared, so per-priority selectivity would leak.
            self._rx_pause_sent = True
            for queue in self.net.host_queue_map.lossless_queues():
                self.net.send_pfc(self.name, 0, queue, pause=True)
        if not self._rx_draining:
            self._rx_draining = True
            self._schedule_rx_drain()

    def set_receive_rate(self, rate_bps: Optional[float]) -> None:
        """Throttle (or restore) the receiver's processing rate."""
        self._rx_rate_bps = rate_bps
        if self._rx_queue and not self._rx_draining:
            self._rx_draining = True
            self._schedule_rx_drain()

    def _schedule_rx_drain(self) -> None:
        head = self._rx_queue[0]
        if self._rx_rate_bps is None:
            delay = 0.0
        else:
            delay = head.size * 8.0 / self._rx_rate_bps
        self.net.sim.schedule(delay, self._rx_drain_one)

    def _deliver(self, packet: Packet) -> None:
        """Account a packet as received and hand it to its transport."""
        self.net.metrics.record_delivery(
            self.net.sim.now,
            packet.flow_id,
            packet.size,
            created_at=packet.created_at,
        )
        transport = self.net.transports.get(packet.flow_id)
        if transport is not None:
            transport.on_delivery(packet, self.name)

    def _rx_drain_one(self) -> None:
        packet = self._rx_queue.popleft()
        self._rx_bytes -= packet.size
        self._deliver(packet)
        if (
            self._rx_pause_sent
            and self._rx_bytes <= self.net.config.xon_bytes
        ):
            self._rx_pause_sent = False
            for queue in self.net.host_queue_map.lossless_queues():
                self.net.send_pfc(self.name, 0, queue, pause=False)
        if self._rx_queue:
            self._schedule_rx_drain()
        else:
            self._rx_draining = False

    # ------------------------------------------------------------------
    # PFC from the ToR
    # ------------------------------------------------------------------
    def on_pfc(self, port: int, queue: int, pause: bool) -> None:
        assert self.nic is not None
        if pause:
            self.nic.on_pause(queue)
        else:
            self.nic.on_resume(queue)

    def __repr__(self) -> str:
        return f"SimHost({self.name}, flows={len(self._flows)})"
