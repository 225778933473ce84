"""RoCE-style reliable transport: go-back-N over the simulated fabric.

Tagger's safety valve is demotion to the lossy class, and the paper is
careful about what that means (§4.2): demoted packets "are dropped only
if they arrive at a queue that is full". Whether an occasional drop is
*acceptable* is a transport question — RoCE RC NICs retransmit with
go-back-N, so a demoted (and even a dropped) packet costs goodput, not
correctness. This module implements that transport so the claim can be
measured end-to-end:

- the sender streams a message as sequenced packets under a window;
- the receiver acks cumulatively and NACKs the expected PSN on a gap
  (go-back-N, as ConnectX-3-era RoCE does);
- loss recovery via NACK or retransmission timeout;
- completion time and retransmission counts are recorded.

A :class:`ReliableMessage` registers itself with the
:class:`~repro.simulator.network.SimNetwork`; data and control packets
ride the normal fabric (control packets are small and use the same flow
id, hence the same ECMP path and priority class).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from repro.core.tags import INITIAL_TAG
from repro.exceptions import SimulationError
from repro.simulator.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.network import SimNetwork

_flow_ids = itertools.count(500_000)

#: Size of ACK/NACK control packets (bytes).
CONTROL_PACKET_SIZE = 64


@dataclass
class TransportStats:
    """Observable outcome of one reliable message."""

    packets_sent: int = 0
    retransmissions: int = 0
    nacks: int = 0
    timeouts: int = 0
    completed_at: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.completed_at is not None


@dataclass
class ReliableMessage:
    """One go-back-N message transfer.

    Attributes:
        src / dst: Host names.
        message_size: Total payload bytes.
        packet_size: Bytes per data packet.
        window: Max unacked packets in flight.
        initial_tag: Traffic class of both data and control packets.
        rto: Retransmission timeout (seconds).
        pinned_next_hops: Optional path pin for the data direction.
        start: Transfer start time.
    """

    src: str
    dst: str
    message_size: int
    packet_size: int = 4096
    window: int = 8
    initial_tag: int = INITIAL_TAG
    rto: float = 0.01
    pinned_next_hops: Optional[Dict[str, str]] = None
    start: float = 0.0
    flow_id: int = field(default_factory=lambda: next(_flow_ids))

    def __post_init__(self) -> None:
        if self.message_size <= 0 or self.packet_size <= 0:
            raise SimulationError("message and packet sizes must be positive")
        if self.window < 1:
            raise SimulationError("window must be >= 1")
        self.total_packets = -(-self.message_size // self.packet_size)
        self.stats = TransportStats()
        # Sender state.
        self._send_base = 0      # lowest unacked PSN
        self._next_psn = 0       # next PSN to send fresh
        self._timer_armed_for = -1
        # Receiver state. RoCE NACKs *once* per out-of-order episode —
        # without the suppression, every stray packet of a resent window
        # would trigger another full-window resend (a NACK storm).
        self._expected_psn = 0
        self._nacked_for = -1
        self._net: Optional["SimNetwork"] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, net: "SimNetwork") -> "ReliableMessage":
        """Register with the network and schedule the start."""
        if self.src not in net.hosts or self.dst not in net.hosts:
            raise SimulationError("unknown transport endpoints")
        self._net = net
        net.transports[self.flow_id] = self
        if self.pinned_next_hops:
            # Pin only the data direction; ACKs take the normal tables.
            net.pin_flow(self.flow_id, self.pinned_next_hops, dst=self.dst)
        net.sim.at(self.start, self._fill_window)
        return self

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def _fill_window(self) -> None:
        net = self._net
        assert net is not None
        while (
            self._next_psn < self.total_packets
            and self._next_psn - self._send_base < self.window
        ):
            self._send_data(self._next_psn, fresh=True)
            self._next_psn += 1
        self._arm_timer()

    def _send_data(self, psn: int, fresh: bool) -> None:
        net = self._net
        assert net is not None
        packet = Packet(
            flow_id=self.flow_id,
            src=self.src,
            dst=self.dst,
            size=self.packet_size,
            tag=self.initial_tag,
            ttl=net.config.default_ttl,
            packet_id=net.new_packet_id(),
            created_at=net.sim.now,
            kind="data",
            psn=psn,
        )
        self.stats.packets_sent += 1
        if not fresh:
            self.stats.retransmissions += 1
        net.metrics.record_injection(net.sim.now, self.flow_id)
        queue = net.host_queue_map.queue_for(self.initial_tag)
        nic = net.hosts[self.src].nic
        assert nic is not None
        nic.enqueue(packet, queue)

    def _arm_timer(self) -> None:
        net = self._net
        assert net is not None
        if self._send_base >= self.total_packets:
            return
        armed_for = self._send_base
        self._timer_armed_for = armed_for
        net.sim.schedule(self.rto, lambda: self._on_timeout(armed_for))

    def _on_timeout(self, armed_for: int) -> None:
        if self.stats.completed or self._send_base != armed_for:
            return  # progress was made; a fresher timer is armed
        if self._timer_armed_for != armed_for:
            return
        self.stats.timeouts += 1
        self._go_back_n()

    def _go_back_n(self) -> None:
        """Resend the whole window from send_base (go-back-N recovery)."""
        self._next_psn = self._send_base
        while (
            self._next_psn < self.total_packets
            and self._next_psn - self._send_base < self.window
        ):
            self._send_data(self._next_psn, fresh=False)
            self._next_psn += 1
        self._arm_timer()

    def _on_control(self, packet: Packet) -> None:
        """ACK/NACK arrived back at the sender."""
        net = self._net
        assert net is not None
        if packet.kind == "ack":
            acked_through = packet.psn  # cumulative: everything < psn
            if acked_through > self._send_base:
                self._send_base = acked_through
                if self._send_base >= self.total_packets:
                    self.stats.completed_at = net.sim.now
                    return
                self._fill_window()
        elif packet.kind == "nack":
            self.stats.nacks += 1
            if packet.psn >= self._send_base:
                self._send_base = packet.psn
                self._go_back_n()

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _on_data(self, packet: Packet) -> None:
        net = self._net
        assert net is not None
        if packet.psn == self._expected_psn:
            self._expected_psn += 1
            self._nacked_for = -1  # episode over: progress was made
            self._send_control("ack", self._expected_psn)
        elif packet.psn > self._expected_psn:
            # Gap: go-back-N receivers discard and demand the expected
            # PSN — once per episode, not per stray packet.
            if self._nacked_for != self._expected_psn:
                self._nacked_for = self._expected_psn
                self._send_control("nack", self._expected_psn)
        else:
            # Duplicate of already-received data: re-ack cumulatively.
            self._send_control("ack", self._expected_psn)

    def _send_control(self, kind: str, psn: int) -> None:
        net = self._net
        assert net is not None
        packet = Packet(
            flow_id=self.flow_id,
            src=self.dst,
            dst=self.src,
            size=CONTROL_PACKET_SIZE,
            tag=self.initial_tag,
            ttl=net.config.default_ttl,
            packet_id=net.new_packet_id(),
            created_at=net.sim.now,
            kind=kind,
            psn=psn,
        )
        queue = net.host_queue_map.queue_for(self.initial_tag)
        nic = net.hosts[self.dst].nic
        assert nic is not None
        nic.enqueue(packet, queue)

    # ------------------------------------------------------------------
    # Dispatch from SimHost
    # ------------------------------------------------------------------
    def on_delivery(self, packet: Packet, at_host: str) -> None:
        """Called by the destination host for every delivered packet."""
        if packet.kind == "data" and at_host == self.dst:
            self._on_data(packet)
        elif packet.kind in ("ack", "nack") and at_host == self.src:
            self._on_control(packet)

    @property
    def completion_time(self) -> Optional[float]:
        if self.stats.completed_at is None:
            return None
        return self.stats.completed_at - self.start
