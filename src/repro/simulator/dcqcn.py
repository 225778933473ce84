"""DCQCN-style end-to-end congestion control (Zhu et al., SIGCOMM 2015).

The paper's §6 discussion ("PFC alternatives"): schemes like DCQCN
*minimize PFC generation* by slowing senders before buffers reach the
PAUSE threshold — but they are congestion control, not deadlock
prevention, so "Tagger fixes a missing piece of the current RoCE design".
This module implements a simplified-but-faithful DCQCN so that claim can
be measured: marked packets trigger CNPs (on their own traffic class, as
in the paper's multi-class discussion), senders multiplicatively decrease
on CNPs and additively recover on a timer.

Simplifications vs. the full DCQCN spec: single-threshold ECN marking
(no RED probability ramp), rate-based injection instead of byte-counter
stages, and fixed-gain alpha EWMA. These keep the control loop's
character — fast multiplicative backoff, slow recovery, CNP pacing —
without its bookkeeping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.core.tags import INITIAL_TAG
from repro.exceptions import SimulationError
from repro.simulator.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.network import SimNetwork

_flow_ids = itertools.count(600_000)

#: CNPs are tiny control frames.
CNP_PACKET_SIZE = 64


@dataclass
class DcqcnParams:
    """Control-loop constants (scaled to the simulator's 1 Gb/s links)."""

    line_rate_bps: float = 1e9
    min_rate_bps: float = 10e6
    cnp_interval: float = 50e-6       # at most one CNP per interval
    alpha_g: float = 0.0625           # alpha EWMA gain
    rate_increase_bps: float = 40e6   # additive increase per timer
    increase_period: float = 1e-3


@dataclass
class DcqcnFlow:
    """One rate-controlled sender.

    Attributes:
        src / dst: Host names.
        data_tag: Traffic class of data packets.
        cnp_tag: Traffic class of CNPs (a separate lossless class per the
            paper's §6 example; defaults to the data class).
    """

    src: str
    dst: str
    packet_size: int = 4096
    data_tag: int = INITIAL_TAG
    cnp_tag: Optional[int] = None
    start: float = 0.0
    stop: Optional[float] = None
    params: DcqcnParams = field(default_factory=DcqcnParams)
    flow_id: int = field(default_factory=lambda: next(_flow_ids))

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise SimulationError("flow src and dst must differ")
        if self.cnp_tag is None:
            self.cnp_tag = self.data_tag
        self.rate = self.params.line_rate_bps
        self._target_rate = self.params.line_rate_bps
        self._alpha = 1.0
        self._last_cnp_sent = -1e9  # receiver-side pacing
        self.cnps_sent = 0
        self.cnps_received = 0
        self._net: Optional["SimNetwork"] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, net: "SimNetwork") -> "DcqcnFlow":
        if self.src not in net.hosts or self.dst not in net.hosts:
            raise SimulationError("unknown DCQCN endpoints")
        self._net = net
        net.transports[self.flow_id] = self
        net.sim.at(self.start, self._inject)
        net.sim.at(self.start + self.params.increase_period, self._increase)
        return self

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------
    def _active(self) -> bool:
        assert self._net is not None
        now = self._net.sim.now
        return now >= self.start and (self.stop is None or now < self.stop)

    def _inject(self) -> None:
        net = self._net
        assert net is not None
        if self.stop is not None and net.sim.now >= self.stop:
            return
        if self._active():
            packet = Packet(
                flow_id=self.flow_id,
                src=self.src,
                dst=self.dst,
                size=self.packet_size,
                tag=self.data_tag,
                ttl=net.config.default_ttl,
                packet_id=net.new_packet_id(),
                created_at=net.sim.now,
                kind="data",
            )
            net.metrics.record_injection(net.sim.now, self.flow_id)
            queue = net.host_queue_map.queue_for(self.data_tag)
            nic = net.hosts[self.src].nic
            assert nic is not None
            nic.enqueue(packet, queue)
        interval = self.packet_size * 8.0 / max(self.rate, self.params.min_rate_bps)
        net.sim.schedule(interval, self._inject)

    def _increase(self) -> None:
        net = self._net
        assert net is not None
        if self.stop is not None and net.sim.now >= self.stop:
            return
        # Additive recovery toward (then past) the previous target.
        self.rate = min(
            self.params.line_rate_bps,
            self.rate + self.params.rate_increase_bps,
        )
        net.sim.schedule(self.params.increase_period, self._increase)

    def _on_cnp(self) -> None:
        """Multiplicative decrease, DCQCN-style."""
        self.cnps_received += 1
        self._alpha = (
            (1 - self.params.alpha_g) * self._alpha + self.params.alpha_g
        )
        self._target_rate = self.rate
        self.rate = max(
            self.params.min_rate_bps, self.rate * (1 - self._alpha / 2)
        )

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------
    def _on_data(self, packet: Packet) -> None:
        net = self._net
        assert net is not None
        if not packet.ecn:
            return
        if net.sim.now - self._last_cnp_sent < self.params.cnp_interval:
            return
        self._last_cnp_sent = net.sim.now
        self.cnps_sent += 1
        cnp = Packet(
            flow_id=self.flow_id,
            src=self.dst,
            dst=self.src,
            size=CNP_PACKET_SIZE,
            tag=self.cnp_tag,
            ttl=net.config.default_ttl,
            packet_id=net.new_packet_id(),
            created_at=net.sim.now,
            kind="cnp",
        )
        queue = net.host_queue_map.queue_for(self.cnp_tag)
        nic = net.hosts[self.dst].nic
        assert nic is not None
        nic.enqueue(cnp, queue)

    # ------------------------------------------------------------------
    # Dispatch from SimHost
    # ------------------------------------------------------------------
    def on_delivery(self, packet: Packet, at_host: str) -> None:
        if packet.kind == "data" and at_host == self.dst:
            self._on_data(packet)
        elif packet.kind == "cnp" and at_host == self.src:
            self._on_cnp()
