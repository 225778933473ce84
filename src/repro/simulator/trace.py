"""Optional packet-event tracing and queue-occupancy sampling.

Debugging a PFC fabric needs two views the aggregate metrics don't give:

- :class:`PacketTracer` — a per-event log (receive / forward / deliver /
  drop / pause / resume) with switch- and flow-filters, bounded by a
  ring-buffer size so long runs don't exhaust memory;
- :class:`QueueSampler` — periodic samples of selected ingress accounts
  and egress queue depths, producing the buffer-occupancy time series
  the paper-style analyses plot.

Both attach to a :class:`~repro.simulator.network.SimNetwork` after
construction and are pure observers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.obs.bus import TelemetryBus
from repro.obs.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.network import SimNetwork

#: Event kinds a tracer records. These are the short names the query API
#: speaks; on the bus they are namespaced as ``trace.<kind>`` (see
#: ``repro.obs.events``).
EV_RECEIVE = "receive"
EV_FORWARD = "forward"
EV_DELIVER = "deliver"
EV_DROP = "drop"
EV_PAUSE = "pause"
EV_RESUME = "resume"

_TRACE_PREFIX = "trace."


@dataclass(frozen=True)
class TraceEvent:
    """One traced event."""

    time: float
    kind: str
    node: str
    flow_id: Optional[int] = None
    packet_id: Optional[int] = None
    tag: Optional[int] = None
    detail: str = ""


def _from_bus_event(event: Event) -> TraceEvent:
    fields = event.fields
    return TraceEvent(
        time=event.time,
        kind=event.kind[len(_TRACE_PREFIX):],
        node=fields["node"],
        flow_id=fields.get("flow"),
        packet_id=fields.get("packet"),
        tag=fields.get("tag"),
        detail=fields.get("detail", ""),
    )


class PacketTracer:
    """Bounded per-hop event log with optional flow/node filters.

    Sits on a :class:`~repro.obs.bus.TelemetryBus`: every trace is a
    structured ``trace.*`` event, so the same stream the query API reads
    (:meth:`of_kind`, :meth:`packet_journey`) can be exported as JSONL
    alongside the rest of the telemetry. Pass an existing ``bus`` to
    interleave traces with the fabric's other events; by default each
    tracer gets a private ring sized by ``capacity`` (oldest events are
    evicted).

    Attach with :meth:`attach`; afterwards the network calls
    :meth:`record` on every observable event.
    """

    def __init__(
        self,
        capacity: int = 10_000,
        flows: Optional[Sequence[int]] = None,
        nodes: Optional[Sequence[str]] = None,
        bus: Optional[TelemetryBus] = None,
    ) -> None:
        self.capacity = capacity
        self.flows = flows
        self.nodes = nodes
        self.bus = bus if bus is not None else TelemetryBus(capacity=capacity)

    def attach(self, net: "SimNetwork") -> "PacketTracer":
        net.tracer = self
        return self

    def record(
        self,
        time: float,
        kind: str,
        node: str,
        flow_id: Optional[int] = None,
        packet_id: Optional[int] = None,
        tag: Optional[int] = None,
        detail: str = "",
    ) -> None:
        if self.flows is not None and flow_id not in self.flows:
            return
        if self.nodes is not None and node not in self.nodes:
            return
        self.bus.emit(
            time,
            _TRACE_PREFIX + kind,
            node=node,
            flow=flow_id,
            packet=packet_id,
            tag=tag,
            detail=detail,
        )

    @property
    def events(self) -> List[TraceEvent]:
        """The buffered trace, oldest first."""
        return [
            _from_bus_event(event)
            for event in self.bus.events()
            if event.kind.startswith(_TRACE_PREFIX)
        ]

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def packet_journey(self, packet_id: int) -> List[TraceEvent]:
        """All events of one packet, in order — its life story."""
        return [e for e in self.events if e.packet_id == packet_id]

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class QueueSample:
    """One sampled occupancy point."""

    time: float
    switch: str
    port: int
    queue: int
    ingress_bytes: int
    egress_bytes: int
    paused: bool


@dataclass
class QueueSampler:
    """Periodic occupancy sampler for selected (switch, port, queue) spots.

    ``spots`` are ``(switch, in_port_peer_or_port, queue)`` — the port may
    be given as the neighbor's name (resolved once) or a port number.
    """

    net: "SimNetwork"
    spots: Sequence[Tuple[str, object, int]]
    period: float = 0.001
    samples: List[QueueSample] = field(default_factory=list)
    _resolved: List[Tuple[str, int, int]] = field(default_factory=list)
    _installed: bool = False

    def _publish_gauges(self, sample: QueueSample) -> None:
        telemetry = self.net.telemetry
        if telemetry is None:
            return
        telemetry.registry.gauge(
            "sim_queue_depth_bytes",
            "Egress bytes queued per (switch, port, queue).",
            labelnames=("switch", "port", "queue"),
        ).set(
            sample.egress_bytes,
            switch=sample.switch,
            port=sample.port,
            queue=sample.queue,
        )
        telemetry.registry.gauge(
            "sim_ingress_account_bytes",
            "Ingress PFC account bytes per (switch, port, queue).",
            labelnames=("switch", "port", "queue"),
        ).set(
            sample.ingress_bytes,
            switch=sample.switch,
            port=sample.port,
            queue=sample.queue,
        )

    def install(self) -> None:
        if self._installed:
            return
        self._installed = True
        for switch, port_spec, queue in self.spots:
            if isinstance(port_spec, str):
                port = self.net.topo.port_to(switch, port_spec)
            else:
                port = int(port_spec)  # type: ignore[arg-type]
            self._resolved.append((switch, port, queue))
        self.net.sim.schedule(self.period, self._tick)

    def _tick(self) -> None:
        now = self.net.sim.now
        for switch_name, port, queue in self._resolved:
            switch = self.net.switches[switch_name]
            tx = switch.tx_ports.get(port)
            sample = QueueSample(
                time=now,
                switch=switch_name,
                port=port,
                queue=queue,
                ingress_bytes=switch.accounting.occupancy_of(port, queue),
                egress_bytes=tx.bytes_queued(queue) if tx else 0,
                paused=bool(tx and tx.pause.is_paused(queue)),
            )
            self.samples.append(sample)
            self._publish_gauges(sample)
        self.net.sim.schedule(self.period, self._tick)

    def series(
        self, switch: str, port: int, queue: int
    ) -> List[Tuple[float, int, int, bool]]:
        """(time, ingress_bytes, egress_bytes, paused) for one spot."""
        return [
            (s.time, s.ingress_bytes, s.egress_bytes, s.paused)
            for s in self.samples
            if s.switch == switch and s.port == port and s.queue == queue
        ]

    def peak_ingress(self, switch: str, port: int, queue: int) -> int:
        return max(
            (
                s.ingress_bytes
                for s in self.samples
                if s.switch == switch and s.port == port and s.queue == queue
            ),
            default=0,
        )
