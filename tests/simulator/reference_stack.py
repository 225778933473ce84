"""The frozen reference simulator stack — a test fixture, not a product.

``repro.simulator`` ships one engine and one class per concept, each
written for speed (per-time event lists, decision cache, flat accounting,
closure-free ports). This module keeps the naive implementation of every
one of those hot paths — a binary-heap scheduler, an uncached route
lookup per hop, dict-keyed accounting, a closure per transmit and a
``sorted()`` per round-robin pick — so that
``tests/simulator/test_engine_equivalence.py`` can run both stacks on the
same fabric and demand byte-identical traces, PFC logs and metrics, and
``benchmarks/bench_sim_throughput.py`` can measure what the fast paths
buy.

The ``Reference*`` classes subclass the production classes and override
*only* the hot-path methods (``tests/simulator/test_stack_structure.py``
holds the allow-list); everything else — pause bookkeeping, link state,
introspection, the throttled receiver, threshold arithmetic, fabric
assembly — is the production code, so there is nothing here to drift.
Do not optimize this file: its value is that it is obviously correct.
"""

from collections import deque
from heapq import heappop, heappush

from repro.core.pipeline import LOSSY_QUEUE
from repro.core.tags import LOSSY_TAG
from repro.exceptions import RoutingError, SimulationError
from repro.simulator.buffers import CrossingResult, IngressAccounting
from repro.simulator.host import SimHost
from repro.simulator.metrics import (
    DROP_LOSSLESS,
    DROP_LOSSY,
    DROP_NO_ROUTE,
    DROP_TTL,
)
from repro.simulator.network import SimNetwork
from repro.simulator.packet import Packet
from repro.simulator.pfc import PauseState
from repro.simulator.switch import SimSwitch
from repro.simulator.txport import TxPort


class ReferenceSimulator:
    """A clock plus one binary heap: ``heappush``/``heappop`` per event.

    Same scheduling contract as :class:`repro.simulator.Simulator` —
    ``(time, seq)`` order, FIFO ties, ``until``/``max_events``/``stop``
    run control — which ``tests/simulator/test_engine.py`` runs against
    both.
    """

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._events_run = 0
        self._stopped = False

    def schedule(self, delay, callback):
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self.at(self.now + delay, callback)

    def at(self, time, callback):
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, callback))

    def run(self, until=None, max_events=None):
        processed = 0
        self._stopped = False
        while self._heap and not self._stopped:
            time, _, callback = self._heap[0]
            if until is not None and time > until:
                break
            heappop(self._heap)
            self.now = time
            callback()
            processed += 1
            self._events_run += 1
            if max_events is not None and processed >= max_events:
                break
        if until is not None and self.now < until and not self._heap:
            self.now = until
        elif until is not None and self._heap and self._heap[0][0] > until:
            self.now = until
        return processed

    def stop(self):
        self._stopped = True

    @property
    def pending_events(self):
        return len(self._heap)

    @property
    def total_events_run(self):
        return self._events_run


class ReferenceAccounting(IngressAccounting):
    """Accounts in two dicts keyed ``(port, queue)``; thresholds inherited."""

    def __init__(self, config):
        self.config = config
        self.lossless_total = 0
        self.occupancy = {}
        self.pause_sent = {}

    def charge(self, port, queue, size):
        key = (port, queue)
        occ = self.occupancy.get(key, 0)
        result = CrossingResult()
        if queue == LOSSY_QUEUE:
            if occ + size > self.config.lossy_cap_bytes:
                result.accepted = False
                return result
            self.occupancy[key] = occ + size
            return result

        # Hard per-account cap: current XOFF plus reserved headroom.
        if occ + size > self.current_xoff() + self.config.headroom_bytes:
            result.accepted = False
            return result
        self.occupancy[key] = occ + size
        self.lossless_total += size
        if self.occupancy[key] >= self.current_xoff() and not self.pause_sent.get(
            key, False
        ):
            self.pause_sent[key] = True
            result.send_pause = True
        return result

    def release(self, port, queue, size):
        key = (port, queue)
        occ = self.occupancy.get(key, 0)
        if size > occ:
            raise AssertionError(
                f"ingress accounting underflow on {key}: {occ} - {size}"
            )
        self.occupancy[key] = occ - size
        result = CrossingResult()
        if queue != LOSSY_QUEUE:
            self.lossless_total -= size
            if (
                self.pause_sent.get(key, False)
                and self.occupancy[key] <= self.current_xon()
            ):
                self.pause_sent[key] = False
                result.send_resume = True
        return result

    def occupancy_of(self, port, queue):
        return self.occupancy.get((port, queue), 0)

    @property
    def total_bytes(self):
        return sum(self.occupancy.values())

    def paused_accounts(self):
        return {
            key: self.occupancy.get(key, 0)
            for key, sent in self.pause_sent.items()
            if sent
        }


class ReferenceTxPort(TxPort):
    """Sorted round-robin pick, one closure per transmit and per delivery."""

    def __init__(
        self, sim, config, owner, port, peer, receive, recv_port=0, on_sent=None
    ):
        # Own fields, no super().__init__: the production constructor
        # refuses any engine but the stock one (it inlines its push).
        self.sim = sim
        self.config = config
        self.owner = owner
        self.port = port
        self.peer = peer
        self._deliver = lambda packet: receive(packet, recv_port)
        self._on_sent = on_sent
        self.queues = {}
        self.queued_bytes = {}
        self.pause = PauseState()
        self.pause_started = {}
        self.busy = False
        self.link_up = True
        self._rr_last = -1
        self.bytes_sent = 0
        self.packets_sent = 0

    def enqueue(self, packet, queue):
        packet.egress_queue = queue
        threshold = self.config.ecn_threshold_bytes
        if (
            threshold is not None
            and self.queued_bytes.get(queue, 0) > threshold
        ):
            packet.ecn = True
        self.queues.setdefault(queue, deque()).append(packet)
        self.queued_bytes[queue] = self.queued_bytes.get(queue, 0) + packet.size
        self._try_send()

    def _pick_queue(self):
        """Round-robin over non-empty, non-paused queues."""
        candidates = sorted(
            q
            for q, fifo in self.queues.items()
            if fifo and not self.pause.is_paused(q)
        )
        if not candidates:
            return None
        for q in candidates:
            if q > self._rr_last:
                return q
        return candidates[0]

    def _try_send(self):
        if self.busy or not self.link_up:
            return
        queue = self._pick_queue()
        if queue is None:
            return
        packet = self.queues[queue].popleft()
        self.queued_bytes[queue] -= packet.size
        self._rr_last = queue
        self.busy = True
        tx_time = self.config.tx_time(packet.size)
        self.sim.schedule(tx_time, lambda: self._complete(packet))

    def _complete(self, packet):
        self.busy = False
        self.bytes_sent += packet.size
        self.packets_sent += 1
        if self._on_sent is not None:
            self._on_sent(packet)
        self.sim.schedule(
            self.config.prop_delay, lambda: self._deliver(packet)
        )
        self._try_send()


class ReferenceSwitch(SimSwitch):
    """Every hop recomputed from the tables; no decision cache."""

    def __init__(self, net, name, pipeline):
        super().__init__(net, name, pipeline)
        self.accounting = ReferenceAccounting(net.config)

    def receive(self, packet, in_port):
        metrics = self.net.metrics
        tracer = self.net.tracer
        if tracer is not None:
            self._trace(packet, "receive", f"in_port={in_port}")
        packet.ttl -= 1
        packet.hops += 1
        if packet.ttl <= 0:
            metrics.record_drop(self.net.sim.now, DROP_TTL, packet.flow_id)
            if tracer is not None:
                self._trace(packet, "drop", DROP_TTL)
            return

        next_hop = self._next_hop(packet)
        if next_hop is None:
            metrics.record_drop(self.net.sim.now, DROP_NO_ROUTE, packet.flow_id)
            if tracer is not None:
                self._trace(packet, "drop", DROP_NO_ROUTE)
            return
        out_port = self.net.topo.port_to(self.name, next_hop)

        in_queue = self.pipeline.classify_ingress(packet.tag)
        crossing = self.accounting.charge(in_port, in_queue, packet.size)
        if not crossing.accepted:
            reason = DROP_LOSSY if in_queue == LOSSY_QUEUE else DROP_LOSSLESS
            metrics.record_drop(self.net.sim.now, reason, packet.flow_id)
            if tracer is not None:
                self._trace(packet, "drop", reason)
            return
        if crossing.send_pause:
            self.net.send_pfc(self.name, in_port, in_queue, pause=True)

        old_tag = packet.tag
        if self.net.topo.node(next_hop).is_host:
            # Delivery hop: keep the tag onto the host link.
            new_tag = old_tag
        else:
            new_tag = self.pipeline.rewrite(old_tag, in_port, out_port)
            if new_tag != old_tag:
                metrics.record_demotion(
                    self.net.sim.now, self.name, old_tag, new_tag,
                    packet.flow_id,
                )
        egress_queue = self.pipeline.classify_egress(old_tag, new_tag)
        if (
            self.net.quarantined
            and egress_queue != LOSSY_QUEUE
            and (self.name, out_port, egress_queue) in self.net.quarantined
        ):
            metrics.record_demotion(
                self.net.sim.now, self.name, new_tag, LOSSY_TAG,
                packet.flow_id,
            )
            new_tag = LOSSY_TAG
            egress_queue = LOSSY_QUEUE
        packet.tag = new_tag
        packet.in_port = in_port
        packet.in_queue = in_queue
        if self.net.tracer is not None:
            self._trace(
                packet,
                "forward",
                f"-> {next_hop} tag {old_tag}->{new_tag} q{egress_queue}",
            )
        self.tx_ports[out_port].enqueue(packet, egress_queue)

    def _next_hop(self, packet):
        pinned = self.net.pinned_next_hop(
            packet.flow_id, self.name, dst=packet.dst
        )
        if pinned is not None:
            return pinned
        try:
            return self.net.table.next_hop(
                self.name, packet.dst, flow_hash=packet.flow_id
            )
        except RoutingError:
            return None

    def on_sent(self, packet):
        assert packet.in_port is not None and packet.in_queue is not None
        crossing = self.accounting.release(
            packet.in_port, packet.in_queue, packet.size
        )
        if crossing.send_resume:
            self.net.send_pfc(
                self.name, packet.in_port, packet.in_queue, pause=False
            )


class ReferenceHost(SimHost):
    """Flow scan per completion, queue lookup per injection, no inlining."""

    def _inject(self, flow):
        if flow.total_bytes is not None and (
            self._sent_bytes[flow.flow_id] + flow.packet_size > flow.total_bytes
        ):
            return False
        if not flow.active_at(self.net.sim.now):
            return False
        packet = Packet(
            flow_id=flow.flow_id,
            src=self.name,
            dst=flow.dst,
            size=flow.packet_size,
            tag=flow.initial_tag,
            ttl=self.net.config.default_ttl,
            packet_id=self.net.new_packet_id(),
            created_at=self.net.sim.now,
        )
        self._sent_bytes[flow.flow_id] += flow.packet_size
        self.net.metrics.record_injection(self.net.sim.now, flow.flow_id)
        queue = self.net.host_queue_map.queue_for(flow.initial_tag)
        assert self.nic is not None, "host NIC not wired"
        self.nic.enqueue(packet, queue)
        return True

    def on_sent(self, packet):
        for flow in self._flows:
            if flow.flow_id == packet.flow_id and flow.closed_loop:
                jitter = self.net.config.injection_jitter
                if jitter > 0:
                    delay = self.net.rng.uniform(0.0, jitter)
                    self.net.sim.schedule(delay, lambda f=flow: self._inject(f))
                else:
                    self._inject(flow)
                return

    def receive(self, packet, in_port=0):
        self._receive_slow(packet)


class ReferenceSimNetwork(SimNetwork):
    """A :class:`SimNetwork` assembled from the reference stack."""

    engine_cls = ReferenceSimulator
    switch_cls = ReferenceSwitch
    host_cls = ReferenceHost
    port_cls = ReferenceTxPort
