"""Egress port machinery shared by switches and host NICs.

A :class:`TxPort` owns the per-priority egress FIFOs of one physical
port, the PFC pause flags set by the downstream neighbor, and the
transmit loop (serialization delay + propagation delay). Scheduling among
non-paused, non-empty priority queues is round-robin — close enough to
the WRR commodity switches use, and free of starvation artifacts.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappush
from typing import Callable, Deque, Dict, List, Optional

from repro.exceptions import SimulationError
from repro.simulator.engine import Callback, Simulator, WheelSimulator
from repro.simulator.packet import Packet, SimConfig
from repro.simulator.pfc import PauseState

DeliverFn = Callable[[Packet], None]
SentFn = Callable[[Packet], None]


class TxPort:
    """One egress port: priority FIFOs + PFC pause state + tx loop."""

    # Slotted (base and fast subclass): switch datapaths touch port
    # attributes on every hop, and slots keep that off the dict path.
    __slots__ = (
        "sim", "config", "owner", "port", "peer", "_deliver", "_on_sent",
        "queues", "queued_bytes", "pause", "pause_started", "busy",
        "link_up", "_rr_last", "bytes_sent", "packets_sent",
    )

    def __init__(
        self,
        sim: Simulator,
        config: SimConfig,
        owner: str,
        port: int,
        peer: str,
        deliver: DeliverFn,
        on_sent: Optional[SentFn] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.owner = owner
        self.port = port
        self.peer = peer
        self._deliver = deliver
        self._on_sent = on_sent
        self.queues: Dict[int, Deque[Packet]] = {}
        self.queued_bytes: Dict[int, int] = {}
        self.pause = PauseState()
        self.pause_started: Dict[int, float] = {}
        self.busy = False
        self.link_up = True
        self._rr_last = -1
        self.bytes_sent = 0
        self.packets_sent = 0

    # ------------------------------------------------------------------
    # Enqueue / PFC
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, queue: int) -> None:
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

    def on_pause(self, queue: int) -> None:
        if not self.pause.is_paused(queue):
            self.pause_started[queue] = self.sim.now
        self.pause.pause(queue)

    def on_resume(self, queue: int) -> None:
        self.pause.resume(queue)
        self.pause_started.pop(queue, None)
        self._try_send()

    def paused_duration(self, queue: int) -> float:
        """How long this queue has been continuously paused (0 if not)."""
        started = self.pause_started.get(queue)
        if started is None or not self.pause.is_paused(queue):
            return 0.0
        return self.sim.now - started

    # ------------------------------------------------------------------
    # Transmit loop
    # ------------------------------------------------------------------
    def _pick_queue(self) -> Optional[int]:
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

    def set_link_state(self, up: bool) -> None:
        """Bring the physical link up or down.

        A down link transmits nothing; queued packets stay queued (they
        drain if the link recovers — the owner typically drains them via
        :meth:`drain_all` on failure instead).
        """
        self.link_up = up
        if up:
            self._try_send()

    def drain_all(self) -> List[Packet]:
        """Remove and return every queued packet (used on link failure)."""
        drained: List[Packet] = []
        for queue, fifo in self.queues.items():
            while fifo:
                packet = fifo.popleft()
                self.queued_bytes[queue] -= packet.size
                drained.append(packet)
        return drained

    def _try_send(self) -> None:
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

    def _complete(self, packet: Packet) -> None:
        self.busy = False
        self.bytes_sent += packet.size
        self.packets_sent += 1
        if self._on_sent is not None:
            self._on_sent(packet)
        self.sim.schedule(
            self.config.prop_delay, lambda: self._deliver(packet)
        )
        self._try_send()

    # ------------------------------------------------------------------
    # Introspection (metrics, deadlock detection)
    # ------------------------------------------------------------------
    def depth(self, queue: int) -> int:
        return len(self.queues.get(queue, ()))

    def bytes_queued(self, queue: Optional[int] = None) -> int:
        if queue is not None:
            return self.queued_bytes.get(queue, 0)
        return sum(self.queued_bytes.values())

    def blocked_queues(self) -> List[int]:
        """Queues holding packets while paused by the downstream peer."""
        return sorted(
            q
            for q, fifo in self.queues.items()
            if fifo and self.pause.is_paused(q)
        )

    def held_packets(self, queue: int) -> List[Packet]:
        return list(self.queues.get(queue, ()))

    def __repr__(self) -> str:
        return (
            f"TxPort({self.owner}:{self.port} -> {self.peer}, "
            f"queued={self.bytes_queued()}B, paused={sorted(self.pause.paused)})"
        )


class FastTxPort(TxPort):
    """Allocation-light :class:`TxPort` for the wheel engine.

    Same behaviour as the reference (the equivalence suite diffs the
    two) without a closure per transmit, delivery or hop, and without a
    ``sorted()`` per round-robin pick. What the code does not show:

    - delivered packets ride ``_wire`` and are popped in FIFO order by
      one pre-bound callback — sound only because the propagation delay
      is constant per port, so deliveries fire in booking order;
    - :meth:`_complete_tx` calls the sender hook *before* booking the
      delivery, as the reference does: a host's closed-loop refill may
      inject from inside the hook, and the sequence numbers the two
      bookings draw decide same-instant tie order;
    - ``WheelSimulator.schedule`` is written out in :meth:`_try_send`
      and :meth:`_complete_tx` (1.25 M pushes per 100 k-packet storm,
      about 3 % of its run time as a call — see docs/PERFORMANCE.md).
      It is the only inlining left in the stack, hence the exact-type
      check on ``sim``: a subclass could override scheduling.

    ``queues``/``queued_bytes``/``pause``/``pause_started`` stay fully
    authoritative — detection, recovery and the deadlock probes read and
    mutate them directly on both port classes.
    """

    __slots__ = (
        "_bw", "_prop", "_ecn_threshold", "_wsim", "_qids", "_tx_packet",
        "_wire", "_complete_cb", "_deliver_cb", "_pauseset", "_recv_fn",
        "_recv_port",
    )

    def __init__(
        self,
        sim: Simulator,
        config: SimConfig,
        owner: str,
        port: int,
        peer: str,
        deliver: DeliverFn,
        on_sent: Optional[SentFn] = None,
    ) -> None:
        if type(sim) is not WheelSimulator:
            raise SimulationError(
                f"FastTxPort needs a WheelSimulator, got {type(sim).__name__}"
            )
        super().__init__(sim, config, owner, port, peer, deliver, on_sent)
        self._bw = config.bandwidth_bps
        self._prop = config.prop_delay
        self._ecn_threshold = config.ecn_threshold_bytes
        self._wsim: WheelSimulator = sim
        self._qids: List[int] = []  # sorted registry of known queue ids
        self._pauseset = self.pause.paused  # PauseState mutates in place
        self._tx_packet: Optional[Packet] = None
        self._wire: Deque[Packet] = deque()
        # Pre-bound event callbacks: binding a method per schedule costs
        # an allocation on every packet-hop; these two never change.
        self._complete_cb: Callback = self._complete_tx
        self._deliver_cb: Callback = self._deliver_next
        self._recv_fn: Optional[Callable[[Packet, int], None]] = None
        self._recv_port = 0

    def bind_receiver(
        self, receive: Callable[[Packet, int], None], port: int
    ) -> None:
        """Bind the downstream ``receive(packet, in_port)`` directly."""
        self._recv_fn = receive
        self._recv_port = port

    def enqueue(self, packet: Packet, queue: int) -> None:
        packet.egress_queue = queue
        try:
            fifo = self.queues[queue]
        except KeyError:
            fifo = self.queues[queue] = deque()
            self.queued_bytes[queue] = 0
            self._qids.append(queue)
            self._qids.sort()
        queued = self.queued_bytes[queue]
        threshold = self._ecn_threshold
        if threshold is not None and queued > threshold:
            packet.ecn = True
        fifo.append(packet)
        self.queued_bytes[queue] = queued + packet.size
        if not self.busy:
            self._try_send()

    def _try_send(self) -> None:
        if self.busy or not self.link_up:
            return
        # Round-robin over non-empty, non-paused queues.
        queues = self.queues
        paused = self._pauseset
        rr_last = self._rr_last
        queue = -1
        first = -1
        for q in self._qids:
            if not queues[q] or q in paused:
                continue
            if q > rr_last:
                queue = q
                break
            if first < 0:
                first = q
        if queue < 0:
            if first < 0:
                return
            queue = first
        packet = queues[queue].popleft()
        self.queued_bytes[queue] -= packet.size
        self._rr_last = queue
        self.busy = True
        self._tx_packet = packet
        # WheelSimulator.schedule, inlined (the delay is always positive).
        wsim = self._wsim
        time = wsim.now + packet.size * 8.0 / self._bw
        seq = wsim._seq
        wsim._seq = seq + 1
        event = (time, seq, self._complete_cb)
        slot = int(time / wsim._res)
        cur = wsim._cur_slot
        if slot <= cur:
            insort(wsim._active, event, wsim._active_pos)
        elif slot < cur + wsim._nslots:
            cell = wsim._ring[slot % wsim._nslots]
            if not cell:
                heappush(wsim._slot_heap, slot)
            cell.append(event)
            wsim._ring_count += 1
        else:
            heappush(wsim._overflow, event)

    def _complete_tx(self) -> None:
        packet = self._tx_packet
        assert packet is not None
        self._tx_packet = None
        self.busy = False
        self.bytes_sent += packet.size
        self.packets_sent += 1
        if self._on_sent is not None:
            self._on_sent(packet)
        self._wire.append(packet)
        # WheelSimulator.schedule, inlined.
        wsim = self._wsim
        time = wsim.now + self._prop
        seq = wsim._seq
        wsim._seq = seq + 1
        event = (time, seq, self._deliver_cb)
        slot = int(time / wsim._res)
        cur = wsim._cur_slot
        if slot <= cur:
            insort(wsim._active, event, wsim._active_pos)
        elif slot < cur + wsim._nslots:
            cell = wsim._ring[slot % wsim._nslots]
            if not cell:
                heappush(wsim._slot_heap, slot)
            cell.append(event)
            wsim._ring_count += 1
        else:
            heappush(wsim._overflow, event)
        self._try_send()

    def _deliver_next(self) -> None:
        recv = self._recv_fn
        if recv is not None:
            recv(self._wire.popleft(), self._recv_port)
        else:
            self._deliver(self._wire.popleft())
