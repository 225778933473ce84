"""Egress port machinery shared by switches and host NICs.

A :class:`TxPort` owns the per-priority egress FIFOs of one physical
port, the PFC pause flags set by the downstream neighbor, and the
transmit loop (serialization delay + propagation delay). Scheduling among
non-paused, non-empty priority queues is round-robin — close enough to
the WRR commodity switches use, and free of starvation artifacts.

The per-hop path allocates nothing: no closure per transmit or
delivery, no ``sorted()`` per round-robin pick. What the code does not
show:

- delivered packets ride ``_wire`` and are popped in FIFO order by one
  pre-bound callback — sound only because the propagation delay is
  constant per port, so deliveries fire in booking order;
- :meth:`TxPort._complete_tx` calls the sender hook *before* booking
  the delivery: a host's closed-loop refill may inject from inside the
  hook, and the order of the two bookings decides same-instant tie
  order;
- ``Simulator.schedule`` is written out in :meth:`TxPort._try_send` and
  :meth:`TxPort._complete_tx`: an append to the time's callback list,
  or a new list and a heap push when the time is new (1.25 M pushes per
  100 k-packet storm — see docs/PERFORMANCE.md). It is the only
  inlining in the stack, hence the exact-type check on ``sim``: a
  subclass could override scheduling.

``tests/simulator/reference_stack.py`` keeps the naive port (closure
per transmit, sorted round-robin) that the equivalence suite diffs this
one against.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque, Dict, List, Optional

from repro.exceptions import SimulationError
from repro.simulator.engine import Callback, Simulator
from repro.simulator.packet import Packet, SimConfig
from repro.simulator.pfc import PauseState

ReceiveFn = Callable[[Packet, int], None]
SentFn = Callable[[Packet], None]


class TxPort:
    """One egress port: priority FIFOs + PFC pause state + tx loop.

    ``queues``/``queued_bytes``/``pause``/``pause_started`` are fully
    authoritative — detection, recovery and the deadlock probes read and
    mutate them directly.
    """

    # Slotted: switch datapaths touch port attributes on every hop, and
    # slots keep that off the dict path.
    __slots__ = (
        "sim", "config", "owner", "port", "peer", "_on_sent",
        "queues", "queued_bytes", "pause", "pause_started", "busy",
        "link_up", "_rr_last", "bytes_sent", "packets_sent",
        "_bw", "_prop", "_ecn_threshold", "_qids", "_tx_packet",
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
        receive: ReceiveFn,
        recv_port: int = 0,
        on_sent: Optional[SentFn] = None,
    ) -> None:
        """``receive(packet, recv_port)`` is the peer's ingress entry point."""
        if type(sim) is not Simulator:
            raise SimulationError(
                f"TxPort needs a stock Simulator, got {type(sim).__name__}"
            )
        self.sim = sim
        self.config = config
        self.owner = owner
        self.port = port
        self.peer = peer
        self._recv_fn = receive
        self._recv_port = recv_port
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
        self._bw = config.bandwidth_bps
        self._prop = config.prop_delay
        self._ecn_threshold = config.ecn_threshold_bytes
        self._qids: List[int] = []  # sorted registry of known queue ids
        self._pauseset = self.pause.paused  # PauseState mutates in place
        self._tx_packet: Optional[Packet] = None
        self._wire: Deque[Packet] = deque()
        # Pre-bound event callbacks: binding a method per schedule costs
        # an allocation on every packet-hop; these two never change.
        self._complete_cb: Callback = self._complete_tx
        self._deliver_cb: Callback = self._deliver_next

    # ------------------------------------------------------------------
    # Enqueue / PFC
    # ------------------------------------------------------------------
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
    def set_link_state(self, up: bool) -> None:
        """Bring the physical link up or down.

        A down link transmits nothing; queued packets stay queued (they
        drain if the link recovers — :meth:`SimNetwork.fail_link`
        discards them on failure instead).
        """
        self.link_up = up
        if up:
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
        # Simulator.schedule, inlined (the delay is always positive).
        wsim = self.sim
        time = wsim.now + packet.size * 8.0 / self._bw
        due = wsim._due.get(time)
        if due is None:
            wsim._due[time] = [self._complete_cb]
            heappush(wsim._times, time)
        else:
            due.append(self._complete_cb)

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
        # Simulator.schedule, inlined.
        wsim = self.sim
        time = wsim.now + self._prop
        due = wsim._due.get(time)
        if due is None:
            wsim._due[time] = [self._deliver_cb]
            heappush(wsim._times, time)
        else:
            due.append(self._deliver_cb)
        self._try_send()

    def _deliver_next(self) -> None:
        self._recv_fn(self._wire.popleft(), self._recv_port)

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
