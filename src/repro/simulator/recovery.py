"""Detect-and-break deadlock recovery — the baseline Tagger argues against.

The paper's related work splits deadlock handling into two camps (§1):
*detection* schemes that watch for a formed deadlock and break it (e.g.
by resetting or draining a victim queue), and *prevention* schemes like
Tagger. The criticism of the first camp: "these solutions do not address
the root cause of the problem, and hence cannot guarantee that the
deadlock would not immediately reappear" — and breaking a deadlock means
destroying lossless packets.

:class:`DeadlockBreaker` implements a competent member of that camp so
the claim can be measured: it polls the runtime wait-for graph and, on
finding a cycle, force-drains one victim egress queue (dropping its
packets, releasing their PFC accounts, letting the fabric resume).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple, TYPE_CHECKING

from repro.obs.events import EV_SIM_DEADLOCK
from repro.obs.instrument import sim_metric_handles
from repro.simulator.deadlock import WaitNode, find_deadlock_cycle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.network import SimNetwork

#: Drop reason recorded for packets destroyed while breaking a deadlock.
DROP_DEADLOCK_RESET = "deadlock_reset"


@dataclass
class RecoveryEvent:
    """One detected-and-broken deadlock."""

    time: float
    cycle: Tuple[WaitNode, ...]
    victim: WaitNode
    packets_dropped: int


@dataclass
class DeadlockBreaker:
    """Periodic wait-for-graph scan + victim-queue drain.

    Attributes:
        net: The fabric to protect.
        period: Poll interval in seconds. Real detectors key off pause
            storm duration / queue stall counters; polling the exact
            wait-for graph is *generous* to the baseline (zero false
            negatives, instant detection at poll granularity).
        events: Log of recoveries performed.
    """

    net: "SimNetwork"
    period: float = 0.01
    events: List[RecoveryEvent] = field(default_factory=list)
    _installed: bool = False

    def install(self) -> None:
        """Start polling. Call once, before or during the run."""
        if self._installed:
            return
        self._installed = True
        self.net.sim.schedule(self.period, self._tick)

    def _tick(self) -> None:
        cycle = find_deadlock_cycle(self.net)
        if cycle is not None:
            victim = min(cycle)  # deterministic choice
            dropped = self.net.drain_egress_queue(*victim, DROP_DEADLOCK_RESET)
            self.events.append(
                RecoveryEvent(
                    time=self.net.sim.now,
                    cycle=tuple(cycle),
                    victim=victim,
                    packets_dropped=dropped,
                )
            )
            telemetry = self.net.telemetry
            if telemetry is not None:
                telemetry.emit(
                    EV_SIM_DEADLOCK,
                    time=self.net.sim.now,
                    switch=victim[0],
                    port=victim[1],
                    queue=victim[2],
                    dropped=dropped,
                )
                sim_metric_handles(telemetry.registry)["deadlocks"].inc()
        self.net.sim.schedule(self.period, self._tick)

    @property
    def detections(self) -> int:
        return len(self.events)

    @property
    def total_dropped(self) -> int:
        return sum(event.packets_dropped for event in self.events)
