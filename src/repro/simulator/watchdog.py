"""PFC watchdog — the mitigation production fabrics actually deploy.

Switch vendors ship a *PFC storm watchdog*: per egress queue, if the
queue has been continuously paused (and non-empty) longer than a
detection window, the switch assumes a pause storm or deadlock and starts
discarding that queue's packets until the pause clears. It needs no
global view — and that is also its weakness: it cannot tell a deadlock
from an innocent long pause (e.g. a slow receiver NIC), so it destroys
lossless traffic in situations Tagger rides through unharmed.

Like :class:`~repro.simulator.recovery.DeadlockBreaker`, this is a
baseline for comparison, not part of Tagger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.pipeline import LOSSY_QUEUE
from repro.obs.events import EV_SIM_WATCHDOG
from repro.obs.instrument import sim_metric_handles

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.detect.arbiter import RecoveryArbiter
    from repro.simulator.network import SimNetwork

#: Owner name the watchdog uses when an arbiter mediates recovery.
WATCHDOG_OWNER = "watchdog"

#: Drop reason recorded for packets discarded by the watchdog.
DROP_WATCHDOG = "pfc_watchdog"

QueueKey = Tuple[str, int, int]  # (switch, out_port, queue)


@dataclass(frozen=True)
class StormEvent:
    """One watchdog trigger."""

    time: float
    switch: str
    port: int
    queue: int
    packets_dropped: int


@dataclass
class PfcWatchdog:
    """Per-queue pause-storm watchdog.

    Attributes:
        net: The fabric to monitor.
        detection_time: Continuous paused-and-backlogged duration that
            triggers the watchdog for a queue.
        poll: Scan period.
        rearm_base: Hold-off before a queue whose storm episode just
            ended may trigger again. ``0.0`` (default) re-arms
            immediately — the historical behavior. Each further episode
            on the same queue multiplies the hold-off by
            ``rearm_multiplier`` (capped at ``rearm_max``), so a queue
            that storms over and over backs off instead of re-triggering
            every poll tick.
        arbiter: Optional single-recovery-owner arbiter shared with the
            detector-driven quarantine
            (:class:`repro.detect.RecoveryArbiter`). When set, the
            watchdog only discards a queue it can acquire, and holds
            ownership for the storm episode — so a queue the detector
            already quarantined is never double-demoted, and vice versa.
        events: Log of storms (first trigger per episode; while an
            episode persists, subsequent drained packets are added to
            drops but not logged as new events).
    """

    net: "SimNetwork"
    detection_time: float = 0.02
    poll: float = 0.005
    rearm_base: float = 0.0
    rearm_multiplier: float = 2.0
    rearm_max: float = 1.0
    arbiter: Optional["RecoveryArbiter"] = None
    arbitration_skips: int = 0
    events: List[StormEvent] = field(default_factory=list)
    _stalled_since: Dict[QueueKey, float] = field(default_factory=dict)
    _storming: Dict[QueueKey, bool] = field(default_factory=dict)
    _episodes: Dict[QueueKey, int] = field(default_factory=dict)
    _rearm_until: Dict[QueueKey, float] = field(default_factory=dict)
    _installed: bool = False

    def install(self) -> None:
        if self._installed:
            return
        self._installed = True
        self.net.sim.schedule(self.poll, self._tick)

    def rearm_delay(self, episode: int) -> float:
        """Hold-off after the ``episode``-th completed storm (1-based)."""
        if self.rearm_base <= 0.0 or episode < 1:
            return 0.0
        return min(
            self.rearm_max,
            self.rearm_base * (self.rearm_multiplier ** (episode - 1)),
        )

    def _tick(self) -> None:
        now = self.net.sim.now
        for switch_name, switch in self.net.switches.items():
            for port, tx in switch.tx_ports.items():
                for queue in list(tx.queues):
                    if queue == LOSSY_QUEUE:
                        continue
                    key = (switch_name, port, queue)
                    if not tx.pause.is_paused(queue):
                        if self._storming.pop(key, None):
                            # Episode over: schedule the re-arm hold-off.
                            count = self._episodes.get(key, 0) + 1
                            self._episodes[key] = count
                            self._rearm_until[key] = now + self.rearm_delay(
                                count
                            )
                            if self.arbiter is not None:
                                self.arbiter.release(
                                    switch_name, queue, WATCHDOG_OWNER
                                )
                        continue
                    if now < self._rearm_until.get(key, 0.0):
                        continue
                    # True continuous pause duration, not poll sampling:
                    # ordinary congestion toggles pause every few hundred
                    # microseconds and never accumulates a long episode.
                    if tx.paused_duration(queue) < self.detection_time:
                        continue
                    if tx.depth(queue) == 0:
                        continue
                    if self.arbiter is not None and not self.arbiter.acquire(
                        switch_name, queue, WATCHDOG_OWNER
                    ):
                        # Another recovery (detector quarantine) owns
                        # this queue: skip, don't double-demote.
                        self.arbitration_skips += 1
                        continue
                    dropped = self.net.drain_egress_queue(
                        switch_name, port, queue, DROP_WATCHDOG
                    )
                    if dropped and not self._storming.get(key, False):
                        self._storming[key] = True
                        self.events.append(
                            StormEvent(
                                time=now,
                                switch=switch_name,
                                port=port,
                                queue=queue,
                                packets_dropped=dropped,
                            )
                        )
                        telemetry = self.net.telemetry
                        if telemetry is not None:
                            telemetry.emit(
                                EV_SIM_WATCHDOG,
                                time=now,
                                switch=switch_name,
                                port=port,
                                queue=queue,
                                dropped=dropped,
                            )
                            sim_metric_handles(telemetry.registry)[
                                "watchdog"
                            ].inc()
        self.net.sim.schedule(self.poll, self._tick)

    @property
    def storms(self) -> int:
        return len(self.events)

    @property
    def total_dropped(self) -> int:
        return self.net.metrics.drops.get(DROP_WATCHDOG, 0)
