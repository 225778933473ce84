"""Priority Flow Control state machines.

Two small pieces:

- :class:`PauseState` — per egress port, which priority queues are
  currently paused by the downstream neighbor (set on PAUSE, cleared on
  RESUME).
- :class:`PfcLog` — a counter/log of PFC frames for metrics and for the
  runtime deadlock detector (a deadlocked fabric shows sustained pause
  with zero drain).

PFC frames carry a priority; per the standard, each priority is paused
independently. Queue 0 (lossy) never participates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.pipeline import LOSSY_QUEUE
from repro.obs.events import EV_SIM_PAUSE, EV_SIM_RESUME

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import Telemetry


@dataclass
class PauseState:
    """Pause flags for one egress port (keyed by priority queue index)."""

    paused: Set[int] = field(default_factory=set)

    def pause(self, queue: int) -> None:
        if queue != LOSSY_QUEUE:
            self.paused.add(queue)

    def resume(self, queue: int) -> None:
        self.paused.discard(queue)

    def is_paused(self, queue: int) -> bool:
        return queue in self.paused

    def any_paused(self) -> bool:
        return bool(self.paused)


@dataclass(frozen=True)
class PfcEvent:
    """One PAUSE or RESUME frame observed on a link."""

    time: float
    sender: str       # node that generated the frame (congested receiver)
    receiver: str     # upstream node being paused/resumed
    queue: int
    pause: bool       # True = PAUSE, False = RESUME


@dataclass
class PfcLog:
    """Accumulates PFC frames; queryable per link and per queue."""

    events: List[PfcEvent] = field(default_factory=list)
    #: The attached bus's ``emit`` (None when detached).
    _emit: Optional[Callable[..., Any]] = field(default=None, repr=False)
    # Incremental tallies: pause_count/resume_count are polled per tick
    # by the watchdog and the runtime detector, which made the O(events)
    # scans a measurable cost on long pause storms.
    _pauses: int = field(default=0, repr=False)
    _resumes: int = field(default=0, repr=False)

    def attach_telemetry(self, telemetry: Optional["Telemetry"]) -> None:
        """Mirror every future frame onto the bus (pure observer).

        ``record`` is the single choke point all PFC frames pass through
        (``SimNetwork.send_pfc`` routes here), which is what makes the
        bus-side pause/resume counts reconcile exactly with
        :attr:`pause_count`/:attr:`resume_count`. The registry's
        ``sim_pfc_frames_total`` is folded from those two tallies by
        :meth:`~repro.simulator.metrics.MetricsRecorder.publish`.
        """
        self._emit = None if telemetry is None else telemetry.bus.emit

    def record(
        self, time: float, sender: str, receiver: str, queue: int, pause: bool
    ) -> None:
        self.events.append(PfcEvent(time, sender, receiver, queue, pause))
        if pause:
            self._pauses += 1
        else:
            self._resumes += 1
        emit = self._emit
        if emit is not None:
            emit(
                time,
                EV_SIM_PAUSE if pause else EV_SIM_RESUME,
                sender=sender,
                receiver=receiver,
                queue=queue,
            )

    @property
    def pause_count(self) -> int:
        return self._pauses

    @property
    def resume_count(self) -> int:
        return self._resumes

    def pauses_by_link(self) -> Dict[Tuple[str, str], int]:
        out: Dict[Tuple[str, str], int] = {}
        for event in self.events:
            if event.pause:
                key = (event.sender, event.receiver)
                out[key] = out.get(key, 0) + 1
        return out

    def pauses_since(self, time: float) -> int:
        return sum(1 for e in self.events if e.pause and e.time >= time)
