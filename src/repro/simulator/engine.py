"""Discrete-event simulation core.

Events run in time order, and events due at the same instant run in the
order they were scheduled, so every run is deterministic. Packet traffic
puts many events on one exact float time (the same serialization or
propagation delay added to the same ``now``), so :class:`Simulator`
keeps a heap of *distinct* pending times and a callback list per time:
an event costs a list append and a call, only a new time a heap push.

All simulator components of one fabric share one engine instance.
``tests/simulator/reference_stack.py`` keeps a ``(time, seq, callback)``
tuple heap with the same ordering contract to diff this one against.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from repro.exceptions import SimulationError

Callback = Callable[[], None]

_INF = float("inf")


class Simulator:
    """The event loop: a clock, a heap of distinct times, a list per time.

    ``_due[t]`` holds the callbacks due at ``t`` in schedule order and
    ``_times`` holds each key of ``_due`` once. :meth:`run` drains a
    time's list in place, so a callback scheduled at ``now`` from inside
    the drain runs after every callback already due then.
    """

    # Slotted: the run loop touches engine state on every event.
    __slots__ = ("now", "_times", "_due", "_events_run")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._times: List[float] = []
        self._due: Dict[float, List[Callback]] = {}
        self._events_run = 0

    def schedule(self, delay: float, callback: Callback) -> None:
        """Run ``callback`` ``delay`` seconds from now (finite, ``>= 0``)."""
        # ``at`` written out: the hottest call in the simulator after TxPort's.
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and >= 0: {delay}")
        time = self.now + delay
        due = self._due.get(time)
        if due is None:
            self._due[time] = [callback]
            heappush(self._times, time)
        else:
            due.append(callback)

    def at(self, time: float, callback: Callback) -> None:
        """Run ``callback`` at absolute ``time`` (finite, ``>= now``)."""
        if not self.now <= time < _INF:
            raise SimulationError(f"cannot schedule at {time}: before {self.now} or not finite")
        due = self._due.get(time)
        if due is None:
            self._due[time] = [callback]
            heappush(self._times, time)
        else:
            due.append(callback)

    def run(self, until: Optional[float] = None) -> int:
        """Run every event due at or before ``until`` (all, if ``None``).

        Returns the number of events run. The clock is left at ``until``
        unless it is already past it.
        """
        if until is not None and not -_INF < until < _INF:
            raise SimulationError(f"run horizon must be finite: {until}")
        horizon = _INF if until is None else until
        times, due = self._times, self._due
        start = er = self._events_run
        while times and times[0] <= horizon:
            time = times[0]
            self.now = time
            for callback in due[time]:
                callback()
                er += 1
                self._events_run = er
            del due[time]
            heappop(times)
        if self.now < horizon < _INF:
            self.now = horizon
        return er - start

    @property
    def pending_events(self) -> int:
        """Events scheduled and not yet run (read between runs)."""
        return sum(map(len, self._due.values()))

    @property
    def total_events_run(self) -> int:
        return self._events_run
