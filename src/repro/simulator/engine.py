"""Discrete-event simulation core.

Events are ``(time, seq, callback)`` triples run in ``(time, seq)``
order, so same-time events run FIFO in schedule order and every run is
deterministic. :class:`Simulator` keeps them in a slotted event wheel
(calendar queue): near-future events land in a rotating ring of
per-slot buckets (append-only, no heap discipline until their slot
activates); far-future events overflow into a heap and migrate into the
ring as the horizon advances. Scheduling is O(1) for the common case
and the active-slot lists stay tiny, which is what the million-packet
pause-storm workloads need.

The sequence counter is explicit per-engine state (``self._seq``), not a
shared module-level iterator: two engines constructed in one process
schedule identically, which the differential suite
(``tests/simulator/test_engine_equivalence.py``) relies on when it runs
this engine and the binary-heap reference of
``tests/simulator/reference_stack.py`` side by side.

All simulator components of one fabric share one engine instance and
schedule work through it.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.exceptions import SimulationError

Callback = Callable[[], None]

#: One scheduled event. ``seq`` is unique per engine, so comparisons
#: never reach the (uncomparable) callback.
Event = Tuple[float, int, Callback]

#: Default wheel geometry: 1 us slots covering a ~4 ms rotating horizon.
#: PFC/propagation delays are a few microseconds and serialization a few
#: tens, so the active slot holds a handful of events; periodic pollers
#: (watchdog, detectors, samplers) land in the overflow heap and migrate
#: lazily.
WHEEL_RESOLUTION = 1e-6
WHEEL_SLOTS = 4096


class Simulator:
    """The event loop: a clock plus a calendar queue.

    Slot ``s`` covers absolute times ``[s * resolution, (s+1) *
    resolution)``; the ring holds slots ``(cur, cur + slots)``, the
    active slot's events live in a sorted list walked by a cursor, and
    everything beyond the horizon waits in an overflow heap. Bucketing
    uses ``int(time / resolution)``, which is monotone in ``time`` (IEEE
    division is correctly rounded, truncation is monotone for
    non-negatives), so bucket order can never contradict ``(time, seq)``
    order — the equivalence suite's byte-identity rests on that.

    The active slot is a *sorted list*, not a heap: slot loads sort once
    (same-time bursts arrive already in seq order, so timsort is
    near-linear) and each event is a list index instead of a
    ``heappop``; events scheduled into the live slot mid-run are
    ``insort``-ed past the cursor.
    """

    # Slots keep attribute access off the instance-dict path — the run
    # loop touches engine state on every one of the millions of events a
    # campaign dispatches.
    __slots__ = (
        "now", "_seq", "_events_run", "_stopped",
        "_res", "_nslots", "_ring", "_ring_count", "_cur_slot",
        "_active", "_active_pos", "_overflow", "_stop_stash",
        "_slot_heap",
    )

    def __init__(
        self,
        resolution: float = WHEEL_RESOLUTION,
        slots: int = WHEEL_SLOTS,
    ) -> None:
        if resolution <= 0:
            raise SimulationError(f"wheel resolution must be positive: {resolution}")
        if slots < 2:
            raise SimulationError(f"wheel needs at least 2 slots: {slots}")
        self.now: float = 0.0
        #: Explicit per-run tie-break state. Same-time events pop in the
        #: order they were scheduled; keeping the counter as plain
        #: instance state (rather than an opaque iterator) pins the fact
        #: that nothing outside this engine can perturb its ordering.
        self._seq: int = 0
        self._events_run = 0
        self._stopped = False
        self._res = resolution
        self._nslots = slots
        self._ring: List[List[Event]] = [[] for _ in range(slots)]
        self._ring_count = 0
        #: Min-heap of absolute slot numbers whose ring cell is
        #: non-empty (pushed on the empty-to-occupied transition, popped
        #: when the cell is drained). Lets the refill jump straight to
        #: the next occupied slot instead of scanning empty cells —
        #: sparse schedules (pause-storm incast) otherwise spend more
        #: time scanning than running events.
        self._slot_heap: List[int] = []
        self._cur_slot = 0
        self._active: List[Event] = []
        self._active_pos = 0
        self._overflow: List[Event] = []
        #: Events :meth:`stop` clipped off the active slot so the hot
        #: drain loop exhausts without a per-event halt check; restored
        #: (merge-sorted with any events scheduled meanwhile) before the
        #: next run or on exit.
        self._stop_stash: List[Event] = []

    def schedule(self, delay: float, callback: Callback) -> None:
        """Run ``callback`` ``delay`` seconds from now (``delay >= 0``)."""
        # ``at`` inlined: two schedules per packet-hop make this the
        # hottest call in the simulator, and the extra frame shows up in
        # million-packet runs.
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = (time, seq, callback)
        slot = int(time / self._res)
        cur = self._cur_slot
        if slot <= cur:
            insort(self._active, event, self._active_pos)
        elif slot < cur + self._nslots:
            cell = self._ring[slot % self._nslots]
            if not cell:
                heappush(self._slot_heap, slot)
            cell.append(event)
            self._ring_count += 1
        else:
            heappush(self._overflow, event)

    def at(self, time: float, callback: Callback) -> None:
        """Run ``callback`` at absolute ``time`` (``>= now``)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = (time, seq, callback)
        slot = int(time / self._res)
        cur = self._cur_slot
        if slot <= cur:
            insort(self._active, event, self._active_pos)
        elif slot < cur + self._nslots:
            cell = self._ring[slot % self._nslots]
            if not cell:
                heappush(self._slot_heap, slot)
            cell.append(event)
            self._ring_count += 1
        else:
            heappush(self._overflow, event)

    def _refill_active(self) -> bool:
        """Advance to the next occupied slot; load it into the active list.

        Returns False when no events remain anywhere.
        """
        if self._ring_count == 0 and not self._overflow:
            return False
        ring, nslots, res = self._ring, self._nslots, self._res
        slot_heap = self._slot_heap
        # The slot heap tracks every occupied ring cell, so the next
        # ring slot is its head — no empty-cell scan.
        ring_slot: Optional[int] = slot_heap[0] if self._ring_count else None
        overflow = self._overflow
        if overflow:
            over_slot: Optional[int] = int(overflow[0][0] / res)
        else:
            over_slot = None
        if over_slot is not None and (ring_slot is None or over_slot < ring_slot):
            new_cur = over_slot
        else:
            assert ring_slot is not None
            new_cur = ring_slot
        self._cur_slot = new_cur
        active: List[Event] = []
        # Migrate overflow events the advanced horizon now covers.
        if overflow:
            horizon_time = (new_cur + nslots) * res
            while overflow and overflow[0][0] < horizon_time:
                event = heappop(overflow)
                slot = int(event[0] / res)
                if slot <= new_cur:
                    active.append(event)
                else:
                    cell = ring[slot % nslots]
                    if not cell:
                        heappush(slot_heap, slot)
                    cell.append(event)
                    self._ring_count += 1
        # Gather the chosen slot plus nearby occupied slots into one
        # active list: a single sort amortizes over more events and the
        # drain loop restarts less often. Safe because every occupied
        # cell at or below the advanced cursor is drained right here
        # (so a ring cell a future schedule() call may reuse is always
        # empty), and the overflow heap only holds events beyond the
        # pre-batch horizon, so nothing can sort ahead of a gathered
        # slot.
        limit = new_cur + 64
        while slot_heap and slot_heap[0] <= limit and len(active) < 128:
            gathered = heappop(slot_heap)
            bucket = ring[gathered % nslots]
            active.extend(bucket)
            self._ring_count -= len(bucket)
            del bucket[:]
            new_cur = gathered
        if new_cur > self._cur_slot:
            self._cur_slot = new_cur
        active.sort()
        self._active = active
        self._active_pos = 0
        return bool(active) or self._refill_active()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the horizon / event budget / empty queue.

        Returns the number of events processed in this call. The clock is
        left at ``until`` (if given and reached) or at the last event time.
        """
        start_events = self._events_run
        self._stopped = False
        if self._stop_stash:
            self._restore_stash()
        res = self._res
        done = False
        while not done:
            if self._stopped:
                break
            active = self._active
            pos = self._active_pos
            if pos >= len(active):
                if not self._refill_active():
                    break
                active = self._active
                pos = 0
            if max_events is None and (
                until is None or (self._cur_slot + 2) * res <= until
            ):
                # Hot drain: every event left in this slot runs (slot
                # times are below ``(cur+1) * res``, a whole slot under
                # the horizon — the +2 absorbs float rounding). The
                # C-level list iterator sees events ``insort``-ed into
                # the live slot mid-drain (they land past the cursor,
                # since their time is >= now), and :meth:`stop` clips
                # the tail so the iterator exhausts — so the loop body
                # carries no halt/horizon/budget checks at all.
                it = iter(active)
                for _ in range(pos):
                    next(it)
                er = self._events_run
                for event in it:
                    pos += 1
                    # Cursor stays honest before each callback: nested
                    # same-slot schedules insort past this position.
                    self._active_pos = pos
                    self.now = event[0]
                    event[2]()
                    er += 1
                    self._events_run = er
                continue
            # Careful drain: the horizon lies inside (or within float
            # rounding of) this slot, or an event budget applies.
            size = len(active)
            er = self._events_run
            while pos < size:
                event = active[pos]
                time = event[0]
                if until is not None and time > until:
                    done = True
                    break
                pos += 1
                self._active_pos = pos
                self.now = time
                event[2]()
                size = len(active)
                er += 1
                self._events_run = er
                if self._stopped:
                    break
                if (
                    max_events is not None
                    and er - start_events >= max_events
                ):
                    done = True
                    break
        if self._stop_stash:
            self._restore_stash()
        if until is not None:
            if self._active_pos >= len(self._active) and not self._refill_active():
                if self.now < until:
                    self.now = until
            elif self._active[self._active_pos][0] > until:
                self.now = until
        return self._events_run - start_events

    def stop(self) -> None:
        """Abort :meth:`run` after the current event.

        Clips the unconsumed tail of the active slot into a stash so the
        hot drain loop (which carries no per-event halt check) exhausts
        naturally; the stash is merged back before the run returns.
        """
        self._stopped = True
        active = self._active
        pos = self._active_pos
        if pos < len(active):
            self._stop_stash.extend(active[pos:])
            del active[pos:]

    def _restore_stash(self) -> None:
        """Merge stop-clipped events back into the active slot."""
        stash = self._stop_stash
        self._stop_stash = []
        active = self._active
        pos = self._active_pos
        active.extend(stash)
        # Events scheduled while clipped insorted into the shortened
        # list; one tail sort restores global (time, seq) order.
        tail = active[pos:]
        tail.sort()
        active[pos:] = tail

    @property
    def pending_events(self) -> int:
        return (
            len(self._active)
            - self._active_pos
            + len(self._stop_stash)
            + self._ring_count
            + len(self._overflow)
        )


    @property
    def total_events_run(self) -> int:
        return self._events_run
