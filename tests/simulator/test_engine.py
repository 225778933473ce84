"""Tests for the discrete-event engine and its heap reference.

The scheduling contract — time order, FIFO ties, run control — is
parametrized over the production engine (``Simulator``, a heap of
distinct times with a callback list per time; test id ``wheel``, kept
from its calendar-queue days so test ids stay stable) and the
``(time, seq)`` tuple heap the equivalence suite compares it with
(``reference_stack.ReferenceSimulator``, id ``heap``). Only the
reference offers ``max_events`` and ``stop``, and only the production
engine refuses non-finite times.
Full-fabric byte identity lives in ``test_engine_equivalence.py``.
"""

import math
import random

import pytest

from repro.exceptions import SimulationError
from repro.simulator import Simulator

from .reference_stack import ReferenceSimulator

ENGINES = {"heap": ReferenceSimulator, "wheel": Simulator}


@pytest.fixture(params=sorted(ENGINES))
def sim(request):
    """One engine of each implementation; every contract test runs both."""
    return ENGINES[request.param]()


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_break_fifo(self, sim):
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(1.0, lambda: None)

    def test_nested_scheduling(self, sim):
        log = []

        def outer():
            log.append(sim.now)
            sim.schedule(1.0, lambda: log.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [1.0, 2.0]


class TestRunControl:
    def test_until_leaves_future_events(self, sim):
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        processed = sim.run(until=2.0)
        assert processed == 1
        assert log == [1]
        assert sim.now == 2.0
        assert sim.pending_events == 1
        sim.run()
        assert log == [1, 5]
        assert sim.now == 5.0
        assert sim.pending_events == 0

    @pytest.mark.parametrize("sim", [ReferenceSimulator()], ids=["heap"])
    def test_max_events(self, sim):
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending_events == 6

    @pytest.mark.parametrize("sim", [ReferenceSimulator()], ids=["heap"])
    def test_stop(self, sim):
        log = []
        sim.schedule(1.0, lambda: (log.append(1), sim.stop()))
        sim.schedule(2.0, lambda: log.append(2))
        sim.run()
        assert log == [1]

    def test_clock_advances_to_until_when_idle(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_total_events_counter(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.total_events_run == 1


class TestSequenceState:
    """Tie-break state is per instance.

    Regression for a module-level ``itertools.count`` the engine once
    used: with shared state, merely *constructing* a second fabric
    perturbed the first one's same-time event ordering, which no
    differential suite can tolerate.
    """

    def test_seq_starts_at_zero_and_counts_schedules(self):
        sim = ReferenceSimulator()
        assert sim._seq == 0
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim._seq == 5

    def test_instances_do_not_share_sequence_state(self):
        a, b = Simulator(), Simulator()
        for _ in range(7):
            a.schedule(1.0, lambda: None)
        log = []
        for name in "xyz":
            b.schedule(2.0, lambda n=name: log.append(n))
        assert a.pending_events == 7
        assert b.pending_events == 3
        b.run()
        assert log == ["x", "y", "z"]

    def test_interleaved_engines_keep_independent_tie_order(self):
        """Schedule round-robin into two engines; each sees clean FIFO."""
        heap, wheel = ReferenceSimulator(), Simulator()
        log_h, log_w = [], []
        for i in range(6):
            heap.schedule(1.0, lambda n=i: log_h.append(n))
            wheel.schedule(1.0, lambda n=i: log_w.append(n))
        heap.run()
        wheel.run()
        assert log_h == list(range(6))
        assert log_w == list(range(6))

    def test_same_time_order_mixes_pre_scheduled_and_nested(self, sim):
        """Events landing on an already-populated timestamp run after
        the earlier arrivals — including ones scheduled from inside a
        callback at the same instant."""
        log = []
        sim.schedule(1.0, lambda: log.append("first"))

        def spawner():
            log.append("spawner")
            sim.schedule(0.0, lambda: log.append("nested"))

        sim.schedule(1.0, spawner)
        sim.schedule(1.0, lambda: log.append("last"))
        sim.run()
        assert log == ["first", "spawner", "last", "nested"]


class TestWheelMechanics:
    """Production-engine run control; the class keeps its calendar-queue
    name so test ids stay stable."""

    def test_until_parks_clock_between_slots(self):
        """A horizon between two populated times parks the clock on the
        horizon, leaves the later time pending, and a full run then moves
        the clock to that later time."""
        sim = Simulator()
        log = []
        sim.schedule(0.5, lambda: log.append(sim.now))
        sim.schedule(50.0, lambda: log.append(sim.now))
        assert sim.run(until=10.0) == 1
        assert sim.now == 10.0
        assert sim.pending_events == 1
        sim.schedule(1.0, lambda: log.append(sim.now))  # lands at 11.0
        assert sim.run() == 2
        assert log == [0.5, 11.0, 50.0]
        assert sim.now == 50.0
        assert sim.pending_events == 0


class TestNonFiniteTimes:
    """A NaN or infinite time is refused before it reaches the queue: a
    NaN key compares false with everything and would silently misorder
    the heap of times."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_schedule_at_and_run_refuse_non_finite(self, bad):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.at(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(until=bad)
        assert sim.pending_events == 1
        assert sim.now == 0.0
        assert sim.run() == 1


#: Dyadic delays sum exactly in binary floating point, so many callbacks
#: land on one float time, including ``now`` itself.
DYADIC_DELAYS = (0.0, 0.25, 0.5, 1.0)


class TestDifferential:
    """Seeded random schedules run identically on both engines.

    Delays are dyadic, so same-time ties are the common case: callbacks
    pile onto one time from outside and from inside its own drain
    (delay 0), ``at`` and ``schedule`` mix, and the run is cut into
    ``run(until=t)`` slices whose ``t`` is a multiple of 0.25, so a
    slice often ends exactly on a populated time. The heavier
    Hypothesis-driven property (including full fabrics) lives in
    ``test_engine_equivalence.py``.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_program_equivalence(self, seed):
        def execute(engine):
            rng = random.Random(seed)
            log = []
            counter = [0]

            def fire():
                token = counter[0]
                counter[0] += 1
                log.append((engine.now, token))
                for _ in range(rng.randrange(0, 4)):
                    if counter[0] >= 400:
                        break
                    delay = rng.choice(DYADIC_DELAYS)
                    if rng.random() < 0.25:
                        engine.at(engine.now + delay, fire)
                    else:
                        engine.schedule(delay, fire)

            for _ in range(10):
                engine.schedule(rng.choice(DYADIC_DELAYS), fire)
            slices = []
            while engine.pending_events:
                until = engine.now + rng.choice(DYADIC_DELAYS[1:])
                ran = engine.run(until=until)
                slices.append((ran, engine.now, engine.pending_events))
            return log, slices, engine.now, engine.total_events_run

        reference = execute(ReferenceSimulator())
        assert len(reference[0]) > 100
        assert reference == execute(Simulator())
