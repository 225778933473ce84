"""Tests for the discrete-event engine and its heap reference.

The scheduling contract — ``(time, seq)`` order, FIFO ties, run control —
is parametrized over the production event wheel (``Simulator``) and the
binary-heap reference the equivalence suite compares it with
(``reference_stack.ReferenceSimulator``); wheel-only mechanics (ring
bucketing, overflow migration, geometry validation) and the explicit
per-instance sequence state get their own classes. Full-fabric byte
identity lives in ``test_engine_equivalence.py``.
"""

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

    def test_max_events(self, sim):
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending_events == 6

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
    """The tie-break counter is explicit per-instance state.

    Regression for the module-level ``itertools.count`` it replaced:
    with shared state, merely *constructing* a second fabric perturbed
    the first one's same-time event ordering, which no differential
    suite can tolerate.
    """

    def test_seq_starts_at_zero_and_counts_schedules(self):
        for engine_cls in ENGINES.values():
            sim = engine_cls()
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
        assert a._seq == 7
        assert b._seq == 3
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
    def test_far_future_events_take_the_overflow_heap(self):
        sim = Simulator(resolution=1.0, slots=4)
        log = []
        sim.schedule(100.0, lambda: log.append("far"))
        sim.schedule(2.5, lambda: log.append("ring"))
        sim.schedule(0.25, lambda: log.append("near"))
        assert len(sim._overflow) == 1
        assert sim._ring_count == 1
        assert sim.pending_events == 3
        sim.run()
        assert log == ["near", "ring", "far"]
        assert sim.now == 100.0

    def test_overflow_migrates_in_time_order(self):
        """Overflow events interleave correctly with ring events as the
        horizon advances past them."""
        sim = Simulator(resolution=1.0, slots=2)
        log = []
        times = [9.0, 3.0, 6.5, 1.5, 6.25, 20.0, 0.5]
        for t in times:
            sim.schedule(t, lambda at=t: log.append(at))
        sim.run()
        assert log == sorted(times)

    def test_same_slot_many_laps_apart(self):
        """Times congruent modulo the ring size must not collide."""
        sim = Simulator(resolution=1.0, slots=4)
        log = []
        for t in (1.5, 5.5, 9.5, 13.5):  # all slot 1 modulo 4 laps
            sim.schedule(t, lambda at=t: log.append(at))
        sim.run()
        assert log == [1.5, 5.5, 9.5, 13.5]

    def test_schedule_into_active_slot_during_run(self):
        """A zero-ish delay inside a callback lands in the live heap."""
        sim = Simulator(resolution=1.0, slots=4)
        log = []

        def first():
            log.append("first")
            sim.schedule(0.0, lambda: log.append("again"))

        sim.schedule(1.2, first)
        sim.schedule(1.8, lambda: log.append("later-same-slot"))
        sim.run()
        assert log == ["first", "again", "later-same-slot"]

    def test_until_parks_clock_between_slots(self):
        sim = Simulator(resolution=1.0, slots=4)
        sim.schedule(0.5, lambda: None)
        sim.schedule(50.0, lambda: None)  # overflow
        sim.run(until=10.0)
        assert sim.now == 10.0
        assert sim.pending_events == 1
        sim.run()
        assert sim.now == 50.0
        assert sim.pending_events == 0

    def test_geometry_validation(self):
        with pytest.raises(SimulationError):
            Simulator(resolution=0.0)
        with pytest.raises(SimulationError):
            Simulator(resolution=-1e-6)
        with pytest.raises(SimulationError):
            Simulator(slots=1)


class TestDifferential:
    """Seeded random schedules run identically on both engines.

    The heavier Hypothesis-driven property (including full fabrics)
    lives in ``test_engine_equivalence.py``; this is the cheap smoke
    version exercising cross-lap and overflow traffic.
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
                for _ in range(rng.randrange(0, 3)):
                    # Mix sub-resolution, in-ring, and far-overflow
                    # delays (wheel default: 1 us slots, ~4 ms horizon).
                    delay = rng.choice([1e-7, 1e-6, 3e-4, 2e-2])
                    if counter[0] < 400:
                        engine.schedule(delay * rng.randrange(1, 9), fire)

            for _ in range(10):
                engine.schedule(rng.random() * 0.01, fire)
            engine.run()
            return log, engine.now, engine.total_events_run

        assert execute(ReferenceSimulator()) == execute(Simulator())
