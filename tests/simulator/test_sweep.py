"""Tests for the seeded multiprocessing scenario-sweep runner.

The contract under test: results are a pure function of the task list —
independent of worker count, dispatch seed and scheduling — and worker
failure (raise *or* hard death) surfaces as a structured per-task error
instead of a hang or a crashed campaign.
"""

import multiprocessing
import os
import threading

import pytest

from repro.simulator import sweep
from repro.simulator.sweep import (
    WORKER_CRASH,
    WORKER_ERROR,
    SweepResult,
    run_sweep,
)

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not _HAS_FORK, reason="platform has no fork start method"
)


# Workers must be module-level (they cross the fork boundary).
def _square(task):
    return task * task


def _fail_on_odd(task):
    if task % 2:
        raise ValueError(f"odd task {task}")
    return task


def _die_on_marker(task):
    if task == "die":
        os._exit(3)  # hard death: no exception, no cleanup
    return task.upper()


def _simulate_digest(seed):
    """A real (tiny) simulation per task: determinism end to end."""
    from repro.routing import shortest_path_tables
    from repro.simulator import Flow, SimNetwork
    from repro.topology import ClosParams, clos3

    topo = clos3(ClosParams(hosts_per_tor=1))
    net = SimNetwork(topo, shortest_path_tables(topo))
    hosts = sorted(topo.hosts)
    net.add_flow(Flow(src=hosts[0], dst=hosts[-1], flow_id=seed))
    net.run(0.01)
    stats = net.conservation_check()
    return (seed, stats["injected"], stats["delivered"], net.sim.now)


class TestSerialPath:
    def test_workers_one_runs_inline(self):
        results = run_sweep(_square, [1, 2, 3], workers=1)
        assert [r.value for r in results] == [1, 4, 9]
        assert all(r.ok for r in results)

    def test_single_task_stays_serial_even_with_workers(self):
        results = run_sweep(_square, [5], workers=8)
        assert results == [SweepResult(index=0, ok=True, value=25)]

    def test_serial_exception_is_structured(self):
        results = run_sweep(_fail_on_odd, [0, 1, 2], workers=1)
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].error_kind == WORKER_ERROR
        assert "odd task 1" in results[1].error

    def test_empty_tasks(self):
        assert run_sweep(_square, [], workers=4) == []


@needs_fork
class TestParallelDeterminism:
    def test_results_identical_across_worker_counts(self):
        tasks = list(range(12))
        expected = run_sweep(_square, tasks, workers=1)
        for workers in (2, 8):
            assert run_sweep(_square, tasks, workers=workers) == expected

    def test_seed_shuffles_dispatch_not_results(self):
        tasks = list(range(10))
        baseline = run_sweep(_square, tasks, workers=4, seed=0)
        for seed in (1, 7, 12345):
            assert run_sweep(_square, tasks, workers=4, seed=seed) == baseline

    def test_pool_is_forked_with_no_extra_thread_alive(self, monkeypatch):
        """Forking while another thread runs can leave a worker blocked on
        a lock that thread held; nothing in a test run would show it.
        run_sweep must start no thread before it builds its fork pool."""
        before = set(threading.enumerate())
        started_before_fork = []

        class WatchedPool(sweep.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started_before_fork.append(set(threading.enumerate()) - before)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", WatchedPool)
        results = run_sweep(_square, [1, 2], workers=2)
        assert [r.value for r in results] == [1, 4]
        assert started_before_fork == [set()]

    def test_results_come_back_in_task_order(self):
        tasks = list(range(9))
        results = run_sweep(_square, tasks, workers=3)
        assert [r.index for r in results] == tasks
        assert [r.value for r in results] == [t * t for t in tasks]

    def test_simulation_tasks_identical_serial_vs_parallel(self):
        seeds = [11, 22, 33, 44]
        serial = run_sweep(_simulate_digest, seeds, workers=1)
        parallel = run_sweep(_simulate_digest, seeds, workers=4)
        assert parallel == serial


@needs_fork
class TestStructuredFailure:
    def test_worker_exception_fails_only_its_task(self):
        results = run_sweep(_fail_on_odd, [0, 1, 2, 3], workers=2)
        assert [r.ok for r in results] == [True, False, True, False]
        for bad in (results[1], results[3]):
            assert bad.error_kind == WORKER_ERROR
            assert bad.value is None
        assert [results[0].value, results[2].value] == [0, 2]

    def test_worker_death_surfaces_as_crash_not_hang(self):
        """A worker hard-dying (os._exit) must fail its task with a
        ``worker-crash`` error and still return a result per task."""
        tasks = ["a", "die", "b", "c"]
        results = run_sweep(_die_on_marker, tasks, workers=2)
        assert len(results) == len(tasks)
        assert [r.index for r in results] == [0, 1, 2, 3]
        crashed = [r for r in results if not r.ok]
        assert crashed, "the dead worker's task must fail"
        assert all(r.error_kind == WORKER_CRASH for r in crashed)
        # Tasks that did complete report real values.
        for result in results:
            if result.ok:
                assert result.value == tasks[result.index].upper()
