"""Seeded multiprocessing scenario-sweep runner.

Fuzz, chaos and detection campaigns are embarrassingly parallel at the
scenario granularity: each scenario builds its own fabric, runs its own
simulation and produces a self-contained result. :func:`run_sweep` fans
a batch of such tasks across a forked worker pool under this
discipline:

- **serial-identical results** — results come back indexed by task
  position, so the caller folds them in submission order and the
  aggregate is a pure function of the task list, independent of worker
  count and scheduling (pinned by ``tests/simulator/test_sweep.py``);
- **seeded dispatch only** — the optional seed shuffles which worker
  draws which task first (load balancing); it cannot change any result;
- **fork start method only** — workers inherit the parent image, so
  module state (plans, caches) is shared copy-on-write and worker
  functions must be module-level (fork-safety is FRK-certified by the
  repo self-check). Platforms without ``fork`` degrade to the serial
  path, same results;
- **structured failure, no hangs** — a worker that raises returns an
  error result for its task; a worker that *dies* (hard crash, OOM
  kill) fails its task and every task still pending with a
  ``worker-crash`` error instead of wedging the campaign.
"""

from __future__ import annotations

import multiprocessing
import random
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: A sweep worker: module-level callable taking one task, returning a
#: picklable result.
SweepFn = Callable[[Any], Any]

#: Error kind reported when the worker process died mid-task.
WORKER_CRASH = "worker-crash"
#: Error kind reported when the worker raised an exception.
WORKER_ERROR = "worker-error"


@dataclass
class SweepResult:
    """Outcome of one task: a value, or a structured error."""

    index: int
    ok: bool
    value: Any = None
    error: Optional[str] = None
    error_kind: Optional[str] = None


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _invoke(payload: Tuple[SweepFn, Any]) -> Any:
    """Run one task in the worker (module-level: pool-submittable)."""
    fn, task = payload
    return fn(task)


def _run_serial(fn: SweepFn, tasks: Sequence[Any]) -> List[SweepResult]:
    results: List[SweepResult] = []
    for index, task in enumerate(tasks):
        try:
            results.append(SweepResult(index=index, ok=True, value=fn(task)))
        except Exception as exc:  # noqa: BLE001 - structured per-task failure
            results.append(
                SweepResult(
                    index=index,
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    error_kind=WORKER_ERROR,
                )
            )
    return results


def run_sweep(
    fn: SweepFn,
    tasks: Sequence[Any],
    workers: int = 1,
    seed: int = 0,
) -> List[SweepResult]:
    """Run ``fn`` over ``tasks``; results ordered by task index.

    ``fn`` must be a module-level function and each task/result must be
    picklable (the tasks cross the fork boundary). ``workers <= 1`` — or
    a platform without the ``fork`` start method — runs inline with
    byte-identical results.
    """
    context = _fork_context() if workers > 1 else None
    if context is None or workers <= 1 or len(tasks) <= 1:
        return _run_serial(fn, tasks)

    # Shuffle dispatch order only: results are re-keyed by index below,
    # so this balances load without touching the fold order.
    order = list(range(len(tasks)))
    random.Random(seed).shuffle(order)

    results: List[Optional[SweepResult]] = [None] * len(tasks)
    futures: List[Tuple[int, "Future[Any]"]] = []
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=context
    ) as pool:
        for index in order:
            futures.append((index, pool.submit(_invoke, (fn, tasks[index]))))
        for index, future in futures:
            try:
                results[index] = SweepResult(
                    index=index, ok=True, value=future.result()
                )
            except BrokenProcessPool:
                results[index] = SweepResult(
                    index=index,
                    ok=False,
                    error="worker process died before finishing this task",
                    error_kind=WORKER_CRASH,
                )
            except Exception as exc:  # noqa: BLE001 - structured failure
                results[index] = SweepResult(
                    index=index,
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    error_kind=WORKER_ERROR,
                )
    final = [result for result in results if result is not None]
    assert len(final) == len(tasks)
    return final
