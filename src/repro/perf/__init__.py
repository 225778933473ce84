"""Performance instrumentation: the per-stage wall-clock timer.

:class:`~repro.perf.timing.StageTimer` accounts wall-clock time per
pipeline stage (ELP enumeration, brute-force tagging, minimization,
rule compilation, ...); :class:`repro.core.planner.TaggerPlan`, the
incremental re-planner and the rollout orchestrator fill one in.

Nothing here records a timing. The one ledger is the end-to-end
benchmark (``python3 benchmarks/e2e/run.py --out``), which reads these
timers into its per-layer metrics; ``docs/PERFORMANCE.md`` ("Where
timings live") maps each figure to its workload and metric.
"""

from repro.perf.timing import StageTimer

__all__ = ["StageTimer"]
