"""Re-planning after topology deltas (paper §6, "Topology changes").

A Tagger deployment must track topology churn: the paper measures
hundreds of reroute events per day (§3.2), so reacting to one link flap
must cost what the flap changed, not a full recompute.

A replan is a plan. :class:`IncrementalPlanner` applies each
:class:`~repro.topology.failures.TopologyDelta` to its topology, plans
the result with :meth:`~repro.core.planner.TaggerPlan.from_provider` and
ships the minimal per-switch rule diff against the previous plan. It
keeps no state between deltas beyond that plan and the pinned extra
paths. No path is walked that the event did not cut: on a symmetric
Clos the certificate (:mod:`repro.core.symmetry`) covers the fabric
with every link up, a failed link or drain filters the closed form's
edges by link liveness, and the only paths walked are those of the
pairs it leaves with no pristine path. Any other fabric is walked
whole: no benchmark workload replans one, so nothing keeps a cache to
avoid that walk (docs/PERFORMANCE.md, "A replan is a plan").

Because every plan is a ``from_provider`` plan, the result is
certifiably equivalent to :meth:`TaggerPlan.from_elp` on the provider's
from-scratch ELP plus the pinned extras
(:meth:`IncrementalPlanner.scratch_plan`): identical rule tables, tagged
graph, and queue map. That is property-tested in
``tests/properties/test_incremental.py`` and
``tests/properties/test_symmetry_equivalence.py``, and fuzz-checked as
the ``incremental-divergence`` and ``symmetry-divergence`` invariants.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.elp import PairwiseElpProvider, canonical_elp_path
from repro.core.planner import TaggerPlan
from repro.core.rules import RuleDiff, diff_tables
from repro.exceptions import TaggingError
from repro.obs.events import EV_REPLAN_APPLY
from repro.obs.instrument import observe_plan, observe_timings
from repro.obs.telemetry import Telemetry
from repro.perf.timing import StageTimer
from repro.routing.base import Path
from repro.topology.base import Topology
from repro.topology.failures import (
    ADD_PATHS,
    REMOVE_PATHS,
    TopologyDelta,
    apply_delta,
)

#: Replan modes: the delta changed nothing; a certified plan (the closed
#: form filtered by link liveness); an uncertified plan (the provider's
#: whole walk).
MODE_NOOP = "noop"
MODE_INCREMENTAL = "incremental"
MODE_FULL = "full"


@dataclass
class ReplanResult:
    """Outcome of one :meth:`IncrementalPlanner.apply` call.

    ``dirty_pairs`` and ``changed_paths`` are the plan's
    ``walked_pairs`` and ``walked_paths``. When certified they are the
    residue (the pairs with a pristine path through a failed link) and
    the damaged paths of its cut pairs — those left with no pristine
    path — plus the pinned extras; a flap that cuts no pair walks none.
    When not certified they are every pair and path; 0 for a noop.
    """

    delta: TopologyDelta
    mode: str
    plan: TaggerPlan
    diffs: Dict[str, RuleDiff]
    timings: Dict[str, float]
    dirty_pairs: int
    changed_paths: int

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())

    @property
    def total_rule_touches(self) -> int:
        return sum(diff.touch_count for diff in self.diffs.values())

    def summary(self) -> str:
        return (
            f"{self.delta.describe()}: {self.mode}, "
            f"{self.dirty_pairs} dirty pair(s), "
            f"{self.changed_paths} path change(s), "
            f"{len(self.diffs)} switch(es) touched "
            f"({self.total_rule_touches} rule ops) "
            f"in {self.total_seconds * 1000.0:.1f}ms"
        )


class IncrementalPlanner:
    """Tagger planner that absorbs topology deltas.

    The planner takes ownership of ``topo``: deltas passed to
    :meth:`apply` mutate it in place (via
    :func:`~repro.topology.failures.apply_delta`) and the current
    :attr:`plan` always refers to it.
    """

    def __init__(
        self,
        topo: Topology,
        provider: PairwiseElpProvider,
        max_lossless_queues: int = 8,
        extra_paths: Tuple[Path, ...] = (),
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.topo = topo
        self.provider = provider
        self.max_lossless_queues = max_lossless_queues
        #: Optional observability hookup; a pure observer (never consulted
        #: by the planning pipeline itself).
        self.telemetry = telemetry
        self._extras: List[Path] = [
            canonical_elp_path(topo, raw) for raw in extra_paths
        ]
        self._plan: Optional[TaggerPlan] = None
        #: True when the topology or the extras moved past ``_plan`` (a
        #: previous apply raised mid-pipeline).
        self._plan_dirty = True

        timer = StageTimer()
        self._replan(timer)
        #: Stage timings of the initial from-scratch build.
        self.initial_timings: Dict[str, float] = timer.timings()
        if self.telemetry is not None:
            observe_timings(
                self.telemetry.registry, "planner-init", self.initial_timings
            )
            observe_plan(self.telemetry.registry, self.plan)

    @property
    def plan(self) -> TaggerPlan:
        """The current (last successfully compiled) plan."""
        if self._plan is None:
            raise TaggingError("planner holds no valid plan")
        return self._plan

    def scratch_plan(self) -> TaggerPlan:
        """From-scratch plan for the current state (differential oracle).

        The ELP is the provider's fresh enumeration of the current
        topology plus the pinned extras, through Algorithm 1 on the
        explicit path list — never the certificate's closed form, so a
        wrong liveness filter or residue shows as a divergence.
        """
        return TaggerPlan.from_elp(
            self.topo,
            self.provider.build(self.topo).paths + self._extras,
            max_lossless_queues=self.max_lossless_queues,
        )

    def apply(self, delta: TopologyDelta) -> ReplanResult:
        """Absorb one delta and return the re-planned state + rule diff.

        Raises :class:`~repro.exceptions.TaggingError` when the delta
        leaves an empty ELP (nothing to keep lossless) — the topology
        change itself stays applied, so a subsequent restoring delta
        recovers — and :class:`~repro.exceptions.CapacityError` when the
        new tag count exceeds the queue budget.
        """
        result = self._apply(delta)
        self._publish_result(result)
        return result

    def _publish_result(self, result: ReplanResult) -> None:
        if self.telemetry is None:
            return
        self.telemetry.emit(
            EV_REPLAN_APPLY,
            delta_kind=result.delta.kind,
            mode=result.mode,
            certified=result.plan.meta["certified"],
            dirty_pairs=result.dirty_pairs,
            changed_paths=result.changed_paths,
        )
        observe_timings(self.telemetry.registry, "replan", result.timings)
        observe_plan(self.telemetry.registry, result.plan)
        self.telemetry.registry.counter(
            "replan_applies_total",
            "Re-plan operations absorbed, by mode.",
            labelnames=("mode",),
        ).inc(mode=result.mode)
        self.telemetry.registry.counter(
            "replan_rule_touches_total",
            "Rule add/remove operations shipped by re-plans.",
        ).inc(result.total_rule_touches)

    def _apply(self, delta: TopologyDelta) -> ReplanResult:
        timer = StageTimer()

        # Path deltas validate fully before any state is touched, so a
        # rejected delta leaves the planner exactly as it was.
        canonical_paths: List[Path] = []
        if delta.kind == ADD_PATHS:
            canonical_paths = [
                canonical_elp_path(self.topo, p) for p in delta.paths
            ]
        elif delta.kind == REMOVE_PATHS:
            canonical_paths = [tuple(p) for p in delta.paths]
            missing = Counter(canonical_paths) - Counter(self._extras)
            if missing:
                raise TaggingError(
                    f"cannot remove ELP path(s) never added: "
                    f"{sorted(missing)[0]}"
                )

        with timer.stage("apply-delta"):
            failed_before = self.topo.failed_links
            apply_delta(self.topo, delta)

        if delta.kind == ADD_PATHS:
            self._extras.extend(canonical_paths)
        elif delta.kind == REMOVE_PATHS:
            for path in canonical_paths:
                self._extras.remove(path)
        elif not self._plan_dirty and self.topo.failed_links == failed_before:
            # A repeated link-down, or an undrain of a switch that is not
            # drained, leaves every link as it was: the current plan is
            # the answer.
            return ReplanResult(
                delta=delta,
                mode=MODE_NOOP,
                plan=self.plan,
                diffs={},
                timings=timer.timings(),
                dirty_pairs=0,
                changed_paths=0,
            )

        prev_tables = self._plan.tables if self._plan is not None else {}
        plan = self._replan(timer)
        with timer.stage("diff"):
            diffs = diff_tables(prev_tables, plan.tables)
        return ReplanResult(
            delta=delta,
            mode=MODE_INCREMENTAL if plan.meta["certified"] else MODE_FULL,
            plan=plan,
            diffs=diffs,
            timings=timer.timings(),
            dirty_pairs=plan.meta["walked_pairs"],
            changed_paths=plan.meta["walked_paths"],
        )

    def _replan(self, timer: StageTimer) -> TaggerPlan:
        """Plan the current topology and extras; a failure leaves
        ``_plan_dirty`` set so the (still intact) previous plan is never
        mistaken for the current topology's."""
        self._plan_dirty = True
        self._plan = TaggerPlan.from_provider(
            self.topo,
            self.provider,
            self.max_lossless_queues,
            self._extras,
            timer,
        )
        self._plan_dirty = False
        return self._plan
