"""High-level planning API: from topology + ELP to a deployable Tagger plan.

:class:`TaggerPlan` is the main entry point of the library. It bundles:

- the tagged graph (design intent),
- per-switch rule tables + queue map (deployment artifacts),
- verification (Theorem 5.1) and ELP-coverage reports,
- per-switch pipeline configs for the simulator.

Three constructors mirror the paper:

- :meth:`TaggerPlan.from_elp` — Algorithm 1 (+ optional Algorithm 2) on an
  explicit ELP, for any topology;
- :meth:`TaggerPlan.for_clos` — the topology-aware Clos scheme (§4.3),
  no enumeration needed;
- :meth:`TaggerPlan.for_multiclass_clos` — §6's staggered classes.

They mirror it in code as well: every Algorithm-1 plan — ``from_elp``,
:meth:`TaggerPlan.from_provider` on either enumeration strategy, and
every :class:`~repro.core.replan.IncrementalPlanner` compile — is
finished by the one :func:`compile_plan` tail (minimize, verify, rules,
queue map), and both policy plans by one materialise-and-wrap body.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence, Union

from repro.core.bruteforce import add_tagged_path, bruteforce_tagging
from repro.core.clos import ClosTagger
from repro.core.determinize import DeterministicTagging, deterministic_minimize
from repro.core.elp import ElpSet, PairwiseElpProvider
from repro.core.greedy import greedy_minimize
from repro.core.symmetry import STRATEGY_SYMMETRY, certify, check_strategy
from repro.core.multiclass import MultiClassClosTagger, TrafficClass
from repro.core.pipeline import PipelineConfig, QueueMap
from repro.core.rules import (
    RuleGenerationReport,
    RuleTable,
    coverage_report,
    materialize_policy_rules,
    rules_from_tagged_graph,
    rules_to_tagged_graph,
)
from repro.core.tags import INITIAL_TAG, TaggedGraph
from repro.core.verification import VerificationReport, assert_deadlock_free, verify_tagged_graph
from repro.exceptions import TaggingError
from repro.perf.timing import StageTimer
from repro.topology.base import Topology


def _timed_stream(
    paths: Iterator[Sequence[str]],
    timer: StageTimer,
    counter: Dict[str, int],
) -> Iterator[Sequence[str]]:
    """Meter a lazy path stream consumed inside another timed stage.

    Algorithm 1 pulls the provider's paths from *inside* the
    ``bruteforce`` stage, so enumeration time would otherwise be charged
    to tagging. This wrapper measures each pull and, on close, moves the
    total from ``bruteforce`` to ``elp`` in one batched adjustment
    (per-path ``timer.add`` calls would cost real time at hyperscale).
    """
    pulled = 0.0
    it = iter(paths)
    try:
        while True:
            start = time.perf_counter()
            try:
                path = next(it)
            except StopIteration:
                return
            pulled += time.perf_counter() - start
            counter["paths"] += 1
            yield path
    finally:
        timer.add("elp", pulled)
        timer.add("bruteforce", -pulled)


@dataclass
class TaggerPlan:
    """A complete, verified Tagger deployment for one fabric."""

    topo: Topology
    graph: TaggedGraph
    tables: Dict[str, RuleTable]
    queue_map: QueueMap
    description: str = ""
    rule_report: Optional[RuleGenerationReport] = None
    #: Provenance of the plan (enumeration strategy, certificate status,
    #: path counts); informational only — never consulted by the
    #: pipeline, so byte-identity of plans is judged on graph + tables.
    meta: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_elp(
        topo: Topology,
        elp: Iterable[Sequence[str]],
        minimize: str = "deterministic",
        max_lossless_queues: int = 8,
        on_conflict: str = "max",
        timer: Optional[StageTimer] = None,
    ) -> "TaggerPlan":
        """Generic construction: Algorithm 1, then tag minimization.

        Args:
            minimize: ``"deterministic"`` (default) runs the
                rule-realizable merge of :mod:`repro.core.determinize`;
                ``"paper"`` runs Algorithm 2 exactly as printed (rule
                conflicts, if any, resolved toward the larger tag);
                ``"off"`` deploys the brute-force tags directly.
            timer: Optional :class:`~repro.perf.timing.StageTimer`; when
                given, records wall-clock per pipeline stage
                (``bruteforce``, ``minimize``, ``verify``, ``queue-map``);
                the e2e benchmark reads them as ``core.plan.*_s``.

        Raises :class:`~repro.exceptions.CapacityError` if the resulting
        tag count exceeds ``max_lossless_queues`` — the paper's practical
        constraint (§3.3).
        """
        if minimize not in ("deterministic", "paper", "off"):
            raise TaggingError(f"unknown minimize mode {minimize!r}")
        if timer is None:
            timer = StageTimer()
        with timer.stage("bruteforce"):
            graph = bruteforce_tagging(topo, elp)
        return compile_plan(
            topo, graph, minimize, max_lossless_queues, on_conflict, timer
        )

    @staticmethod
    def from_provider(
        topo: Topology,
        provider: PairwiseElpProvider,
        minimize: str = "deterministic",
        max_lossless_queues: int = 8,
        on_conflict: str = "max",
        extra_paths: Sequence[Sequence[str]] = (),
        timer: Optional[StageTimer] = None,
        strategy: str = STRATEGY_SYMMETRY,
    ) -> "TaggerPlan":
        """From-scratch plan via a pairwise ELP provider (+ pinned extras).

        This is the from-scratch counterpart of
        :class:`repro.core.replan.IncrementalPlanner` — identical input
        surface, so the two can be compared byte for byte. The ``elp``
        stage (path enumeration) is timed separately from the
        :meth:`from_elp` stages.

        Args:
            strategy: ``"symmetry"`` (default) first tries to certify
                the topology/provider pair as a healthy symmetric Clos
                (:mod:`repro.core.symmetry`); on success the tagged
                graph is built in closed form from one representative
                per pod/spine equivalence class, skipping per-pair path
                enumeration entirely. When certification fails — any
                asymmetry: failed links, drained endpoints, a
                non-up-down provider — it degrades to ``"exhaustive"``,
                which streams the provider's paths lazily into
                Algorithm 1. Both paths compile byte-identical plans.
        """
        check_strategy(strategy)
        if timer is None:
            timer = StageTimer()
        cert = None
        if strategy == STRATEGY_SYMMETRY:
            with timer.stage("certify"):
                cert = certify(topo, provider)
        with timer.stage("elp"):
            extras = ElpSet(topo, description=provider.description)
            extras.extend(extra_paths)
        if cert is not None:
            with timer.stage("bruteforce"):
                graph = TaggedGraph()
                cert.populate_graph(graph)
                for path in extras:
                    add_tagged_path(graph, topo, path)
                if not graph.nodes and not extras.paths:
                    raise TaggingError("empty ELP: nothing to tag")
            enumerated = cert.path_count()
        else:
            # Exhaustive enumeration (explicit, or symmetry degraded):
            # stream the provider's paths lazily into Algorithm 1 so the
            # full path list is never materialized.
            counter = {"paths": 0}
            stream = _timed_stream(provider.iter_paths(topo), timer, counter)
            with timer.stage("bruteforce"):
                graph = bruteforce_tagging(
                    topo,
                    itertools.chain(stream, extras.paths),
                    require_loop_free=False,
                )
            enumerated = counter["paths"]
        meta = {
            "strategy": strategy,
            "certified": cert is not None,
            "elp_paths": enumerated + len(extras),
        }
        return compile_plan(
            topo, graph, minimize, max_lossless_queues, on_conflict, timer, meta
        )

    @staticmethod
    def for_clos(
        topo: Topology,
        max_bounces: int = 1,
        max_lossless_queues: int = 8,
        materialize: bool = True,
    ) -> "TaggerPlan":
        """Topology-aware Clos plan: ``max_bounces + 1`` lossless tags.

        With ``materialize=False`` the rule tables stay functional
        (policy-backed) — preferable for very large fabrics.
        """
        tagger = ClosTagger(topo, max_bounces=max_bounces)
        return _policy_plan(
            topo,
            tagger,
            max_lossless_queues,
            materialize,
            f"clos k={max_bounces} ({tagger.num_lossless_tags} tags)",
        )

    @staticmethod
    def for_multiclass_clos(
        topo: Topology,
        classes: Sequence[TrafficClass],
        max_lossless_queues: int = 8,
    ) -> "TaggerPlan":
        """§6's staggered multi-class plan over a layered fabric."""
        tagger = MultiClassClosTagger(topo, classes)
        return _policy_plan(
            topo,
            tagger,
            max_lossless_queues,
            True,
            f"multiclass clos ({len(classes)} classes, "
            f"{tagger.num_lossless_tags} tags)",
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_lossless_queues(self) -> int:
        return self.queue_map.num_lossless_queues

    @property
    def total_rules(self) -> int:
        return sum(len(table) for table in self.tables.values())

    @property
    def max_rules_per_switch(self) -> int:
        return max((len(table) for table in self.tables.values()), default=0)

    def verify(self) -> VerificationReport:
        """Re-run Theorem 5.1 verification on the plan's tagged graph."""
        return verify_tagged_graph(self.graph)

    def coverage(
        self, paths: Iterable[Sequence[str]], initial_tag: int = INITIAL_TAG
    ) -> float:
        """Fraction of ``paths`` that stay lossless end-to-end."""
        lossless, total, _ = coverage_report(
            self.topo, self.tables, paths, initial_tag=initial_tag
        )
        if total == 0:
            raise TaggingError("coverage over an empty path set")
        return lossless / total

    def pipeline_config(self, switch: str, decouple_egress: bool = True) -> PipelineConfig:
        """Per-switch config consumed by the simulator."""
        table = self.tables.get(switch)
        if table is None:
            table = RuleTable(switch=switch)
        return PipelineConfig(
            rule_table=table,
            queue_map=self.queue_map,
            decouple_egress=decouple_egress,
        )

    def fit_to_queues(self, max_lossless_queues: int) -> "TaggerPlan":
        """Return a new plan fused into a smaller queue budget.

        Safely merges adjacent tag classes (see
        :mod:`repro.core.queuefit`) and renumbers the rule tables to
        match. Raises :class:`~repro.exceptions.CapacityError` when the
        ELP genuinely does not fit the hardware.
        """
        from repro.core.queuefit import fit_to_queues, remap_tables

        fused, mapping = fit_to_queues(self.graph, max_lossless_queues)
        assert_deadlock_free(fused)
        return TaggerPlan(
            topo=self.topo,
            graph=fused,
            tables=remap_tables(self.tables, mapping),
            queue_map=QueueMap.identity(
                fused.max_tag if fused.nodes else 0, max_lossless_queues
            ),
            description=f"{self.description} fused to {fused.num_tags} tags",
            rule_report=self.rule_report,
            meta=dict(self.meta),
        )

    def summary(self) -> str:
        return (
            f"TaggerPlan[{self.description}]: "
            f"{self.num_lossless_queues} lossless queue(s), "
            f"{self.total_rules} rules total, "
            f"max {self.max_rules_per_switch} rules/switch"
        )


def compile_plan(
    topo: Topology,
    graph: TaggedGraph,
    minimize: str,
    max_lossless_queues: int,
    on_conflict: str,
    timer: StageTimer,
    meta: Optional[Dict[str, Any]] = None,
    merge: Optional[Callable[[TaggedGraph], DeterministicTagging]] = None,
) -> TaggerPlan:
    """Minimize + verify + queue-map a brute-force tagged graph.

    The one tail of every Algorithm-1 construction path — explicit ELP,
    streamed provider, symmetry-certified closed form, and every
    :class:`~repro.core.replan.IncrementalPlanner` compile — so all of
    them produce byte-identical plans from equal graphs because they run
    the same code, not because two copies are kept in step.

    Args:
        graph: The brute-force (Algorithm 1) tagged graph.
        minimize: ``"deterministic"``, ``"paper"`` or ``"off"`` (see
            :meth:`TaggerPlan.from_elp`).
        merge: The deterministic merge to run on ``graph``; defaults to
            a from-scratch :func:`deterministic_minimize`. The
            re-planner hands in its resumable
            :meth:`DeterministicMinimizer.run`. Only called in
            ``"deterministic"`` mode.
    """
    rule_report: Optional[RuleGenerationReport] = None
    if minimize == "deterministic":
        with timer.stage("minimize"):
            result = merge(graph) if merge else deterministic_minimize(topo, graph)
        tables = result.tables
        graph = result.graph
        with timer.stage("verify"):
            assert_deadlock_free(graph)
    else:
        with timer.stage("minimize"):
            if minimize == "paper":
                graph = greedy_minimize(graph)
        with timer.stage("verify"):
            assert_deadlock_free(graph)
            rule_report = rules_from_tagged_graph(
                topo, graph, on_conflict=on_conflict
            )
            tables = rule_report.tables
            if rule_report.conflicts:
                # Conflict resolution changed semantics; re-verify
                # what the rules actually deploy.
                effective = rules_to_tagged_graph(topo, tables)
                assert_deadlock_free(effective)
                graph = effective
    with timer.stage("queue-map"):
        queue_map = QueueMap.identity(graph.max_tag, max_lossless_queues)
    return TaggerPlan(
        topo=topo,
        graph=graph,
        tables=tables,
        queue_map=queue_map,
        description=f"algorithm-1+{minimize} ({graph.num_tags} tags)",
        rule_report=rule_report,
        meta=dict(meta or {}),
    )


def _policy_plan(
    topo: Topology,
    tagger: Union[ClosTagger, MultiClassClosTagger],
    max_lossless_queues: int,
    materialize: bool,
    description: str,
) -> TaggerPlan:
    """Verify a topology-aware tagger's induced graph and wrap its rules."""
    graph = tagger.tagged_graph()
    assert_deadlock_free(graph)
    tags = range(INITIAL_TAG, INITIAL_TAG + tagger.num_lossless_tags)
    tables: Dict[str, RuleTable] = {}
    for switch in topo.switches:
        if materialize:
            tables[switch] = materialize_policy_rules(
                topo, switch, tagger.rewrite, tags
            )
        else:
            tables[switch] = RuleTable(switch=switch, policy=tagger.rewrite)
    return TaggerPlan(
        topo=topo,
        graph=graph,
        tables=tables,
        queue_map=QueueMap.identity(
            tagger.num_lossless_tags, max_lossless_queues
        ),
        description=description,
    )
