"""High-level planning API: from topology + ELP to a deployable Tagger plan.

:class:`TaggerPlan` is the main entry point of the library. It bundles:

- the tagged graph (design intent),
- per-switch rule tables + queue map (deployment artifacts),
- verification (Theorem 5.1) and ELP-coverage reports,
- per-switch pipeline configs for the simulator.

Three constructors mirror the paper:

- :meth:`TaggerPlan.from_elp` — Algorithm 1 on an explicit ELP, for any
  topology;
- :meth:`TaggerPlan.for_clos` — the topology-aware Clos scheme (§4.3),
  no enumeration needed;
- :meth:`TaggerPlan.for_multiclass_clos` — §6's staggered classes.

They mirror it in code as well: every Algorithm-1 plan — ``from_elp``
and :meth:`TaggerPlan.from_provider` (liveness-aware closed form or
per-pair walk), which every
:class:`~repro.core.replan.IncrementalPlanner` replan is — is
finished by the one :func:`compile_plan` tail (rule-realizable minimize,
verify, queue map), and both policy plans by one body that takes the
graph it verifies and the tables it ships from a single walk of the
policy (:func:`~repro.core.rules.materialize_policy`).
Algorithm 2 as printed (:func:`~repro.core.greedy.greedy_minimize`) is not
on this path: it can demand two rewrites for one match key, so it is kept
for the reproductions and the fuzzer only.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, Optional, Sequence

from repro.core.bruteforce import add_tagged_path, bruteforce_tagging
from repro.core.clos import ClosTagger
from repro.core.determinize import deterministic_minimize
from repro.core.elp import ElpSet, PairwiseElpProvider
from repro.core.symmetry import certify
from repro.core.multiclass import TrafficClass, staggered_tagger
from repro.core.pipeline import PipelineConfig, QueueMap
from repro.core.rules import RuleTable, coverage_report
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
    #: Provenance of the plan (certificate status, path counts);
    #: informational only — never consulted by the pipeline, so
    #: byte-identity of plans is judged on graph + tables.
    meta: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_elp(
        topo: Topology,
        elp: Iterable[Sequence[str]],
        max_lossless_queues: int = 8,
        timer: Optional[StageTimer] = None,
    ) -> "TaggerPlan":
        """Generic construction: Algorithm 1, then the rule-realizable
        merge of :mod:`repro.core.determinize`.

        Args:
            timer: Optional :class:`~repro.perf.timing.StageTimer`; when
                given, records wall-clock per pipeline stage
                (``bruteforce``, ``minimize``, ``verify``, ``queue-map``);
                the e2e benchmark reads them as ``core.plan.*_s``.

        Raises :class:`~repro.exceptions.CapacityError` if the resulting
        tag count exceeds ``max_lossless_queues`` — the paper's practical
        constraint (§3.3).
        """
        if timer is None:
            timer = StageTimer()
        with timer.stage("bruteforce"):
            graph = bruteforce_tagging(topo, elp)
        return compile_plan(topo, graph, max_lossless_queues, timer)

    @staticmethod
    def from_provider(
        topo: Topology,
        provider: PairwiseElpProvider,
        max_lossless_queues: int = 8,
        extra_paths: Sequence[Sequence[str]] = (),
        timer: Optional[StageTimer] = None,
    ) -> "TaggerPlan":
        """From-scratch plan via a pairwise ELP provider (+ pinned extras).

        Every :class:`repro.core.replan.IncrementalPlanner` plan is one
        of these, so the two are compared byte for byte. The ``elp``
        stage (path enumeration) is timed separately from the
        :meth:`from_elp` stages.

        The input picks the enumeration. When the topology/provider pair
        certifies as a symmetric Clos (:mod:`repro.core.symmetry`), the
        tagged graph is built in closed form from one representative per
        pod/spine equivalence class, skipping per-pair path enumeration;
        failed links or drains filter the closed form's edges by link
        liveness, and only the residue pairs they leave with no pristine
        path are enumerated and walked. A provider other than
        :class:`~repro.core.elp.UpDownElpProvider` or a fabric that is
        not a symmetric Clos degrades to streaming the provider's paths
        lazily into Algorithm 1. Both compile plans byte-identical to
        :meth:`from_elp` on the provider's ELP.

        ``meta`` records ``certified``, ``elp_paths`` and the pairs and
        paths the plan walked (``walked_pairs``, ``walked_paths``): the
        residue and its cut pairs' paths when certified, else all, plus
        extras.
        """
        if timer is None:
            timer = StageTimer()
        with timer.stage("certify"):
            cert = certify(topo, provider)
        with timer.stage("elp"):
            extras = ElpSet(topo, description=provider.description)
            extras.extend(extra_paths)
        if cert is not None:
            with timer.stage("bruteforce"):
                graph = TaggedGraph()
                enumerated, walked = cert.populate_graph(graph)
                for path in extras:
                    add_tagged_path(graph, topo, path)
                if not graph.nodes and not extras.paths:
                    raise TaggingError("empty ELP: nothing to tag")
            walked_pairs = len(cert.residue)
        else:
            # Not certified: stream the provider's paths lazily into
            # Algorithm 1 so the full path list is never materialized.
            counter = {"paths": 0}
            stream = _timed_stream(provider.iter_paths(topo), timer, counter)
            with timer.stage("bruteforce"):
                graph = bruteforce_tagging(
                    topo,
                    itertools.chain(stream, extras.paths),
                    require_loop_free=False,
                )
            enumerated = walked = counter["paths"]
            walked_pairs = len(provider.ordered_pairs(topo))
        meta = {
            "certified": cert is not None,
            "elp_paths": enumerated + len(extras),
            "walked_pairs": walked_pairs,
            "walked_paths": walked + len(extras),
        }
        return compile_plan(topo, graph, max_lossless_queues, timer, meta)

    @staticmethod
    def for_clos(
        topo: Topology,
        max_bounces: int = 1,
        max_lossless_queues: int = 8,
    ) -> "TaggerPlan":
        """Topology-aware plan for a layered fabric (§4.3; express
        links, §6, included): ``max_bounces + 1`` lossless tags."""
        tagger = ClosTagger(topo, max_bounces=max_bounces)
        return _policy_plan(
            tagger,
            max_lossless_queues,
            f"clos k={max_bounces} ({tagger.num_lossless_tags} tags)",
        )

    @staticmethod
    def for_multiclass_clos(
        topo: Topology,
        classes: Sequence[TrafficClass],
        max_lossless_queues: int = 8,
    ) -> "TaggerPlan":
        """§6's staggered multi-class plan over a layered fabric: one
        :class:`ClosTagger` whose hosts inject one tag per class
        (:func:`~repro.core.multiclass.staggered_tagger`)."""
        tagger = staggered_tagger(topo, classes)
        return _policy_plan(
            tagger,
            max_lossless_queues,
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
        greedy merge finds no safe fit, which proves no lower bound.
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
    max_lossless_queues: int,
    timer: StageTimer,
    meta: Optional[Dict[str, Any]] = None,
) -> TaggerPlan:
    """Minimize + verify + queue-map a brute-force tagged graph.

    The one tail of every Algorithm-1 construction path — explicit ELP,
    streamed provider, symmetry-certified closed form with or without
    failed links — so all of them produce byte-identical plans from equal
    graphs because they run the same code, not because two copies are
    kept in step.

    Args:
        graph: The brute-force (Algorithm 1) tagged graph.
    """
    with timer.stage("minimize"):
        result = deterministic_minimize(topo, graph)
    with timer.stage("verify"):
        assert_deadlock_free(result.graph)
    with timer.stage("queue-map"):
        queue_map = QueueMap.identity(result.graph.max_tag, max_lossless_queues)
    return TaggerPlan(
        topo=topo,
        graph=result.graph,
        tables=result.tables,
        queue_map=queue_map,
        description=f"algorithm-1+deterministic ({result.graph.num_tags} tags)",
        meta=dict(meta or {}),
    )


def _policy_plan(
    tagger: ClosTagger,
    max_lossless_queues: int,
    description: str,
) -> TaggerPlan:
    """Verify a topology-aware tagger's induced graph and wrap its rules,
    both from one walk of the policy."""
    graph, tables = tagger.materialize()
    assert_deadlock_free(graph)
    return TaggerPlan(
        topo=tagger.topo,
        graph=graph,
        tables=tables,
        queue_map=QueueMap.identity(
            tagger.num_lossless_tags, max_lossless_queues
        ),
        description=description,
    )
