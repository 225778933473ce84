"""Incremental re-planning engine (paper §6, "Topology changes").

A Tagger deployment must track topology churn: the paper measures
hundreds of reroute events per day (§3.2), and recomputing the full
pipeline — ELP enumeration, Algorithm 1, deterministic minimization,
rule compilation — from scratch on every link flap is wasteful when a
single link touches a tiny fraction of the ELP.

:class:`IncrementalPlanner` keeps the whole pipeline state warm and
recomputes only what a :class:`~repro.topology.failures.TopologyDelta`
actually invalidates:

1. **Pair-path cache.** The ELP is expressed through a
   :class:`~repro.core.elp.PairwiseElpProvider`, whose contract makes
   each endpoint pair's path set an independent function of the
   topology. A link→pairs index identifies the pairs whose current
   paths traverse a failed link; a *damaged* set (pairs whose current
   paths differ from the no-failure baseline) bounds which pairs a
   restore can affect. Only those pairs are re-enumerated.
2. **Refcounted brute-force graph.** Every ELP path contributes
   reference counts to the Algorithm-1 nodes/edges it induces; the
   tagged graph is exactly the entries with a positive count, so path
   adds/removes update it in O(hops) and the result is bit-identical
   to re-running Algorithm 1 (the graph is a set, order-free).
3. **Scoped re-merge.** Brute-force levels below the lowest changed
   node/edge are untouched, so the resumable
   :class:`~repro.core.determinize.DeterministicMinimizer` restores its
   per-level checkpoint and reprocesses only the dirty suffix.
4. **Plan memo.** Full resulting states are memoized per topology
   fingerprint (qualified by the enumeration strategy, plus the pinned
   extra-path signature), so fail→restore flaps replay from cache —
   and a plan enumerated exhaustively is never served to a
   symmetry-mode request, or vice versa.
5. **Symmetry certificate.** Under the default ``"symmetry"`` strategy
   the planner keeps a :mod:`repro.core.symmetry` certificate of the
   current topology; while it holds (healthy symmetric Clos), per-pair
   enumeration uses the certificate's closed form instead of the
   provider's graph search. Any asymmetry — a failed link, a drain —
   invalidates the certificate and pair recomputation degrades to the
   exhaustive provider, byte-identically.

Whenever a prerequisite fails — the provider contract cannot localize a
restore because the planner never saw the no-failure baseline, or the
minimizer state is cold after a memo hit — the engine falls back to a
full recompute of the affected stage rather than guessing. In **every**
mode the resulting plan is certifiably equivalent to
:meth:`TaggerPlan.from_elp` on the same topology and path set: identical
rule tables, tagged graph, and queue map. It is so by construction where
that is possible — each path is counted through the same
:func:`~repro.core.tags.tagged_walk` Algorithm 1 adds, and the graph is
compiled by the same :func:`~repro.core.planner.compile_plan` — and by
test where it is not (the refcounts, the pair cache and the checkpoint
resume: property-tested in ``tests/properties/test_incremental.py`` and
fuzz-checked as the ``incremental-divergence`` invariant).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.determinize import DeterministicMinimizer, DeterministicTagging
from repro.core.elp import PairwiseElpProvider, canonical_elp_path
from repro.core.planner import TaggerPlan, compile_plan
from repro.core.rules import RuleDiff, diff_tables
from repro.core.symmetry import (
    STRATEGY_SYMMETRY,
    SymmetryCertificate,
    certify,
    check_strategy,
)
from repro.core.tags import INITIAL_TAG, TaggedGraph, TEdge, TNode, tagged_walk
from repro.exceptions import TaggingError
from repro.obs.events import EV_REPLAN_APPLY
from repro.obs.instrument import observe_plan, observe_timings
from repro.obs.telemetry import Telemetry
from repro.perf.timing import StageTimer
from repro.routing.base import Path
from repro.topology.base import Topology
from repro.topology.failures import (
    ADD_PATHS,
    DRAIN,
    LINK_DOWN,
    LinkKey,
    REMOVE_PATHS,
    TopologyDelta,
    apply_delta,
)

Pair = Tuple[str, str]
_MemoKey = Tuple[str, Tuple[Path, ...]]

#: Replan modes, most to least incremental.
MODE_NOOP = "noop"
MODE_MEMO = "memo"
MODE_INCREMENTAL = "incremental"
MODE_FULL = "full"


class _RefcountedGraph:
    """Algorithm-1 tagged graph maintained as per-path reference counts.

    ``add_path``/``remove_path`` count one path's
    :func:`~repro.core.tags.tagged_walk` (the same walk
    :func:`repro.core.bruteforce.bruteforce_tagging` adds) and return the
    nodes/edges whose count crossed zero — the *structural* changes.
    :meth:`graph` materializes the positive-count entries; because
    :class:`TaggedGraph` is set-structured, the result is identical to
    running Algorithm 1 from scratch on the current path multiset, in
    any insertion order.
    """

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self._nodes: Dict[TNode, int] = {}
        self._edges: Dict[TEdge, int] = {}
        #: Lowest brute-force level whose minimization input changed
        #: since the owner last reset this to None (None: no structural
        #: change). Levels strictly below it were processed on identical
        #: input, which is what makes checkpoint resume sound.
        self.dirty_level: Optional[int] = None

    @property
    def is_empty(self) -> bool:
        return not self._nodes

    def add_path(self, path: Path) -> Tuple[List[TNode], List[TEdge]]:
        return self._shift(path, +1)

    def remove_path(self, path: Path) -> Tuple[List[TNode], List[TEdge]]:
        return self._shift(path, -1)

    def _shift(
        self, path: Path, delta: int
    ) -> Tuple[List[TNode], List[TEdge]]:
        """Add ``delta`` (+1 or -1) to the count of every node and edge of
        the path's walk; a count that reaches zero leaves its dict, so the
        dicts hold exactly the live graph.

        Node and edge bookkeeping sit side by side in one loop rather
        than behind a per-dict helper: this is the 231 k-path planner-init
        loop at clos64, where a shared per-dict helper measured +0.22 s
        (+20 %) against this form (docs/PERFORMANCE.md).
        """
        node_counts, edge_counts = self._nodes, self._edges
        nodes: List[TNode] = []
        edges: List[TEdge] = []
        last: Optional[TNode] = None
        for node in tagged_walk(self.topo, path):
            count = node_counts.get(node, 0) + delta
            if count > 0:
                node_counts[node] = count
                if count == delta:  # was 0: created
                    nodes.append(node)
            elif count == 0:
                del node_counts[node]
                nodes.append(node)
            else:
                raise TaggingError(
                    f"refcount underflow at {node}; path was never added"
                )
            if last is not None:
                edge = (last, node)
                count = edge_counts.get(edge, 0) + delta
                if count > 0:
                    edge_counts[edge] = count
                    if count == delta:
                        edges.append(edge)
                elif count == 0:
                    del edge_counts[edge]
                    edges.append(edge)
                else:
                    raise TaggingError(f"refcount underflow at edge {edge}")
            last = node
        # A node created/deleted at level ``t`` alters ``nodes_with_tag(t)``;
        # an edge change alters only the predecessor view of its *dst* level.
        if nodes or edges:
            level = min([n[1] for n in nodes] + [e[1][1] for e in edges])
            if self.dirty_level is None or level < self.dirty_level:
                self.dirty_level = level
        return nodes, edges

    def graph(self) -> TaggedGraph:
        graph = TaggedGraph()
        for node in self._nodes:
            graph.add_node(node)
        for src, dst in self._edges:
            graph.add_edge(src, dst)
        return graph

    def counts_snapshot(self) -> Tuple[Dict[TNode, int], Dict[TEdge, int]]:
        return dict(self._nodes), dict(self._edges)

    def restore_counts(
        self, nodes: Dict[TNode, int], edges: Dict[TEdge, int]
    ) -> None:
        self._nodes = dict(nodes)
        self._edges = dict(edges)
        self.dirty_level = None


@dataclass
class _MemoEntry:
    """Full post-plan state for one (fingerprint, extras) key."""

    pairs: Dict[Pair, Tuple[Path, ...]]
    pair_links: Dict[Pair, FrozenSet[LinkKey]]
    link_index: Dict[LinkKey, Set[Pair]]
    damaged: Set[Pair]
    node_counts: Dict[TNode, int]
    edge_counts: Dict[TEdge, int]
    extras: List[Path]
    plan: TaggerPlan


@dataclass
class ReplanResult:
    """Outcome of one :meth:`IncrementalPlanner.apply` call."""

    delta: TopologyDelta
    mode: str
    plan: TaggerPlan
    diffs: Dict[str, RuleDiff]
    timings: Dict[str, float]
    dirty_pairs: int
    changed_paths: int
    resume_level: Optional[int]
    fingerprint: str

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


def _path_links(path: Path) -> FrozenSet[LinkKey]:
    """Canonical link keys a path traverses (host hops included)."""
    keys = []
    for i in range(len(path) - 1):
        a, b = path[i], path[i + 1]
        keys.append((a, b) if a <= b else (b, a))
    return frozenset(keys)


class IncrementalPlanner:
    """Warm-state Tagger planner that absorbs topology deltas.

    The planner takes ownership of ``topo``: deltas passed to
    :meth:`apply` mutate it in place (via
    :func:`~repro.topology.failures.apply_delta`) and the current
    :attr:`plan` always refers to it. All three ``minimize`` modes of
    :meth:`TaggerPlan.from_elp` are supported; only ``"deterministic"``
    benefits from the scoped re-merge (the paper's greedy pass is not
    checkpointable), but the ELP cache and refcounted brute-force graph
    accelerate every mode.
    """

    def __init__(
        self,
        topo: Topology,
        provider: PairwiseElpProvider,
        minimize: str = "deterministic",
        max_lossless_queues: int = 8,
        on_conflict: str = "max",
        memo_capacity: int = 8,
        extra_paths: Tuple[Path, ...] = (),
        telemetry: Optional[Telemetry] = None,
        strategy: str = STRATEGY_SYMMETRY,
    ) -> None:
        if minimize not in ("deterministic", "paper", "off"):
            raise TaggingError(f"unknown minimize mode {minimize!r}")
        check_strategy(strategy)
        self.topo = topo
        self.provider = provider
        self.minimize = minimize
        self.max_lossless_queues = max_lossless_queues
        self.on_conflict = on_conflict
        self.memo_capacity = memo_capacity
        #: Enumeration strategy; part of the memo key, so memoized plans
        #: are never served across strategies.
        self.strategy = strategy
        #: Closed-form pair enumeration certificate; non-None only under
        #: the symmetry strategy while the topology stays a healthy
        #: symmetric Clos.
        self._cert: Optional[SymmetryCertificate] = None
        #: Optional observability hookup; a pure observer (never consulted
        #: by the planning pipeline itself).
        self.telemetry = telemetry

        self._pairs: Dict[Pair, Tuple[Path, ...]] = {}
        self._pair_links: Dict[Pair, FrozenSet[LinkKey]] = {}
        self._link_index: Dict[LinkKey, Set[Pair]] = {}
        #: Pairs whose current path set differs from the no-failure
        #: baseline; only meaningful while ``_base`` is known.
        self._damaged: Set[Pair] = set()
        #: Pair paths of the pristine (no failed links) topology. None
        #: until the planner has observed that state.
        self._base: Optional[Dict[Pair, Tuple[Path, ...]]] = None

        self._extras: List[Path] = []
        self._brute = _RefcountedGraph(topo)
        self._minimizer = DeterministicMinimizer(topo)
        self._minimizer_valid = False
        self._plan: Optional[TaggerPlan] = None
        #: True when the deployed tables no longer match the brute-force
        #: state (a previous apply raised mid-pipeline).
        self._plan_dirty = True
        self._memo: "OrderedDict[_MemoKey, _MemoEntry]" = OrderedDict()
        self._last_resume_level: Optional[int] = None

        timer = StageTimer()
        for raw in extra_paths:
            self._extras.append(canonical_elp_path(topo, raw))
        self._full_build(timer)
        #: Stage timings of the initial from-scratch build.
        self.initial_timings: Dict[str, float] = timer.timings()
        if self.telemetry is not None:
            observe_timings(
                self.telemetry.registry, "planner-init", self.initial_timings
            )
            observe_plan(self.telemetry.registry, self.plan)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def plan(self) -> TaggerPlan:
        """The current (last successfully compiled) plan."""
        if self._plan is None:
            raise TaggingError("planner holds no valid plan")
        return self._plan

    def elp_paths(self) -> List[Path]:
        """The full current ELP, in from-scratch provider order."""
        paths: List[Path] = []
        for pair in self.provider.ordered_pairs(self.topo):
            paths.extend(self._pairs.get(pair, ()))
        paths.extend(self._extras)
        return paths

    def scratch_plan(self) -> TaggerPlan:
        """From-scratch plan for the current state (differential oracle)."""
        return TaggerPlan.from_elp(
            self.topo,
            self.elp_paths(),
            minimize=self.minimize,
            max_lossless_queues=self.max_lossless_queues,
            on_conflict=self.on_conflict,
        )

    def apply(
        self, delta: TopologyDelta, force_full: bool = False
    ) -> ReplanResult:
        """Absorb one delta and return the re-planned state + rule diff.

        Raises :class:`~repro.exceptions.TaggingError` when the delta
        leaves an empty ELP (nothing to keep lossless) — the topology
        change itself stays applied, so a subsequent restoring delta
        recovers — and :class:`~repro.exceptions.CapacityError` when the
        new tag count exceeds the queue budget.
        """
        result = self._apply(delta, force_full)
        self._publish_result(result)
        return result

    def _publish_result(self, result: ReplanResult) -> None:
        if self.telemetry is None:
            return
        self.telemetry.emit(
            EV_REPLAN_APPLY,
            delta_kind=result.delta.kind,
            mode=result.mode,
            strategy=self.strategy,
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

    def _apply(
        self, delta: TopologyDelta, force_full: bool = False
    ) -> ReplanResult:
        timer = StageTimer()
        prev_tables = self._plan.tables if self._plan is not None else {}
        self._last_resume_level = None

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
            touched = apply_delta(self.topo, delta)

        is_path_delta = delta.kind in (ADD_PATHS, REMOVE_PATHS)
        if not is_path_delta:
            # Topology changed: re-certify (or drop) the closed-form
            # pair enumeration before any pair is recomputed.
            self._refresh_cert(timer)
        memo_key = self._memo_key()

        def result(
            mode: str,
            diffs: Dict[str, RuleDiff],
            dirty_pairs: int = 0,
            changed_paths: int = 0,
        ) -> ReplanResult:
            return ReplanResult(
                delta=delta,
                mode=mode,
                plan=self.plan,
                diffs=diffs,
                timings=timer.timings(),
                dirty_pairs=dirty_pairs,
                changed_paths=changed_paths,
                resume_level=self._last_resume_level,
                fingerprint=memo_key[0],
            )

        if not force_full and not is_path_delta:
            entry = self._memo.get(memo_key)
            if entry is not None:
                with timer.stage("restore"):
                    self._restore_memo(entry)
                with timer.stage("diff"):
                    diffs = diff_tables(prev_tables, self.plan.tables)
                self._memo.move_to_end(memo_key)
                return result(MODE_MEMO, diffs)

        mode = MODE_INCREMENTAL
        dirty: Set[Pair] = set()
        changed_paths = 0

        with timer.stage("elp"):
            if is_path_delta:
                dirty = set()
            elif force_full:
                mode = MODE_FULL
                dirty = set(self.provider.ordered_pairs(self.topo))
            elif delta.kind in (LINK_DOWN, DRAIN):
                # Locality: a pair's path set can change only if one of
                # its current paths traverses a link that went down.
                for link in touched:
                    dirty |= self._link_index.get(link, set())
            else:  # link-up / undrain
                if self._base is None:
                    # Never saw the pristine baseline: cannot bound the
                    # restore's blast radius. Recompute everything.
                    mode = MODE_FULL
                    dirty = set(self.provider.ordered_pairs(self.topo))
                else:
                    dirty = set(self._damaged)
            for pair in sorted(dirty):
                changed_paths += self._recompute_pair(pair)

        with timer.stage("bruteforce"):
            if delta.kind == ADD_PATHS:
                for path in canonical_paths:
                    self._extras.append(path)
                    self._brute.add_path(path)
            elif delta.kind == REMOVE_PATHS:
                for path in canonical_paths:
                    self._extras.remove(path)
                    self._brute.remove_path(path)
            changed_paths += len(canonical_paths)

        if self._base is None and not self.topo.failed_links:
            # First time the planner sees the pristine fabric: snapshot
            # the baseline that bounds future restore blast radii.
            self._base = dict(self._pairs)
            self._damaged = set()

        if (
            self._brute.dirty_level is None
            and not self._plan_dirty
            and self._plan is not None
        ):
            # Same graph, but the path count behind it may have moved.
            meta = self._meta()
            if self._plan.meta != meta:
                self._plan = replace(self._plan, meta=meta)
            self._store_memo()
            if mode != MODE_FULL:
                mode = MODE_NOOP
            return result(mode, {}, len(dirty), changed_paths)

        plan = self._compile(timer)
        with timer.stage("diff"):
            diffs = diff_tables(prev_tables, plan.tables)
        self._store_memo()
        return result(mode, diffs, len(dirty), changed_paths)

    # ------------------------------------------------------------------
    # ELP cache maintenance
    # ------------------------------------------------------------------
    def _refresh_cert(self, timer: StageTimer) -> None:
        """Re-establish (or drop) the symmetry certificate for ``topo``."""
        if self.strategy != STRATEGY_SYMMETRY:
            self._cert = None
            return
        with timer.stage("certify"):
            self._cert = certify(self.topo, self.provider)

    def _provider_pair_paths(self, pair: Pair) -> Tuple[Path, ...]:
        """One pair's ELP — closed form while certified, else provider.

        The certificate's :meth:`~SymmetryCertificate.pair_paths` is
        byte-identical to the provider's on any topology it certifies
        (property-tested), so callers never observe which one ran.
        """
        src, dst = pair
        if self._cert is not None:
            return self._cert.pair_paths(src, dst)
        return self.provider.pair_paths(self.topo, src, dst)

    def _recompute_pair(self, pair: Pair) -> int:
        """Re-enumerate one pair; returns how many paths it lost + gained.

        Only the multiset difference between the old and new path sets
        touches the refcounted graph (which records the lowest level the
        change disturbs); unchanged paths never do.
        """
        old = self._pairs.get(pair, ())
        new = self._provider_pair_paths(pair)
        changed = 0
        if new != old:
            # Refcounts are additive, so only the multiset difference
            # needs to touch the brute-force graph: a link flap typically
            # preserves most of a pair's ECMP fan-out, and churning the
            # survivors would cost far more than the enumeration itself.
            old_counter = Counter(old)
            new_counter = Counter(new)
            for path in (old_counter - new_counter).elements():
                self._brute.remove_path(path)
                changed += 1
            for path in (new_counter - old_counter).elements():
                self._brute.add_path(path)
                changed += 1
            self._set_pair(pair, new)
        if self._base is not None:
            # Membership may flip even when this pair did not change: a
            # restore can undo the damage bookkeeping.
            if new != self._base.get(pair, ()):
                self._damaged.add(pair)
            else:
                self._damaged.discard(pair)
        return changed

    def _set_pair(self, pair: Pair, paths: Tuple[Path, ...]) -> None:
        old_links = self._pair_links.get(pair, frozenset())
        new_links: FrozenSet[LinkKey] = frozenset()
        if paths:
            new_links = frozenset().union(*(_path_links(p) for p in paths))
        for link in old_links - new_links:
            bucket = self._link_index.get(link)
            if bucket is not None:
                bucket.discard(pair)
                if not bucket:
                    del self._link_index[link]
        for link in new_links - old_links:
            self._link_index.setdefault(link, set()).add(pair)
        if paths:
            self._pairs[pair] = paths
            self._pair_links[pair] = new_links
        else:
            self._pairs.pop(pair, None)
            self._pair_links.pop(pair, None)

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def _full_build(self, timer: StageTimer) -> None:
        """From-scratch build of every pipeline stage (init path)."""
        self._refresh_cert(timer)
        with timer.stage("elp"):
            for pair in self.provider.ordered_pairs(self.topo):
                self._recompute_pair(pair)
        with timer.stage("bruteforce"):
            for path in self._extras:
                self._brute.add_path(path)
        if self._base is None and not self.topo.failed_links:
            self._base = dict(self._pairs)
            self._damaged = set()
        self._minimizer_valid = False
        self._compile(timer)
        self._store_memo()

    def _compile(self, timer: StageTimer) -> TaggerPlan:
        """Compile the current brute-force state through the shared tail.

        :func:`~repro.core.planner.compile_plan` is the pipeline; this
        method adds only what is the re-planner's own: refusing an empty
        ELP, choosing the checkpoint level the merge resumes from, and
        the ``_plan_dirty`` / ``_minimizer_valid`` bookkeeping. Any
        failure leaves ``_plan_dirty`` set so the (still intact)
        previous plan is never mistaken for the current topology's.
        """
        self._plan_dirty = True
        if not self._pairs and not self._extras:
            self._minimizer_valid = False
            raise TaggingError("empty ELP: nothing to tag")
        dirty_level, self._brute.dirty_level = self._brute.dirty_level, None
        from_level: Optional[int] = None
        if (
            self._minimizer_valid
            and dirty_level is not None
            and dirty_level > INITIAL_TAG
        ):
            from_level = min(dirty_level, self._minimizer.resumable_from)
            if from_level <= INITIAL_TAG:
                from_level = None

        def merge(graph: TaggedGraph) -> DeterministicTagging:
            # Checkpoints are trustworthy only after a run that finished.
            self._minimizer_valid = False
            result = self._minimizer.run(graph, from_level=from_level)
            self._minimizer_valid = True
            self._last_resume_level = from_level
            return result

        with timer.stage("minimize"):
            graph = self._brute.graph()
        plan = compile_plan(
            self.topo,
            graph,
            self.minimize,
            self.max_lossless_queues,
            self.on_conflict,
            timer,
            meta=self._meta(),
            merge=merge,
        )
        self._plan = plan
        self._plan_dirty = False
        return plan

    def _meta(self) -> Dict[str, Any]:
        """Plan provenance, same keys as :meth:`TaggerPlan.from_provider`."""
        return {
            "strategy": self.strategy,
            "certified": self._cert is not None,
            "elp_paths": sum(len(paths) for paths in self._pairs.values())
            + len(self._extras),
        }

    # ------------------------------------------------------------------
    # Memoization
    # ------------------------------------------------------------------
    def _memo_key(self) -> _MemoKey:
        # The strategy qualifies the fingerprint: a memoized exhaustive
        # plan must never satisfy a symmetry-mode request (or vice
        # versa) even though both hold identical bytes — their provenance
        # metadata and downstream perf expectations differ.
        return (
            f"{self.topo.fingerprint()}:{self.strategy}",
            tuple(sorted(self._extras)),
        )

    def _store_memo(self) -> None:
        if self._plan is None or self._plan_dirty or self.memo_capacity <= 0:
            return
        nodes, edges = self._brute.counts_snapshot()
        key = self._memo_key()
        self._memo[key] = _MemoEntry(
            pairs=dict(self._pairs),
            pair_links=dict(self._pair_links),
            link_index={k: set(v) for k, v in self._link_index.items()},
            damaged=set(self._damaged),
            node_counts=nodes,
            edge_counts=edges,
            extras=list(self._extras),
            plan=self._plan,
        )
        self._memo.move_to_end(key)
        while len(self._memo) > self.memo_capacity:
            self._memo.popitem(last=False)

    def _restore_memo(self, entry: _MemoEntry) -> None:
        self._pairs = dict(entry.pairs)
        self._pair_links = dict(entry.pair_links)
        self._link_index = {k: set(v) for k, v in entry.link_index.items()}
        self._damaged = set(entry.damaged)
        self._extras = list(entry.extras)
        self._brute.restore_counts(entry.node_counts, entry.edge_counts)
        # The minimizer's checkpoints describe a different graph history;
        # the next non-memo delta re-establishes them with a full merge.
        self._minimizer_valid = False
        self._plan = entry.plan
        self._plan_dirty = False
