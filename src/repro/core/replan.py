"""Incremental re-planning engine (paper §6, "Topology changes").

A Tagger deployment must track topology churn: the paper measures
hundreds of reroute events per day (§3.2), and recomputing the full
pipeline — ELP enumeration, Algorithm 1, deterministic minimization,
rule compilation — from scratch on every link flap is wasteful when a
single link touches a tiny fraction of the ELP.

:class:`IncrementalPlanner` keeps the whole pipeline state warm and
recomputes only what a :class:`~repro.topology.failures.TopologyDelta`
actually invalidates:

1. **Pair-path cache + per-pair link masks.** The ELP is expressed
   through a :class:`~repro.core.elp.PairwiseElpProvider`, whose
   contract makes each endpoint pair's path set an independent function
   of the topology. Each pair also keeps the links its current paths
   traverse as one int, a bitmask over the topology's sorted links; a
   link-down is one pass of ``mask & down`` over the pairs. A *damaged*
   set (pairs whose current paths differ from the no-failure baseline)
   bounds which pairs a restore can affect. Only those pairs are
   re-derived, all of one delta's in one provider call that is handed
   their current paths and the links the delta removed. Path tuples and
   masks are immutable, so the live state and every memo entry share
   them and the cyclic collector has next to nothing to walk.
2. **Refcounted brute-force graph.** Every ELP path contributes
   reference counts to the Algorithm-1 nodes/edges it induces; the
   tagged graph is exactly the entries with a positive count, so path
   adds/removes update it in O(hops) and the result is bit-identical
   to re-running Algorithm 1 (the graph is a set, order-free).
3. **Plan memo.** Full resulting states are memoized per topology
   fingerprint (plus the pinned extra-path signature), so fail→restore
   flaps replay from cache. Certification is a function of the
   topology and the planner's fixed provider, so an entry's provenance
   is the one a recompute would report.
4. **Symmetry certificate.** The planner keeps a
   :mod:`repro.core.symmetry` certificate of the current topology
   whenever :func:`~repro.core.symmetry.certify` grants one; while it
   holds (healthy symmetric Clos), per-pair enumeration uses the
   certificate's closed form instead of the provider's graph search,
   and the initial build seeds the refcounted graph from the
   certificate's closed-form counts
   (:meth:`~repro.core.symmetry.SymmetryCertificate.path_counts`)
   instead of walking every path. Any asymmetry — a failed link, a
   drain — invalidates the certificate and pair recomputation degrades
   to the provider's per-pair walk, byte-identically.

Any change to the brute-force graph is compiled whole: the
deterministic merge reruns on the full graph, a few tens of milliseconds
at clos64, and resuming it from a per-level watermark measured no faster
(docs/PERFORMANCE.md). When the provider contract cannot localize a
restore, because the planner never saw the no-failure baseline, every
pair is recomputed rather than guessed. In **every** mode the resulting
plan is certifiably equivalent to :meth:`TaggerPlan.from_elp` on the
provider's from-scratch ELP plus the pinned extras
(:meth:`IncrementalPlanner.scratch_plan`): identical rule tables, tagged
graph, and queue map. It is so by construction where that is possible —
each path is counted through the same
:func:`~repro.core.tags.tagged_walk` Algorithm 1 adds, and the graph is
compiled by the same :func:`~repro.core.planner.compile_plan` — and by
test where it is not (the refcounts, the certificate-seeded initial
counts and the pair cache: property-tested in
``tests/properties/test_incremental.py`` and
``tests/properties/test_symmetry_equivalence.py``, and fuzz-checked as
the ``incremental-divergence`` invariant).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, replace
from functools import reduce
from operator import or_
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.elp import PairwiseElpProvider, canonical_elp_path
from repro.core.planner import TaggerPlan, compile_plan
from repro.core.rules import RuleDiff, diff_tables
from repro.core.symmetry import SymmetryCertificate, certify
from repro.core.tags import TaggedGraph, TEdge, TNode, tagged_walk
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

#: Plan-memo entries kept, least recently used evicted first: enough for
#: the fail/restore states of a few concurrent flaps.
MEMO_CAPACITY = 8


class _RefcountedGraph:
    """Algorithm-1 tagged graph maintained as per-path reference counts.

    ``add_path``/``remove_path`` count one path's
    :func:`~repro.core.tags.tagged_walk` (the same walk
    :func:`repro.core.bruteforce.bruteforce_tagging` adds) and set
    :attr:`changed` when a count crosses zero — a *structural* change.
    :meth:`graph` materializes the positive-count entries; because
    :class:`TaggedGraph` is set-structured, the result is identical to
    running Algorithm 1 from scratch on the current path multiset, in
    any insertion order.
    """

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self._nodes: Dict[TNode, int] = {}
        self._edges: Dict[TEdge, int] = {}
        #: Whether a node or edge appeared or vanished since the owner
        #: last reset this; False means the graph compiles to the same plan.
        self.changed = False

    @property
    def is_empty(self) -> bool:
        return not self._nodes

    def add_path(self, path: Path) -> None:
        self._shift(path, +1)

    def remove_path(self, path: Path) -> None:
        self._shift(path, -1)

    def _shift(self, path: Path, delta: int) -> None:
        """Add ``delta`` (+1 or -1) to the count of every node and edge of
        the path's walk; a count that reaches zero leaves its dict, so the
        dicts hold exactly the live graph.

        Node and edge bookkeeping sit side by side in one loop rather
        than behind a per-dict helper: this is the per-path loop of an
        uncertified init (231 k paths at clos64),
        where a shared per-dict helper measured +0.22 s (+20 %) against
        this form (docs/PERFORMANCE.md).
        """
        node_counts, edge_counts = self._nodes, self._edges
        last: Optional[TNode] = None
        for node in tagged_walk(self.topo, path):
            count = node_counts.get(node, 0) + delta
            if count > 0:
                node_counts[node] = count
                if count == delta:  # was 0: created
                    self.changed = True
            elif count == 0:
                del node_counts[node]
                self.changed = True
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
                        self.changed = True
                elif count == 0:
                    del edge_counts[edge]
                    self.changed = True
                else:
                    raise TaggingError(f"refcount underflow at edge {edge}")
            last = node

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
        self.changed = False


@dataclass
class _MemoEntry:
    """Full post-plan state for one (fingerprint, extras) key.

    The dicts, sets and list are the entry's own shallow copies; what
    they hold (pair keys, path tuples, link masks) and the plan are
    immutable and shared with the live state and the other entries, so
    an entry costs its containers, not the paths behind them. The
    refcount dicts must be copies because the live graph updates its own
    in place.
    """

    pairs: Dict[Pair, Tuple[Path, ...]]
    pair_links: Dict[Pair, int]
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


class IncrementalPlanner:
    """Warm-state Tagger planner that absorbs topology deltas.

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
        #: Closed-form pair enumeration certificate; non-None only while
        #: the topology stays a healthy symmetric Clos under an exact
        #: :class:`~repro.core.elp.UpDownElpProvider`.
        self._cert: Optional[SymmetryCertificate] = None
        #: Optional observability hookup; a pure observer (never consulted
        #: by the planning pipeline itself).
        self.telemetry = telemetry

        #: Bit of each link, in either orientation: bit ``i`` is the
        #: ``i``-th of the topology's sorted links. Deltas only fail or
        #: restore existing links, so the numbering holds for the
        #: planner's lifetime.
        self._link_bit: Dict[LinkKey, int] = {}
        for i, (a, b) in enumerate(sorted(topo.links)):
            self._link_bit[(a, b)] = self._link_bit[(b, a)] = 1 << i
        self._pairs: Dict[Pair, Tuple[Path, ...]] = {}
        #: Links the pair's current paths traverse, as a mask over
        #: ``_link_bit``; present exactly for the pairs in ``_pairs``.
        self._pair_links: Dict[Pair, int] = {}
        #: Pairs whose current path set differs from the no-failure
        #: baseline; only meaningful while ``_base`` is known.
        self._damaged: Set[Pair] = set()
        #: Pair paths of the pristine (no failed links) topology. None
        #: until the planner has observed that state.
        self._base: Optional[Dict[Pair, Tuple[Path, ...]]] = None

        self._extras: List[Path] = []
        self._brute = _RefcountedGraph(topo)
        self._plan: Optional[TaggerPlan] = None
        #: True when the deployed tables no longer match the brute-force
        #: state (a previous apply raised mid-pipeline).
        self._plan_dirty = True
        self._memo: "OrderedDict[_MemoKey, _MemoEntry]" = OrderedDict()

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
        """From-scratch plan for the current state (differential oracle).

        The ELP is the provider's fresh enumeration of the current
        topology plus the pinned extras, never the planner's pair cache,
        so a stale cached pair shows as a divergence.
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
            certified=self._cert is not None,
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
        prev_tables = self._plan.tables if self._plan is not None else {}

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
            touched = apply_delta(self.topo, delta)

        is_path_delta = delta.kind in (ADD_PATHS, REMOVE_PATHS)
        # A repeated link-down, or an undrain of a switch that is not
        # drained, leaves every link as it was: the current plan is the
        # answer, with no memo lookup.
        unchanged = (
            not is_path_delta
            and not self._plan_dirty
            and self.topo.failed_links == failed_before
        )
        if not is_path_delta and not unchanged:
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
                fingerprint=memo_key[0],
            )

        if unchanged:
            return result(MODE_NOOP, {})
        if not is_path_delta:
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
        removed: Set[LinkKey] = set()
        changed_paths = 0

        with timer.stage("elp"):
            if is_path_delta:
                dirty = set()
            elif delta.kind in (LINK_DOWN, DRAIN):
                # Locality: a pair's path set can change only if one of
                # its current paths traverses a link that went down.
                removed = set(touched)
                down = reduce(or_, map(self._link_bit.__getitem__, touched), 0)
                dirty = {
                    pair
                    for pair, links in self._pair_links.items()
                    if links & down
                }
            else:  # link-up / undrain
                if self._base is None:
                    # Never saw the pristine baseline: cannot bound the
                    # restore's blast radius. Recompute everything.
                    mode = MODE_FULL
                    dirty = set(self.provider.ordered_pairs(self.topo))
                else:
                    dirty = set(self._damaged)
            changed_paths += self._recompute_pairs(sorted(dirty), removed)

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
            not self._brute.changed
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
        with timer.stage("certify"):
            self._cert = certify(self.topo, self.provider)

    def _recompute_pairs(
        self, pairs: List[Pair], removed: Set[LinkKey]
    ) -> int:
        """Re-derive ``pairs`` after a delta that took down ``removed``;
        returns how many paths they lost + gained.

        One call answers every pair: the certificate's closed form while
        it holds (byte-identical to the provider's on any topology it
        certifies, property-tested), else one
        :meth:`~repro.core.elp.PairwiseElpProvider.rederive_pairs` call.
        Only a pair whose path set changed touches the refcounted graph
        (with the multiset difference, which records the lowest level the
        change disturbs) and its link mask.
        """
        current = {pair: self._pairs.get(pair, ()) for pair in pairs}
        if self._cert is not None:
            cert = self._cert
            fresh = {pair: cert.pair_paths(*pair) for pair in pairs}
        else:
            fresh = self.provider.rederive_pairs(self.topo, current, removed)
        changed = 0
        base = self._base
        for pair in pairs:
            old, new = current[pair], fresh[pair]
            if new != old:
                # Refcounts are additive, so only the multiset difference
                # needs to touch the brute-force graph: a link flap
                # typically preserves most of a pair's ECMP fan-out, and
                # churning the survivors would cost far more than the
                # enumeration itself.
                old_counter = Counter(old)
                new_counter = Counter(new)
                for path in (old_counter - new_counter).elements():
                    self._brute.remove_path(path)
                    changed += 1
                for path in (new_counter - old_counter).elements():
                    self._brute.add_path(path)
                    changed += 1
                self._set_pair(pair, new)
            if base is not None:
                # Membership may flip even when this pair did not change:
                # a restore can undo the damage bookkeeping.
                if new != base.get(pair, ()):
                    self._damaged.add(pair)
                else:
                    self._damaged.discard(pair)
        return changed

    def _set_pair(self, pair: Pair, paths: Tuple[Path, ...]) -> None:
        if paths:
            # Links the paths traverse (host hops included).
            hops = {hop for path in paths for hop in zip(path, path[1:])}
            self._pairs[pair] = paths
            self._pair_links[pair] = reduce(
                or_, map(self._link_bit.__getitem__, hops), 0
            )
        else:
            self._pairs.pop(pair, None)
            self._pair_links.pop(pair, None)

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def _full_build(self, timer: StageTimer) -> None:
        """From-scratch build of every pipeline stage (init path)."""
        self._refresh_cert(timer)
        # A certificate's closed forms give both the pair paths and the
        # refcounts their walks would sum to, so a certified build walks
        # no ELP path; the masks stay the generic ones every delta keeps.
        cert = self._cert
        pairs = self.provider.ordered_pairs(self.topo)
        with timer.stage("elp"):
            if cert is None:
                self._recompute_pairs(pairs, set())
            else:
                for pair in pairs:
                    self._set_pair(pair, cert.pair_paths(*pair))
        with timer.stage("bruteforce"):
            if cert is not None:
                self._brute.restore_counts(*cert.path_counts())
            for path in self._extras:
                self._brute.add_path(path)
        if self._base is None and not self.topo.failed_links:
            self._base = dict(self._pairs)
            self._damaged = set()
        self._compile(timer)
        self._store_memo()

    def _compile(self, timer: StageTimer) -> TaggerPlan:
        """Compile the current brute-force state through the shared tail.

        :func:`~repro.core.planner.compile_plan` is the pipeline; this
        method adds only what is the re-planner's own: refusing an empty
        ELP and the ``_plan_dirty`` bookkeeping. Any failure leaves
        ``_plan_dirty`` set so the (still intact) previous plan is never
        mistaken for the current topology's.
        """
        self._plan_dirty = True
        if not self._pairs and not self._extras:
            raise TaggingError("empty ELP: nothing to tag")
        self._brute.changed = False
        with timer.stage("minimize"):
            graph = self._brute.graph()
        plan = compile_plan(
            self.topo,
            graph,
            self.max_lossless_queues,
            timer,
            meta=self._meta(),
        )
        self._plan = plan
        self._plan_dirty = False
        return plan

    def _meta(self) -> Dict[str, Any]:
        """Plan provenance, same keys as :meth:`TaggerPlan.from_provider`."""
        return {
            "certified": self._cert is not None,
            "elp_paths": sum(len(paths) for paths in self._pairs.values())
            + len(self._extras),
        }

    # ------------------------------------------------------------------
    # Memoization
    # ------------------------------------------------------------------
    def _memo_key(self) -> _MemoKey:
        return self.topo.fingerprint(), tuple(sorted(self._extras))

    def _store_memo(self) -> None:
        if self._plan is None or self._plan_dirty:
            return
        nodes, edges = self._brute.counts_snapshot()
        key = self._memo_key()
        self._memo[key] = _MemoEntry(
            pairs=dict(self._pairs),
            pair_links=dict(self._pair_links),
            damaged=set(self._damaged),
            node_counts=nodes,
            edge_counts=edges,
            extras=list(self._extras),
            plan=self._plan,
        )
        self._memo.move_to_end(key)
        while len(self._memo) > MEMO_CAPACITY:
            self._memo.popitem(last=False)

    def _restore_memo(self, entry: _MemoEntry) -> None:
        self._pairs = dict(entry.pairs)
        self._pair_links = dict(entry.pair_links)
        self._damaged = set(entry.damaged)
        self._extras = list(entry.extras)
        self._brute.restore_counts(entry.node_counts, entry.edge_counts)
        self._plan = entry.plan
        self._plan_dirty = False
