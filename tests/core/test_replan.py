"""Unit tests for the incremental re-planning engine (repro.core.replan).

The property suite (tests/properties/test_incremental.py) establishes
equivalence with from-scratch planning under random churn; these tests
pin the engine's *mechanics*: mode selection (noop / memo / incremental
/ full), minimal rule diffs, checkpoint resume levels, memo eviction,
path-delta validation atomicity, and error recovery.
"""

import random

import pytest

from repro.core import (
    INITIAL_TAG,
    STRATEGY_EXHAUSTIVE,
    IncrementalPlanner,
    ShortestPathElpProvider,
    TaggerPlan,
    UpDownElpProvider,
    bruteforce_tagging,
    tables_equal,
)
from repro.core.replan import (
    MODE_FULL,
    MODE_INCREMENTAL,
    MODE_MEMO,
    MODE_NOOP,
    _RefcountedGraph,
)
from repro.core.rules import canonical_tables
from repro.exceptions import TaggingError
from repro.obs import Telemetry
from repro.topology import ClosParams, Topology, TopologyDelta, clos3, testbed_clos


@pytest.fixture
def planner():
    """Warm planner over the paper's testbed Clos with up-down ELP."""
    return IncrementalPlanner(testbed_clos(), UpDownElpProvider())


def apply_diffs(before, diffs):
    """Replay per-switch rule diffs onto canonical tables."""
    tables = {s: dict(t.rules) for s, t in before.items()}
    for switch, diff in diffs.items():
        rules = tables.setdefault(switch, {})
        for key, _old in diff.removed:
            del rules[key]
        for key, new in diff.added:
            assert key not in rules
            rules[key] = new
        for key, old, new in diff.changed:
            assert rules[key] == old
            rules[key] = new
    return {s: sorted((k, v) for k, v in r.items()) for s, r in tables.items() if r}


# ----------------------------------------------------------------------
# Initial build
# ----------------------------------------------------------------------
def test_initial_build_matches_scratch_and_times_stages(planner):
    scratch = planner.scratch_plan()
    assert tables_equal(planner.plan.tables, scratch.tables)
    assert planner.plan.graph == scratch.graph
    for stage in ("elp", "bruteforce", "minimize", "verify", "queue-map"):
        assert stage in planner.initial_timings


def test_unknown_minimize_mode_rejected():
    with pytest.raises(TaggingError):
        IncrementalPlanner(testbed_clos(), UpDownElpProvider(), minimize="best")


# ----------------------------------------------------------------------
# Mode selection
# ----------------------------------------------------------------------
def test_link_down_is_incremental_and_diff_replays(planner):
    before = {s: t for s, t in planner.plan.tables.items()}
    result = planner.apply(TopologyDelta.link_down("L1", "S1"))
    assert result.mode == MODE_INCREMENTAL
    assert result.dirty_pairs > 0
    # The emitted diff must transform the old deployment into the new one.
    replayed = apply_diffs(before, result.diffs)
    expected = {
        s: sorted((k, v) for k, v in t.rules.items())
        for s, t in planner.plan.tables.items()
        if t.rules
    }
    assert replayed == expected
    assert "minimize" in result.timings and "diff" in result.timings


def test_restore_hits_the_memo(planner):
    baseline = canonical_tables(planner.plan.tables)
    planner.apply(TopologyDelta.link_down("L1", "S1"))
    result = planner.apply(TopologyDelta.link_up("L1", "S1"))
    assert result.mode == MODE_MEMO
    assert canonical_tables(planner.plan.tables) == baseline
    # A full fail/restore cycle later, the downed state is memoized too.
    result = planner.apply(TopologyDelta.link_down("L1", "S1"))
    assert result.mode == MODE_MEMO


def test_unloaded_link_down_is_noop_without_memo():
    planner = IncrementalPlanner(
        testbed_clos(), UpDownElpProvider(), memo_capacity=0
    )
    planner.apply(TopologyDelta.link_down("L1", "S1"))
    # Downing an already-failed link again touches no pair: with the memo
    # disabled the engine must recognize it has nothing to recompute.
    result = planner.apply(TopologyDelta.link_down("L1", "S1"))
    assert result.mode == MODE_NOOP
    assert result.diffs == {}


def test_force_full_recomputes_everything(planner):
    result = planner.apply(
        TopologyDelta.link_down("L1", "S1"), force_full=True
    )
    assert result.mode == MODE_FULL
    assert result.dirty_pairs == len(planner.provider.ordered_pairs(planner.topo))
    assert tables_equal(planner.plan.tables, planner.scratch_plan().tables)


def test_link_up_without_known_base_falls_back_to_full():
    topo = testbed_clos()
    topo.fail_link("L1", "S1")  # planner never observes the pristine fabric
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    result = planner.apply(TopologyDelta.link_up("L1", "S1"))
    assert result.mode == MODE_FULL
    assert tables_equal(planner.plan.tables, planner.scratch_plan().tables)


def test_drain_and_undrain_round_trip(planner):
    baseline = canonical_tables(planner.plan.tables)
    down = planner.apply(TopologyDelta.drain("L2"))
    assert down.mode == MODE_INCREMENTAL
    assert planner.topo.failed_links
    up = planner.apply(TopologyDelta.undrain("L2"))
    assert up.mode == MODE_MEMO
    assert canonical_tables(planner.plan.tables) == baseline
    assert not planner.topo.failed_links


# ----------------------------------------------------------------------
# Checkpoint resume
# ----------------------------------------------------------------------
def test_spine_link_churn_resumes_above_initial_level():
    topo = clos3(ClosParams(num_pods=2, tors_per_pod=2, leaves_per_pod=2,
                            num_spines=2, hosts_per_tor=1))
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    link = sorted(
        key for key in planner._link_index
        if key[0].startswith("L") and key[1].startswith("S")
    )[0]
    result = planner.apply(TopologyDelta.link_down(*link))
    assert result.mode == MODE_INCREMENTAL
    # A leaf-spine flap cannot touch tag-1 ingress state (ToR uplinks),
    # so the deterministic minimizer resumes from a checkpoint > 1.
    assert result.resume_level is not None
    assert result.resume_level > INITIAL_TAG
    assert tables_equal(planner.plan.tables, planner.scratch_plan().tables)


def test_tor_link_churn_forces_full_merge(planner):
    link = sorted(
        key for key in planner._link_index
        if key[0].startswith("L") and key[1].startswith("T")
    )[0]
    result = planner.apply(TopologyDelta.link_down(*link))
    # ToR uplink changes dirty tag-1 state: no checkpoint applies.
    assert result.resume_level is None
    assert tables_equal(planner.plan.tables, planner.scratch_plan().tables)


# ----------------------------------------------------------------------
# Path deltas
# ----------------------------------------------------------------------
def test_duplicate_path_pin_is_structural_noop(planner):
    pin = planner.elp_paths()[0]
    result = planner.apply(TopologyDelta.add_paths([pin]))
    # The refcounted graph absorbs the duplicate without any zero
    # crossing: same nodes, same edges, same plan.
    assert result.mode == MODE_NOOP
    result = planner.apply(TopologyDelta.remove_paths([pin]))
    assert result.mode == MODE_NOOP
    assert tables_equal(planner.plan.tables, planner.scratch_plan().tables)


def test_remove_never_added_path_rejected_atomically(planner):
    ghost = planner.elp_paths()[0]  # provider-owned, not a pinned extra
    before = canonical_tables(planner.plan.tables)
    with pytest.raises(TaggingError, match="never added"):
        planner.apply(TopologyDelta.remove_paths([ghost]))
    assert canonical_tables(planner.plan.tables) == before
    # Planner still serves deltas after the rejection.
    assert planner.apply(TopologyDelta.link_down("L1", "S1")).mode


def test_invalid_pin_rejected_before_any_state_change(planner):
    before = canonical_tables(planner.plan.tables)
    with pytest.raises(Exception):
        planner.apply(
            TopologyDelta.add_paths([("T1", "NOPE", "T2")])
        )
    assert canonical_tables(planner.plan.tables) == before


# ----------------------------------------------------------------------
# Empty-ELP refusal and recovery
# ----------------------------------------------------------------------
def _two_switch_line():
    topo = Topology(name="line")
    topo.add_switch("A", layer=0)
    topo.add_switch("B", layer=0)
    topo.add_link("A", "B")
    return topo


def test_empty_elp_refused_then_recovers():
    topo = _two_switch_line()
    provider = ShortestPathElpProvider(explicit_endpoints=["A", "B"])
    planner = IncrementalPlanner(topo, provider)
    with pytest.raises(TaggingError, match="empty ELP"):
        planner.apply(TopologyDelta.link_down("A", "B"))
    # The topology change stayed applied; the old plan is not served as
    # if it matched the current fabric.
    assert ("A", "B") in planner.topo.failed_links
    result = planner.apply(TopologyDelta.link_up("A", "B"))
    assert result.plan is planner.plan
    assert tables_equal(planner.plan.tables, planner.scratch_plan().tables)


# ----------------------------------------------------------------------
# Memoization bounds
# ----------------------------------------------------------------------
def test_memo_key_is_strategy_qualified():
    sym = IncrementalPlanner(testbed_clos(), UpDownElpProvider())
    exh = IncrementalPlanner(
        testbed_clos(), UpDownElpProvider(), strategy=STRATEGY_EXHAUSTIVE
    )
    assert sym._memo_key() != exh._memo_key()
    assert sym._memo_key()[0].endswith(":symmetry")
    assert exh._memo_key()[0].endswith(":exhaustive")


def test_foreign_strategy_memo_never_hits():
    """A plan memoized under one strategy must miss under the other.

    Regression: the key used to be the bare topology fingerprint, so a
    planner handed a memo populated under the other enumeration strategy
    would serve it — byte-identical tables, but lying provenance meta
    and stage timings. The strategy-qualified key pins the miss.
    """
    sym = IncrementalPlanner(testbed_clos(), UpDownElpProvider())
    sym.apply(TopologyDelta.link_down("L1", "S1"))
    sym.apply(TopologyDelta.link_up("L1", "S1"))

    # Control: a same-strategy planner sharing the memo store hits.
    twin = IncrementalPlanner(testbed_clos(), UpDownElpProvider())
    twin._memo = sym._memo
    assert twin.apply(TopologyDelta.link_down("L1", "S1")).mode == MODE_MEMO

    # An exhaustive planner inheriting the same store must not.
    exh = IncrementalPlanner(
        testbed_clos(), UpDownElpProvider(), strategy=STRATEGY_EXHAUSTIVE
    )
    exh._memo = sym._memo
    result = exh.apply(TopologyDelta.link_down("L1", "S1"))
    assert result.mode != MODE_MEMO


def test_memo_capacity_is_lru_bounded():
    planner = IncrementalPlanner(
        testbed_clos(), UpDownElpProvider(), memo_capacity=2
    )
    links = [("L1", "S1"), ("L2", "S1"), ("L3", "S2")]
    for link in links:
        planner.apply(TopologyDelta.link_down(*link))
        planner.apply(TopologyDelta.link_up(*link))
    assert len(planner._memo) <= 2
    assert tables_equal(planner.plan.tables, planner.scratch_plan().tables)


# ----------------------------------------------------------------------
# Result surface
# ----------------------------------------------------------------------
def test_result_summary_and_counters(planner):
    result = planner.apply(TopologyDelta.link_down("L1", "S1"))
    text = result.summary()
    assert "link-down L1<->S1" in text
    assert "dirty pair(s)" in text
    assert result.total_seconds > 0
    assert result.total_rule_touches == sum(
        d.touch_count for d in result.diffs.values()
    )
    # The result fingerprint is the memo key: topology fingerprint
    # qualified by the enumeration strategy.
    assert result.fingerprint == (
        f"{planner.topo.fingerprint()}:{planner.strategy}"
    )


# ----------------------------------------------------------------------
# Refcounted brute-force graph
# ----------------------------------------------------------------------
def test_refcounted_graph_zero_crossings_and_underflow():
    topo = testbed_clos()
    graph = _RefcountedGraph(topo)
    path = ("T1", "L1", "S1", "L3", "T3")
    nodes, edges = graph.add_path(path)
    assert nodes and edges  # first add creates structure
    again_nodes, again_edges = graph.add_path(path)
    assert not again_nodes and not again_edges  # refcount only
    assert not graph.is_empty
    removed_nodes, removed_edges = graph.remove_path(path)
    assert not removed_nodes and not removed_edges  # count 2 -> 1
    removed_nodes, removed_edges = graph.remove_path(path)
    assert sorted(removed_nodes) == sorted(nodes)
    assert sorted(removed_edges) == sorted(edges)
    assert graph.is_empty
    with pytest.raises(TaggingError):
        graph.remove_path(path)


@pytest.mark.parametrize("seed", [3, 11])
def test_refcounted_graph_tracks_algorithm_1_at_every_prefix(seed):
    """Adding paths one by one equals Algorithm 1 on the prefix; removing
    them all (in another order) returns to empty."""
    topo = clos3(ClosParams(2, 2, 2, 2, hosts_per_tor=1))
    topo.fail_link("L1", "S1")
    paths = UpDownElpProvider().build(topo).paths + [
        ("H1", "T1", "L1", "S2", "L3", "T3", "H3"),
        ("T1", "L2", "S1", "L4"),
        ("T2",),
    ]
    random.Random(seed).shuffle(paths)
    counted = _RefcountedGraph(topo)
    for i, path in enumerate(paths, 1):
        counted.add_path(path)
        assert counted.graph() == bruteforce_tagging(topo, paths[:i])
    random.Random(seed + 1).shuffle(paths)
    while paths:
        counted.remove_path(paths.pop())
        if paths:
            assert counted.graph() == bruteforce_tagging(topo, paths)
    assert counted.is_empty
    assert counted.counts_snapshot() == ({}, {})


# ----------------------------------------------------------------------
# Plan provenance (meta) and the gauge it feeds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["symmetry", STRATEGY_EXHAUSTIVE])
def test_replanner_plans_carry_from_provider_meta(strategy):
    planner = IncrementalPlanner(
        testbed_clos(), UpDownElpProvider(), strategy=strategy
    )
    scratch = TaggerPlan.from_provider(
        testbed_clos(), UpDownElpProvider(), strategy=strategy
    )
    assert planner.plan.meta == scratch.meta
    assert planner.plan.meta["elp_paths"] == len(planner.elp_paths())
    result = planner.apply(TopologyDelta.link_down("L1", "S1"))
    assert result.mode == MODE_INCREMENTAL
    assert result.plan.meta == {
        "strategy": strategy,
        "certified": False,
        "elp_paths": len(planner.elp_paths()),
    }
    assert result.plan.fit_to_queues(4).meta == result.plan.meta


def test_planner_elp_paths_gauge_is_exported_and_tracks_the_elp():
    telemetry = Telemetry()
    planner = IncrementalPlanner(
        testbed_clos(), UpDownElpProvider(), telemetry=telemetry
    )

    def gauge():
        return telemetry.registry.get("planner_elp_paths").value()

    assert "planner_elp_paths" in telemetry.registry.render_prometheus()
    assert gauge() == len(planner.elp_paths()) == 72
    planner.apply(TopologyDelta.link_down("L1", "S1"))
    assert gauge() == len(planner.elp_paths()) < 72
    planner.apply(TopologyDelta.link_up("L1", "S1"))  # memo hit
    assert gauge() == 72
    # An extra the graph already covers changes no rule (noop) but is
    # still one more ELP path.
    covered = planner.elp_paths()[0]
    result = planner.apply(TopologyDelta.add_paths([covered]))
    assert result.mode == MODE_NOOP
    assert gauge() == len(planner.elp_paths()) == 73
