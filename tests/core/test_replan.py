"""Unit tests for the incremental re-planning engine (repro.core.replan).

The property suite (tests/properties/test_incremental.py) establishes
equivalence with from-scratch planning under random churn; these tests
pin the engine's *mechanics*: mode selection (noop / memo / incremental
/ full), minimal rule diffs, memo eviction, path-delta validation
atomicity, and error recovery.
"""

import copy
import random
from collections import OrderedDict
from dataclasses import fields

import pytest

from repro.core import (
    IncrementalPlanner,
    ShortestPathElpProvider,
    TaggerPlan,
    UpDownElpProvider,
    bruteforce_tagging,
    tables_equal,
)
from repro.core.replan import (
    MEMO_CAPACITY,
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

from ..properties.test_symmetry_equivalence import Walked


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


class _LookupSpy(OrderedDict):
    """A plan memo that records every key looked up in it."""

    def __init__(self, entries):
        super().__init__(entries)
        self.lookups = []

    def get(self, key, default=None):
        self.lookups.append(key)
        return super().get(key, default)


def test_unloaded_link_down_is_noop_without_memo(planner):
    planner.apply(TopologyDelta.link_down("L1", "S1"))
    planner._memo = _LookupSpy(planner._memo)
    # Downing an already-failed link again touches no pair: the engine
    # must recognize it has nothing to recompute without asking the memo.
    result = planner.apply(TopologyDelta.link_down("L1", "S1"))
    assert result.mode == MODE_NOOP
    assert result.diffs == {}
    assert planner._memo.lookups == []


@pytest.mark.parametrize(
    "idle",
    [TopologyDelta.link_down("L1", "S1"), TopologyDelta.undrain("L3")],
    ids=["repeated-link-down", "undrain-undrained"],
)
def test_delta_that_changes_no_link_is_a_noop(idle):
    """A delta that leaves every link as it was is a noop, not a memo
    restore, and the next delta replans as if it never came."""

    def planner_after_first_flap():
        topo = clos3(ClosParams(2, 2, 2, 2, hosts_per_tor=1))
        planner = IncrementalPlanner(topo, UpDownElpProvider())
        planner.apply(TopologyDelta.link_down("L1", "S1"))
        return planner

    second = TopologyDelta.link_down("L2", "S2")
    want = planner_after_first_flap().apply(second)

    planner = planner_after_first_flap()
    plan = planner.plan
    result = planner.apply(idle)
    assert result.mode == MODE_NOOP
    assert result.diffs == {}
    assert result.plan is plan
    got = planner.apply(second)
    assert got.mode == MODE_INCREMENTAL
    assert canonical_tables(got.plan.tables) == canonical_tables(want.plan.tables)
    assert got.diffs == want.diffs


def test_repeating_a_refused_delta_is_refused_again():
    """No noop shortcut while the deployed plan is stale."""
    topo = _two_switch_line()
    planner = IncrementalPlanner(
        topo, ShortestPathElpProvider(explicit_endpoints=["A", "B"])
    )
    for _ in range(2):
        with pytest.raises(TaggingError, match="empty ELP"):
            planner.apply(TopologyDelta.link_down("A", "B"))


def test_link_up_without_known_base_falls_back_to_full():
    topo = testbed_clos()
    topo.fail_link("L1", "S1")  # planner never observes the pristine fabric
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    result = planner.apply(TopologyDelta.link_up("L1", "S1"))
    assert result.mode == MODE_FULL
    assert result.dirty_pairs == len(planner.provider.ordered_pairs(planner.topo))
    assert tables_equal(planner.plan.tables, planner.scratch_plan().tables)
    assert planner.plan.graph == planner.scratch_plan().graph


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
def test_memo_entries_share_the_live_state_and_stay_intact():
    """An entry holds the live state's path tuples and masks, not copies,
    and nothing the planner does later writes through to it."""
    topo = clos3(ClosParams(2, 2, 2, 2, hosts_per_tor=1))
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    planner.apply(TopologyDelta.link_down("L1", "S1"))
    entry = planner._memo[planner._memo_key()]
    plan = entry.plan
    assert all(entry.pairs[p] is paths for p, paths in planner._pairs.items())
    stored = copy.deepcopy(
        {f.name: getattr(entry, f.name) for f in fields(entry) if f.name != "plan"}
    )

    planner.apply(TopologyDelta.link_down("L2", "S2"))
    assert planner.apply(TopologyDelta.link_up("L2", "S2")).mode == MODE_MEMO
    planner.apply(TopologyDelta.link_down("L3", "S1"))
    planner.apply(TopologyDelta.add_paths([planner.elp_paths()[0]]))
    planner.apply(TopologyDelta.drain("L4"))

    assert {
        f.name: getattr(entry, f.name) for f in fields(entry) if f.name != "plan"
    } == stored
    assert entry.plan is plan


def test_memo_capacity_is_lru_bounded(planner):
    """Flapping more links than the memo holds evicts the oldest downed
    states; the pristine state, hit by every restore, stays."""
    pristine = planner._memo_key()
    links = sorted(
        key for key in planner.topo.links
        if key[0].startswith("L") and key[1].startswith("S")
    ) + sorted(
        key for key in planner.topo.links
        if key[0].startswith("L") and key[1].startswith("T")
    )
    assert len(links) > MEMO_CAPACITY
    downed = []
    for link in links:
        planner.apply(TopologyDelta.link_down(*link))
        downed.append(planner._memo_key())
        assert planner.apply(TopologyDelta.link_up(*link)).mode == MODE_MEMO
    assert len(planner._memo) == MEMO_CAPACITY == 8
    assert list(planner._memo) == downed[-(MEMO_CAPACITY - 1):] + [pristine]
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
    # The result fingerprint is the memo key's topology fingerprint.
    assert result.fingerprint == planner.topo.fingerprint()


# ----------------------------------------------------------------------
# Refcounted brute-force graph
# ----------------------------------------------------------------------
def test_refcounted_graph_zero_crossings_and_underflow():
    topo = testbed_clos()
    graph = _RefcountedGraph(topo)
    path = ("T1", "L1", "S1", "L3", "T3")

    def changed_by(shift):
        graph.changed = False
        shift(path)
        return graph.changed

    assert changed_by(graph.add_path)  # first add creates structure
    assert not changed_by(graph.add_path)  # refcount only
    assert not graph.is_empty
    assert not changed_by(graph.remove_path)  # count 2 -> 1
    assert changed_by(graph.remove_path)
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
@pytest.mark.parametrize(
    "provider, certified",
    [(UpDownElpProvider, True), (Walked, False)],
    ids=["symmetry", "exhaustive"],
)
def test_replanner_plans_carry_from_provider_meta(provider, certified):
    planner = IncrementalPlanner(testbed_clos(), provider())
    scratch = TaggerPlan.from_provider(testbed_clos(), provider())
    assert planner.plan.meta == scratch.meta
    assert planner.plan.meta["certified"] is certified
    assert planner.plan.meta["elp_paths"] == len(planner.elp_paths())
    result = planner.apply(TopologyDelta.link_down("L1", "S1"))
    assert result.mode == MODE_INCREMENTAL
    assert result.plan.meta == {
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
