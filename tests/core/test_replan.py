"""Unit tests for the re-planning engine (repro.core.replan).

The property suite (tests/properties/test_incremental.py) establishes
equivalence with from-scratch planning under random churn; these tests
pin the engine's *mechanics*: mode selection (noop / incremental /
full), minimal rule diffs, path-delta validation atomicity and error
recovery.
"""

import pytest

from repro.core import (
    IncrementalPlanner,
    ShortestPathElpProvider,
    TaggerPlan,
    UpDownElpProvider,
    tables_equal,
)
from repro.core.replan import MODE_FULL, MODE_INCREMENTAL, MODE_NOOP
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


def test_unloaded_link_down_is_noop_without_memo(planner, monkeypatch):
    planner.apply(TopologyDelta.link_down("L1", "S1"))

    def replan(*args, **kwargs):
        raise AssertionError("a repeated link-down planned again")

    monkeypatch.setattr(TaggerPlan, "from_provider", replan)
    # Downing an already-failed link again changes no link: the engine
    # must recognize it has nothing to plan, with no state to consult.
    result = planner.apply(TopologyDelta.link_down("L1", "S1"))
    assert result.mode == MODE_NOOP
    assert result.diffs == {}


@pytest.mark.parametrize(
    "idle",
    [TopologyDelta.link_down("L1", "S1"), TopologyDelta.undrain("L3")],
    ids=["repeated-link-down", "undrain-undrained"],
)
def test_delta_that_changes_no_link_is_a_noop(idle):
    """A delta that leaves every link as it was is a noop, not a replan,
    and the next delta replans as if it never came."""

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


def test_planner_first_built_on_a_damaged_fabric_restores_certified():
    """No pristine baseline is needed: the certificate covers the fabric
    with every link up, so the restore is a certified plan."""
    topo = testbed_clos()
    topo.fail_link("L1", "S1")
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    assert planner.plan.meta["certified"] is True
    assert planner.plan.meta["walked_pairs"] > 0
    result = planner.apply(TopologyDelta.link_up("L1", "S1"))
    assert result.mode == MODE_INCREMENTAL
    assert result.dirty_pairs == 0
    assert tables_equal(planner.plan.tables, planner.scratch_plan().tables)
    assert planner.plan.graph == planner.scratch_plan().graph


def test_drain_and_undrain_round_trip(planner):
    baseline = canonical_tables(planner.plan.tables)
    down = planner.apply(TopologyDelta.drain("L2"))
    assert down.mode == MODE_INCREMENTAL
    assert down.dirty_pairs > 0
    assert planner.topo.failed_links
    up = planner.apply(TopologyDelta.undrain("L2"))
    assert up.mode == MODE_INCREMENTAL
    assert up.dirty_pairs == 0
    assert canonical_tables(planner.plan.tables) == baseline
    assert not planner.topo.failed_links


# ----------------------------------------------------------------------
# Path deltas
# ----------------------------------------------------------------------
def test_duplicate_path_pin_is_structural_noop(planner):
    pin = planner.provider.pair_paths(planner.topo, "T1", "T3")[0]
    # The pin adds no node and no edge: the plan is the same, so the
    # diff is empty, and only the path count moves.
    result = planner.apply(TopologyDelta.add_paths([pin]))
    assert result.diffs == {}
    assert result.plan.meta["elp_paths"] == 73
    result = planner.apply(TopologyDelta.remove_paths([pin]))
    assert result.diffs == {}
    assert result.plan.meta["elp_paths"] == 72
    assert tables_equal(planner.plan.tables, planner.scratch_plan().tables)


def test_remove_never_added_path_rejected_atomically(planner):
    # Provider-owned, not a pinned extra.
    ghost = planner.provider.pair_paths(planner.topo, "T1", "T3")[0]
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
    assert planner.plan.meta["elp_paths"] == 72
    result = planner.apply(TopologyDelta.link_down("L1", "S1"))
    assert result.mode == (MODE_INCREMENTAL if certified else MODE_FULL)
    assert result.dirty_pairs == result.plan.meta["walked_pairs"]
    assert result.changed_paths == result.plan.meta["walked_paths"]
    if not certified:  # the whole walk
        assert result.dirty_pairs == len(planner.provider.ordered_pairs(planner.topo))
        assert result.changed_paths == result.plan.meta["elp_paths"]
    topo = testbed_clos()
    topo.fail_link("L1", "S1")
    assert result.plan.meta == TaggerPlan.from_provider(topo, provider()).meta
    assert result.plan.meta["elp_paths"] == len(provider().build(topo))
    assert result.plan.fit_to_queues(4).meta == result.plan.meta


def test_planner_elp_paths_gauge_is_exported_and_tracks_the_elp():
    telemetry = Telemetry()
    planner = IncrementalPlanner(
        testbed_clos(), UpDownElpProvider(), telemetry=telemetry
    )

    def gauge():
        return telemetry.registry.get("planner_elp_paths").value()

    def fresh():
        return len(planner.provider.build(planner.topo)) + len(planner._extras)

    assert "planner_elp_paths" in telemetry.registry.render_prometheus()
    assert gauge() == fresh() == 72
    planner.apply(TopologyDelta.link_down("L1", "S1"))
    assert gauge() == fresh() < 72
    planner.apply(TopologyDelta.link_up("L1", "S1"))
    assert gauge() == 72
    # An extra the graph already covers changes no rule but is still one
    # more ELP path.
    covered = planner.provider.pair_paths(planner.topo, "T1", "T3")[0]
    result = planner.apply(TopologyDelta.add_paths([covered]))
    assert result.diffs == {}
    assert gauge() == fresh() == 73
