"""Tests for ELP discovery from routing state (paper §6)."""

import pytest

from repro.core import (
    TaggerPlan,
    elp_under_failures,
    single_link_failure_scenarios,
    trace_elp,
)
from repro.routing import (
    apply_local_reroute,
    count_bounces,
    install_loop,
    is_loop_free,
    shortest_path_tables,
)


class TestTraceElp:
    def test_healthy_fabric_paths_are_updown(self, testbed):
        table = shortest_path_tables(testbed)
        elp = trace_elp(testbed, table)
        assert len(elp) > 0
        for path in elp:
            assert is_loop_free(path)
            assert count_bounces(testbed, path) == 0

    def test_covers_all_host_pairs(self, testbed):
        table = shortest_path_tables(testbed)
        elp = trace_elp(testbed, table)
        pairs = {(p[0], p[-1]) for p in elp}
        assert len(pairs) == 16 * 15

    def test_restricted_endpoints(self, testbed):
        table = shortest_path_tables(testbed)
        elp = trace_elp(testbed, table, endpoints=["H1", "H9"])
        pairs = {(p[0], p[-1]) for p in elp}
        assert pairs == {("H1", "H9"), ("H9", "H1")}

    def test_loops_excluded(self, testbed):
        table = shortest_path_tables(testbed)
        install_loop(table, "H9", "T3", "L3")
        elp = trace_elp(testbed, table, endpoints=["H1", "H9"])
        # Every surviving path is loop-free; H1->H9 paths are gone.
        destinations = {p[-1] for p in elp}
        assert "H9" not in destinations

    def test_elp_feeds_planner(self, testbed):
        table = shortest_path_tables(testbed)
        elp = trace_elp(testbed, table)
        plan = TaggerPlan.from_elp(testbed, elp)
        assert plan.verify().deadlock_free
        assert plan.coverage(elp) == 1.0


class TestElpUnderFailures:
    def test_failure_scenarios_add_paths(self, testbed):
        scenarios = [[("L1", "T1")], [("L3", "T4")]]
        merged = elp_under_failures(
            testbed,
            shortest_path_tables,
            scenarios,
            endpoints=["H1", "H9", "H13"],
        )
        healthy = trace_elp(
            testbed, shortest_path_tables(testbed), endpoints=["H1", "H9", "H13"]
        )
        assert len(merged) >= len(healthy)
        # Topology left clean.
        assert not testbed.failed_links

    def test_transient_factory_yields_bounce_paths(self, testbed):
        """Composing the factory with local repair discovers real
        1-bounce paths, which the resulting plan must keep lossless."""

        def transient_tables(topo):
            table = shortest_path_tables(topo)
            # Heal around failures locally (stale upstream state).
            for a, b in topo.failed_links:
                try:
                    apply_local_reroute(topo, table, (a, b))
                except Exception:
                    pass
            return table

        def converged_then_failed(topo):
            # Tables computed BEFORE the failure, then locally repaired.
            failed = set(topo.failed_links)
            topo.restore_all()
            table = shortest_path_tables(topo)
            for a, b in failed:
                topo.fail_link(a, b)
                apply_local_reroute(topo, table, (a, b))
            return table

        merged = elp_under_failures(
            testbed,
            converged_then_failed,
            [[("L1", "T1")]],
            endpoints=["H9", "H1"],
            hashes=range(16),
        )
        bounces = {count_bounces(testbed, p) for p in merged}
        assert 1 in bounces, "expected a discovered 1-bounce path"
        plan = TaggerPlan.from_elp(testbed, merged)
        assert plan.coverage(merged) == 1.0

    def test_single_link_scenarios_enumeration(self, testbed):
        scenarios = single_link_failure_scenarios(testbed)
        assert len(scenarios) == 16  # switch-to-switch links only
