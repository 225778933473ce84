"""Differential oracle for the delta-proportional verifier.

``certify_rollout`` concludes boundary and per-wave safety from the
global union by subgraph implication and shares lint sections across
boundaries. ``oracle_certify`` does neither. Every certificate below
must be equal field for field — including every unsafe transition,
where the error text is part of the contract.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IncrementalPlanner, TaggerPlan, UpDownElpProvider
from repro.core.rules import RuleTable, diff_tables
from repro.core.tags import INITIAL_TAG
from repro.deploy import REFUSED, certify_rollout, plan_waves, run_rollout
from repro.fuzz.faults import rule_decrease_tag, rule_tag_cycle
from repro.lint import DeploymentArtifact
from repro.topology import ClosParams, TopologyDelta, clos3

from .oracle_certify import oracle_certify_rollout

CLOS16 = ClosParams(
    num_pods=4, tors_per_pod=4, leaves_per_pod=2, num_spines=2, hosts_per_tor=1
)
FLAPS = (("L1", "S1"), ("L3", "S2"), ("T1", "L1"), ("T6", "L4"))


def assert_same_certificate(topo, old, new, waves, lint_boundaries=True):
    got = certify_rollout(topo, old, new, waves, lint_boundaries)
    want = oracle_certify_rollout(topo, old, new, waves, lint_boundaries)
    assert got.to_dict() == want.to_dict()
    assert got.states_covered == want.states_covered
    assert got.switches_touched == want.switches_touched
    assert got.first_error() == want.first_error()
    assert got.describe() == want.describe()
    return got


def _snapshot(tables):
    return {
        switch: RuleTable(switch=switch, rules=dict(table.rules))
        for switch, table in tables.items()
    }


@pytest.fixture(scope="module")
def flap_transitions():
    """(topo, old, new) per link-flap delta on a 16-ToR Clos: each link
    goes down and comes back, through the warm incremental planner."""
    topo = clos3(CLOS16)
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    transitions = []
    for a, b in FLAPS:
        for make in (TopologyDelta.link_down, TopologyDelta.link_up):
            old = _snapshot(planner.plan.tables)
            planner.apply(make(a, b))
            new = _snapshot(planner.plan.tables)
            assert diff_tables(old, new)
            transitions.append((planner.topo, old, new))
    return transitions


def _loop_rule(topo, near, far):
    port = topo.port_to(near, far)
    return RuleTable(
        switch=near, rules={(INITIAL_TAG, port, port): INITIAL_TAG}
    )


class TestSafeTransitions:
    def test_link_flaps_in_planned_waves(self, flap_transitions):
        for topo, old, new in flap_transitions:
            for wave_size in (1, 8):
                waves = plan_waves(topo, diff_tables(old, new), wave_size)
                cert = assert_same_certificate(topo, old, new, waves)
                assert cert.ok and cert.covers_stragglers

    def test_greenfield_from_empty(self, flap_transitions):
        topo, _, plan = flap_transitions[0]
        waves = plan_waves(topo, diff_tables({}, plan), 8)
        cert = assert_same_certificate(topo, {}, plan, waves)
        assert cert.ok

    def test_teardown_to_empty_and_identity(self, flap_transitions):
        topo, old, _ = flap_transitions[0]
        waves = plan_waves(topo, diff_tables(old, {}), 8)
        assert_same_certificate(topo, old, {}, waves)
        assert_same_certificate(topo, old, old, [])

    def test_union_graph_only(self, flap_transitions):
        topo, old, new = flap_transitions[1]
        waves = plan_waves(topo, diff_tables(old, new), 8)
        assert_same_certificate(topo, old, new, waves, lint_boundaries=False)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        index=st.integers(min_value=0, max_value=2 * len(FLAPS) - 1),
        seed=st.integers(min_value=0, max_value=2**16),
        drop=st.booleans(),
    )
    def test_random_wave_partitions(self, flap_transitions, index, seed, drop):
        """Any ordering and grouping of the changed switches — and, with
        ``drop``, a partition that leaves one of them out, so the last
        boundary is *not* the new plan."""
        topo, old, new = flap_transitions[index]
        rng = random.Random(seed)
        switches = sorted(diff_tables(old, new))
        rng.shuffle(switches)
        if drop and len(switches) > 1:
            switches.pop()
        waves = []
        while switches:
            size = rng.randint(1, len(switches))
            waves.append(switches[:size])
            switches = switches[size:]
        assert_same_certificate(topo, old, new, waves)


class TestUnsafeTransitions:
    def test_global_union_fails_per_wave_unions_pass(self, triangle):
        old = {"A": _loop_rule(triangle, "A", "B")}
        new = {"B": _loop_rule(triangle, "B", "A")}
        cert = assert_same_certificate(triangle, old, new, [["A"], ["B"]])
        assert cert.ok and not cert.covers_stragglers

    def test_only_singleton_waves_certify(self, triangle):
        old = {"A": _loop_rule(triangle, "A", "B")}
        new = {"B": _loop_rule(triangle, "B", "A")}
        cert = assert_same_certificate(triangle, old, new, [["A", "B"]])
        assert not cert.ok and cert.wave_errors[0] is not None

    def test_unsafe_target(self, triangle):
        new = {
            "A": _loop_rule(triangle, "A", "B"),
            "B": _loop_rule(triangle, "B", "A"),
        }
        for waves in ([["A"], ["B"]], [["A", "B"]], [["B"], ["A"]]):
            for lint_boundaries in (True, False):
                cert = assert_same_certificate(
                    triangle, {}, new, waves, lint_boundaries
                )
                assert not cert.ok

    def test_unsafe_start(self, triangle):
        """Leaving an unsafe plan: boundary 0 fails, the last passes."""
        old = {
            "A": _loop_rule(triangle, "A", "B"),
            "B": _loop_rule(triangle, "B", "A"),
        }
        cert = assert_same_certificate(triangle, old, {}, [["A"], ["B"]])
        assert cert.boundary_errors[0] and not cert.boundary_errors[-1]

    @pytest.mark.parametrize("fault", [rule_decrease_tag, rule_tag_cycle])
    def test_faulted_target_tables(self, testbed, fault):
        """The fuzz harness's artifact faults as rollout targets: a
        tag-decreasing rule (the graph cannot even be rebuilt) and a
        same-tag ping-pong (R1 fails at the last boundary)."""
        plan = TaggerPlan.for_clos(testbed, max_bounces=1)
        old = dict(plan.tables)
        new = fault(DeploymentArtifact.from_plan(plan)).tables
        assert diff_tables(old, new)
        for wave_size in (1, 8):
            waves = plan_waves(testbed, diff_tables(old, new), wave_size)
            cert = assert_same_certificate(testbed, old, new, waves)
            assert not cert.ok
        # ...and as the fleet's starting point, rolling back to clean.
        waves = plan_waves(testbed, diff_tables(new, old), 8)
        assert_same_certificate(testbed, new, old, waves)


class TestOrchestratorVerdicts:
    def test_refusal_carries_the_oracle_error(self, triangle):
        new = {
            "A": _loop_rule(triangle, "A", "B"),
            "B": _loop_rule(triangle, "B", "A"),
        }
        report = run_rollout(triangle, {}, new)
        assert report.outcome == REFUSED and report.rpc_count == 0
        want = oracle_certify_rollout(triangle, {}, new, report.waves)
        assert report.detail == (
            f"transition not certifiable: {want.first_error()}"
        )

    def test_singleton_retry_matches_the_oracle(self, triangle):
        old = {"A": _loop_rule(triangle, "A", "B")}
        new = {"B": _loop_rule(triangle, "B", "A")}
        report = run_rollout(triangle, old, new)
        assert report.converged
        assert report.waves == [["A"], ["B"]]
        want = oracle_certify_rollout(triangle, old, new, report.waves)
        assert report.certificate.to_dict() == want.to_dict()

    def test_flap_rollout_certificate(self, flap_transitions):
        topo, old, new = flap_transitions[0]
        report = run_rollout(topo, old, new)
        assert report.converged and report.final_lint_ok
        want = oracle_certify_rollout(topo, old, new, report.waves)
        assert report.certificate.to_dict() == want.to_dict()
        assert report.certificate.states_covered == want.states_covered
