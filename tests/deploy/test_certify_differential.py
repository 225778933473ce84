"""Differential oracle for the delta-proportional verifier.

``certify_rollout`` concludes boundary and per-wave safety from the
global union by subgraph implication, and builds each boundary's lint
errors from per-switch sections instead of linting it. ``oracle_certify``
does neither. Every certificate below must be equal field for field —
including every unsafe transition, where the error text is part of the
contract, and every seeded T/S fault, wherever it sits.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.lint.linter as linter_module
from repro.core import IncrementalPlanner, TaggerPlan, UpDownElpProvider
from repro.core.rules import RuleTable, diff_tables, rules_to_tagged_graph
from repro.core.tags import INITIAL_TAG
from repro.deploy import (
    REFUSED,
    certify_rollout,
    mixed_tables,
    plan_waves,
    run_rollout,
)
from repro.fuzz.faults import rule_decrease_tag, rule_tag_cycle
from repro.lint import DeploymentArtifact
from repro.lint.graph_checks import _effective_graph, port_maps, rule_sections
from repro.topology import ClosParams, TopologyDelta, clos3

from .oracle_certify import oracle_certify_rollout

CLOS16 = ClosParams(
    num_pods=4, tors_per_pod=4, leaves_per_pod=2, num_spines=2, hosts_per_tor=1
)
FLAPS = (("L1", "S1"), ("L3", "S2"), ("T1", "L1"), ("T6", "L4"))


def assert_same_certificate(topo, old, new, waves):
    got = certify_rollout(topo, old, new, waves)
    want = oracle_certify_rollout(topo, old, new, waves)
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
            cert = assert_same_certificate(triangle, {}, new, waves)
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


# ----------------------------------------------------------------------
# Seeded faults: a malformed rule or program, wherever it sits
# ----------------------------------------------------------------------
#: Program perturbations, applied where the linter compiles a table.
PROGRAM_FAULTS = {
    # The safeguard default is gone.
    "S105": lambda program: list(program[:-1]),
    # An explicit entry is gone: its keys fall through to the safeguard.
    "S104": lambda program: list(program[1:]),
    # A copy of the first entry with another rewrite shadows it.
    "S101": lambda program: [
        replace(program[0], new_tag=program[0].new_tag + 1),
        *program,
    ],
}


def _seed_program_fault(monkeypatch, table, code):
    """Compile ``table``'s exact content with the ``code`` fault, in the
    production verifier and the oracle alike (both lint through
    ``repro.lint.linter``). A compiler is a function of rules and ports,
    so every switch holding that content miscompiles the same way."""
    real = linter_module.tcam_program
    rules = dict(table.rules)

    def compile_program(reference, ports):
        program = real(reference, ports)
        if reference.rules == rules:
            return PROGRAM_FAULTS[code](program)
        return program

    monkeypatch.setattr(linter_module, "tcam_program", compile_program)


def _seed_rule_fault(topo, table, code):
    """Make one of ``table``'s rules malformed, in place."""
    if code == "T002":  # egress faces a switch: the graph cannot be built
        _, in_port, out_port = min(table.rules)
        table.rules[(INITIAL_TAG + 1, in_port, out_port)] = INITIAL_TAG
    elif code == "T003":  # host-facing negative rewrite: a live bad tag
        host = next(
            port
            for port, peer in sorted(topo.ports(table.switch).items())
            if topo.node(peer).is_host
        )
        table.rules[(INITIAL_TAG, host, host)] = -1
    else:  # T004: the ingress port does not exist
        key = min(table.rules)
        table.rules[(key[0], 99, key[2])] = table.rules[key]


def _fault_sites(topo, old, new):
    """(changed switch, unchanged switch, ToR with a host and no table)."""
    changed = sorted(diff_tables(old, new))[0]
    unchanged = next(
        s
        for s in sorted(old)
        if s in new and old[s].rules == new[s].rules and s != changed
    )
    tor = next(s for s in sorted(topo.switches) if s not in old and s not in new)
    return changed, unchanged, tor


def _faulted(topo, old, new, code, where):
    """Copies of ``old``/``new`` with a ``code`` rule fault in the old
    table, the new table, or a switch outside every wave (both sides)."""
    old, new = _snapshot(old), _snapshot(new)
    changed, unchanged, tor = _fault_sites(topo, old, new)
    site = tor if code == "T003" else changed if where != "outside" else unchanged
    sides = {"old": [old], "new": [new], "outside": [old, new]}[where]
    for tables in sides:
        table = tables.setdefault(site, RuleTable(switch=site))
        _seed_rule_fault(topo, table, code)
    return old, new


WHERE = ("old", "new", "outside")


class TestSeededFaults:
    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("code", sorted(PROGRAM_FAULTS))
    def test_program_fault(self, monkeypatch, flap_transitions, code, where):
        """Union-safe path: the fault is in a program only, so the global
        union certifies and every boundary is judged by its sections."""
        topo, old, new = flap_transitions[0]
        changed, unchanged, _ = _fault_sites(topo, old, new)
        faulted = {
            "old": old[changed],
            "new": new[changed],
            "outside": old[unchanged],
        }[where]
        _seed_program_fault(monkeypatch, faulted, code)
        for wave_size in (1, 8):
            waves = plan_waves(topo, diff_tables(old, new), wave_size)
            cert = assert_same_certificate(topo, old, new, waves)
            assert cert.covers_stragglers and not cert.ok
            assert any(code in e for errors in cert.boundary_errors for e in errors)

    def test_faults_on_several_switches_keep_the_linter_order(
        self, monkeypatch, flap_transitions
    ):
        topo, old, new = flap_transitions[0]
        changed, unchanged, _ = _fault_sites(topo, old, new)
        for table, code in (
            (old[changed], "S105"),
            (new[changed], "S101"),
            (old[unchanged], "S104"),
        ):
            _seed_program_fault(monkeypatch, table, code)
        waves = plan_waves(topo, diff_tables(old, new), 1)
        cert = assert_same_certificate(topo, old, new, waves)
        assert all(len(errors) >= 2 for errors in cert.boundary_errors)

    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("code", ["T002", "T003", "T004"])
    def test_rule_fault(self, flap_transitions, code, where):
        topo, old, new = flap_transitions[0]
        old, new = _faulted(topo, old, new, code, where)
        for wave_size in (1, 8):
            waves = plan_waves(topo, diff_tables(old, new), wave_size)
            cert = assert_same_certificate(topo, old, new, waves)
            assert not cert.ok

    def test_host_facing_negative_rewrite_reports_b302(self, flap_transitions):
        """The case that sends a boundary to the full linter: its
        fabric-wide stage adds B302 for the live tag -1."""
        topo, old, new = flap_transitions[0]
        old, new = _faulted(topo, old, new, "T003", "outside")
        waves = plan_waves(topo, diff_tables(old, new), 8)
        cert = assert_same_certificate(topo, old, new, waves)
        assert all(
            any("B302" in e for e in errors) for errors in cert.boundary_errors
        )

    @pytest.mark.parametrize("code", sorted(PROGRAM_FAULTS))
    def test_per_wave_path_lints_the_boundaries_it_certifies(
        self, monkeypatch, flap_transitions, code
    ):
        """A tag-decreasing rule in the old table of the last wave's switch
        fails the global union; the boundaries after its wave certify
        per boundary and carry a program fault on another switch."""
        topo, old, new = flap_transitions[0]
        old, new = _faulted(topo, old, new, "T002", "old")
        changed, unchanged, _ = _fault_sites(topo, old, new)
        _seed_program_fault(monkeypatch, old[unchanged], code)
        waves = plan_waves(topo, diff_tables(old, new), 1)
        waves = [w for w in waves if changed not in w] + [[changed]]
        cert = assert_same_certificate(topo, old, new, waves)
        assert not cert.covers_stragglers
        assert any(code in e for e in cert.boundary_errors[-1])


class TestLintGraphIsCertified:
    """Why T001 cannot fire at a linted boundary: lint's effective graph
    is a subgraph of the graph the verifier certified for it."""

    @staticmethod
    def _assert_subgraph(small, big):
        assert small.nodes <= big.nodes
        assert set(small.edges()) <= set(big.edges())

    def _check(self, topo, old, new, waves):
        cert = certify_rollout(topo, old, new, waves)
        union = rules_to_tagged_graph(topo, old)
        for src, dst in rules_to_tagged_graph(topo, new).edges():
            union.add_edge(src, dst)
        done = set()
        for k in range(len(waves) + 1):
            if k:
                done |= set(waves[k - 1])
            tables = mixed_tables(old, new, done)
            certified = (
                union
                if cert.covers_stragglers
                else rules_to_tagged_graph(topo, tables)
            )
            sections = rule_sections(topo, tables)
            self._assert_subgraph(
                _effective_graph(sections, port_maps(topo, sections)), certified
            )
        return cert

    def test_union_safe_path(self, flap_transitions):
        for topo, old, new in flap_transitions:
            waves = plan_waves(topo, diff_tables(old, new), 1)
            assert self._check(topo, old, new, waves).covers_stragglers

    def test_per_wave_path(self, triangle):
        old = {"A": _loop_rule(triangle, "A", "B")}
        new = {"B": _loop_rule(triangle, "B", "A")}
        cert = self._check(triangle, old, new, [["A"], ["B"]])
        assert cert.ok and not cert.covers_stragglers
