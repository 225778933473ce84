"""Tests for the transitional-safety verifier."""

from repro.core.rules import RuleTable, diff_tables
from repro.core.tags import INITIAL_TAG
from repro.deploy import (
    certify_rollout,
    mixed_tables,
    plan_waves,
    transition_queue_map,
)


def _loop_rule(topo, near, far):
    """A self-bouncing rule on ``near`` toward ``far`` (one cycle half)."""
    port = topo.port_to(near, far)
    return RuleTable(
        switch=near, rules={(INITIAL_TAG, port, port): INITIAL_TAG}
    )


class TestMixedTables:
    def test_updated_switches_take_new(self, transition):
        _, old, new = transition
        some = sorted(set(old) & set(new))[0]
        mixed = mixed_tables(old, new, {some})
        assert mixed[some].rules == new[some].rules
        for other in set(old) - {some}:
            assert mixed[other].rules == old[other].rules

    def test_switch_absent_from_plan_is_omitted(self, triangle):
        old = {"A": _loop_rule(triangle, "A", "B")}
        mixed = mixed_tables(old, {}, {"A"})
        assert mixed == {}  # updated to a plan with no table for A

    def test_mixed_tables_order_pinned(self, triangle):
        """Insertion order is sorted, independent of input dict order.

        Everything downstream of the mixed table set — wave reports,
        lint rendering, union-graph edge order — inherits this order,
        so it must not depend on hash seeding or the order the plans
        happened to be built in (DET003 in docs/SELFCHECK.md).
        """
        rules = {
            name: _loop_rule(triangle, name, peer)
            for name, peer in (("A", "B"), ("B", "C"), ("C", "A"))
        }
        old = {name: rules[name] for name in ("C", "A")}  # scrambled
        new = {name: rules[name] for name in ("B", "C", "A")}
        for updated in (set(), {"B"}, {"A", "B", "C"}):
            mixed = mixed_tables(old, new, updated)
            assert list(mixed) == sorted(mixed)
        # Switches only in `new` interleave into the same sorted order.
        assert list(mixed_tables(old, new, set())) == ["A", "C"]
        assert list(mixed_tables(old, new, {"A", "B", "C"})) == [
            "A",
            "B",
            "C",
        ]


class TestQueueMap:
    def test_covers_both_plans(self, transition):
        _, old, new = transition
        qmap = transition_queue_map(old, new)
        max_tag = max(
            max((k[0] for t in tables.values() for k in t.rules), default=1)
            for tables in (old, new)
        )
        for tag in range(INITIAL_TAG, max_tag + 1):
            assert qmap.queue_for(tag) is not None


class TestCertifyRollout:
    def test_real_transition_certifies(self, transition):
        topo, old, new = transition
        waves = plan_waves(topo, diff_tables(old, new), max_wave_size=8)
        cert = certify_rollout(topo, old, new, waves)
        assert cert.ok
        assert cert.covers_stragglers
        assert len(cert.boundary_errors) == len(waves) + 1
        assert len(cert.wave_errors) == len(waves)
        assert cert.states_covered >= 2 ** cert.switches_touched
        assert "certified" in cert.describe()
        assert cert.first_error() is None

    def test_identity_transition_certifies(self, transition):
        topo, old, _ = transition
        cert = certify_rollout(topo, old, old, [])
        assert cert.ok and cert.covers_stragglers
        assert cert.boundary_errors == [[]]

    def test_union_cycle_fails_single_wave(self, triangle):
        """Old routes A->B, new routes B->A: each plan alone is safe but
        their union closes a same-tag cycle, so a wave holding both
        switches cannot be certified."""
        old = {"A": _loop_rule(triangle, "A", "B")}
        new = {"B": _loop_rule(triangle, "B", "A")}
        cert = certify_rollout(triangle, old, new, [["A", "B"]])
        assert not cert.ok
        assert cert.wave_errors[0] is not None
        assert "R1" in cert.wave_errors[0]
        assert not cert.covers_stragglers
        assert "UNSAFE" in cert.describe()

    def test_union_cycle_passes_with_singleton_waves(self, triangle):
        """Removing A's half before installing B's keeps every reachable
        state cycle-free: singleton waves certify what one wave cannot —
        but stragglers are NOT covered (the global union still cycles)."""
        old = {"A": _loop_rule(triangle, "A", "B")}
        new = {"B": _loop_rule(triangle, "B", "A")}
        cert = certify_rollout(triangle, old, new, [["A"], ["B"]])
        assert cert.ok
        assert not cert.covers_stragglers
        assert cert.global_error is not None
        assert "wave-ordered states only" in cert.describe()

    def test_unsafe_target_fails_boundary(self, triangle):
        """A target plan that itself cycles fails at the final boundary
        no matter the ordering."""
        new = {
            "A": _loop_rule(triangle, "A", "B"),
            "B": _loop_rule(triangle, "B", "A"),
        }
        cert = certify_rollout(triangle, {}, new, [["A"], ["B"]])
        assert not cert.ok
        assert cert.boundary_errors[-1]
        assert cert.first_error() is not None

    def test_one_wave_into_a_cycle_is_refused(self, triangle):
        new = {
            "A": _loop_rule(triangle, "A", "B"),
            "B": _loop_rule(triangle, "B", "A"),
        }
        cert = certify_rollout(triangle, {}, new, [["A", "B"]])
        assert not cert.ok

    def test_to_dict_is_json_shaped(self, transition):
        topo, old, new = transition
        waves = plan_waves(topo, diff_tables(old, new), max_wave_size=8)
        blob = certify_rollout(topo, old, new, waves).to_dict()
        assert blob["ok"] is True
        assert blob["covers_stragglers"] is True
        assert isinstance(blob["waves"], list)
        assert blob["global_error"] is None
