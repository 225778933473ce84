"""Tests for the fault-tolerant rollout orchestrator."""

import pytest

from repro.core.rules import RuleTable, diff_tables, tables_equal
from repro.core.tags import INITIAL_TAG
from repro.deploy import (
    CONVERGED,
    DEGRADED,
    FAILED,
    FAULT_CRASH_BEFORE_ACK,
    FAULT_OK,
    FAULT_PARTIAL,
    FAULT_REORDER,
    FAULT_TIMEOUT,
    REFUSED,
    ROLLED_BACK,
    FaultPlan,
    RolloutConfig,
    RolloutOrchestrator,
    plan_waves,
    run_rollout,
)
from repro.deploy.orchestrator import BREAKER_THRESHOLD, _backoff
from repro.exceptions import DeploymentError


def _loop_rule(topo, near, far):
    port = topo.port_to(near, far)
    return RuleTable(
        switch=near, rules={(INITIAL_TAG, port, port): INITIAL_TAG}
    )


class TestPlanWaves:
    def test_core_first_and_layer_separated(self, transition):
        topo, old, new = transition
        waves = plan_waves(topo, diff_tables(old, new), max_wave_size=8)
        layers = [
            {topo.layer_of(s) for s in wave} for wave in waves
        ]
        # Each wave is single-layer, and layers descend (spine first).
        assert all(len(layer_set) == 1 for layer_set in layers)
        flat = [layer_set.pop() for layer_set in layers]
        assert flat == sorted(flat, reverse=True)

    def test_chunking_respects_max_wave_size(self, transition):
        topo, old, new = transition
        waves = plan_waves(topo, diff_tables(old, new), max_wave_size=1)
        assert all(len(wave) == 1 for wave in waves)

    def test_empty_diff_gives_no_waves(self, transition):
        topo, old, _ = transition
        assert plan_waves(topo, {}, max_wave_size=8) == []


class TestConfig:
    def test_bad_parameters_rejected(self):
        with pytest.raises(DeploymentError):
            RolloutConfig(max_attempts=0)
        with pytest.raises(DeploymentError):
            RolloutConfig(max_wave_size=0)

    def test_backoff_is_capped_exponential_with_jitter(self):
        import random

        # 0.05 s doubling per attempt, capped at 2 s, plus up to 10 %.
        for attempt, base in ((1, 0.05), (2, 0.1), (3, 0.2), (7, 2.0), (9, 2.0)):
            seen = {round(_backoff(attempt, random.Random(s)), 6) for s in range(20)}
            assert len(seen) > 1  # jitter actually varies
            assert all(base <= d <= base * 1.1 for d in seen)


class TestHappyPath:
    def test_fault_free_rollout_converges(self, transition):
        topo, old, new = transition
        report = run_rollout(topo, old, new)
        assert report.outcome == CONVERGED
        assert report.ok and report.converged
        assert report.final_lint_ok and report.final_matches_target
        assert report.certificate is not None and report.certificate.ok
        assert report.quarantined == []
        assert report.rpc_count > 0
        assert set(report.timings) >= {
            "plan-waves", "certify", "execute", "verify-final",
        }

    def test_final_tables_match_target(self, transition):
        topo, old, new = transition
        orch = RolloutOrchestrator(topo, old, new)
        orch.run()
        assert tables_equal(orch.final_tables(), new)

    def test_already_at_target_sends_nothing(self, transition):
        topo, old, _ = transition
        report = run_rollout(topo, old, old)
        assert report.outcome == CONVERGED
        assert report.waves == []
        assert report.rpc_count == 0

    def test_refused_transition_sends_nothing(self, triangle):
        new = {
            "A": _loop_rule(triangle, "A", "B"),
            "B": _loop_rule(triangle, "B", "A"),
        }
        report = run_rollout(triangle, {}, new)
        assert report.outcome == REFUSED
        assert report.ok and not report.converged
        assert report.rpc_count == 0
        assert "not certifiable" in report.detail

    def test_singleton_fallback_rescues_union_conflict(self, triangle):
        """One-wave certification fails (old/new union cycles) but the
        orchestrator retries with singleton waves and proceeds."""
        old = {"A": _loop_rule(triangle, "A", "B")}
        new = {"B": _loop_rule(triangle, "B", "A")}
        report = run_rollout(triangle, old, new)
        assert report.outcome == CONVERGED
        assert all(len(wave) == 1 for wave in report.waves)


class TestRetries:
    def test_transient_timeouts_are_retried(self, transition):
        topo, old, new = transition
        victim = sorted(diff_tables(old, new))[0]
        faults = FaultPlan(
            fates={victim: (FAULT_TIMEOUT, FAULT_TIMEOUT, FAULT_OK)}
        )
        report = run_rollout(topo, old, new, faults=faults)
        assert report.outcome == CONVERGED
        assert report.switch_outcomes[victim].attempts >= 3
        assert report.virtual_time > 0.0  # backoff accrued on the clock

    def test_crash_and_partial_recover(self, transition):
        topo, old, new = transition
        diffs = sorted(diff_tables(old, new))
        faults = FaultPlan(
            fates={
                diffs[0]: (FAULT_CRASH_BEFORE_ACK,),
                diffs[-1]: (FAULT_PARTIAL, FAULT_REORDER),
            }
        )
        report = run_rollout(topo, old, new, faults=faults)
        assert report.outcome == CONVERGED
        assert report.final_matches_target

    def test_breaker_threshold_bounds_attempts(self, transition):
        topo, old, new = transition
        victim = sorted(diff_tables(old, new))[0]
        config = RolloutConfig(max_attempts=20)
        faults = FaultPlan(stuck_from={victim: 0})
        report = run_rollout(topo, old, new, config=config, faults=faults)
        outcome = report.switch_outcomes[victim]
        # The breaker cut both the push and the quarantine wipe short,
        # long before the 20-attempt budget.
        assert outcome.breaker_open or outcome.quarantined
        assert outcome.attempts <= 2 * BREAKER_THRESHOLD < 20


class TestDegradation:
    def test_stuck_switch_is_quarantined(self, transition):
        topo, old, new = transition
        victim = sorted(diff_tables(old, new))[0]
        faults = FaultPlan(stuck_from={victim: 0})
        report = run_rollout(topo, old, new, faults=faults)
        assert report.outcome == DEGRADED
        assert report.converged and report.ok
        assert report.quarantined == [victim]
        assert report.final_lint_ok
        assert report.switch_outcomes[victim].quarantined

    def test_no_quarantine_rolls_back(self, transition):
        """Stuck early, recovered for rollback: the fleet must return to
        the old plan byte-for-byte."""
        topo, old, new = transition
        victim = sorted(diff_tables(old, new))[0]
        config = RolloutConfig(max_attempts=2, quarantine=False)
        # Two timeouts exhaust the 2-attempt wave budget; the third eats
        # the first rollback attempt, then the switch heals and the
        # rollback write + readback land.
        faults = FaultPlan(fates={victim: (FAULT_TIMEOUT,) * 3})
        orch = RolloutOrchestrator(
            topo, old, new, config=config, faults=faults
        )
        result = orch.run()
        assert result.outcome == ROLLED_BACK
        assert result.ok and not result.converged
        assert result.final_matches_target
        assert tables_equal(orch.final_tables(), old)
        assert result.final_lint_ok
        assert result.switch_outcomes[victim].rolled_back

    def test_permanently_stuck_without_quarantine_fails_honestly(
        self, transition
    ):
        topo, old, new = transition
        victim = sorted(diff_tables(old, new))[0]
        config = RolloutConfig(quarantine=False)
        faults = FaultPlan(stuck_from={victim: 0})
        report = run_rollout(topo, old, new, config=config, faults=faults)
        assert report.outcome == FAILED
        assert not report.ok
        # Even the failure leaves only certified states behind.
        assert report.final_lint_ok

    def test_rollback_uses_fresh_epoch(self, transition):
        topo, old, new = transition
        victim = sorted(diff_tables(old, new))[0]
        config = RolloutConfig(max_attempts=1, quarantine=False)
        faults = FaultPlan(fates={victim: (FAULT_TIMEOUT, FAULT_TIMEOUT)})
        report = run_rollout(topo, old, new, config=config, faults=faults)
        if report.outcome == ROLLED_BACK:
            assert report.epochs_used > len(report.waves)


class TestReadbackVerification:
    def test_phantom_ack_agent_cannot_fake_convergence(self, transition):
        """An agent that acks without applying must be caught by the
        readback check and quarantined, never reported converged."""
        topo, old, new = transition
        victim = sorted(diff_tables(old, new))[0]
        orch = RolloutOrchestrator(topo, old, new)
        orch.agents[victim].op_filter = lambda op: None
        report = orch.run()
        assert report.outcome == DEGRADED
        assert victim in report.quarantined
        assert report.switch_outcomes[victim].reconciles >= 1

    def test_constructor_rejects_faults_with_prebuilt_network(
        self, transition
    ):
        from repro.deploy import ManagementNetwork, fleet_from_tables

        topo, old, new = transition
        agents = fleet_from_tables(old)
        network = ManagementNetwork(agents)
        with pytest.raises(DeploymentError):
            RolloutOrchestrator(
                topo, old, new, faults=FaultPlan(), network=network
            )


class TestReport:
    def test_to_dict_roundtrips_to_json(self, transition):
        import json

        topo, old, new = transition
        report = run_rollout(topo, old, new)
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["outcome"] == CONVERGED
        assert blob["ok"] is True
        assert blob["certificate"]["ok"] is True

    def test_describe_mentions_outcome(self, transition):
        topo, old, new = transition
        text = run_rollout(topo, old, new).describe()
        assert "outcome: converged" in text
        assert "certificate:" in text
