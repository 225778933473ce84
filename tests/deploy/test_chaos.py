"""Seeded chaos sweep — the rollout's converge-or-roll-back guarantee.

Acceptance bar (ISSUE 4): across hundreds of seeded fault schedules
(timeouts, crashes, partial batches, duplicates, reorders, wedged
switches), every rollout must end in full convergence, a certified
degraded state, or a clean rollback — with final tables that lint clean
and zero reachable mixed states violating R1/R2 (guaranteed up front by
the transitional-safety certificate the orchestrator refuses to run
without).
"""

from repro.core.rules import diff_tables, tables_equal
from repro.deploy import (
    CONVERGED,
    DEGRADED,
    ROLLED_BACK,
    RolloutConfig,
    RolloutOrchestrator,
    random_fault_plan,
)

#: Seeds swept by the tier-1 chaos test. 320 > the 300-schedule bar.
NUM_SCHEDULES = 320
BASE_SEED = 9000


def _sweep(transition, config, stuck_prob, rate=0.35, **plan_kwargs):
    topo, old, new = transition
    switches = sorted(diff_tables(old, new))
    outcomes = {}
    for index in range(NUM_SCHEDULES):
        seed = BASE_SEED + index
        faults = random_fault_plan(
            switches, seed=seed, rate=rate, stuck_prob=stuck_prob, **plan_kwargs
        )
        orch = RolloutOrchestrator(
            topo, old, new, config=config, faults=faults
        )
        report = orch.run()
        assert report.ok, (
            f"seed {seed}: unsafe outcome {report.outcome!r}: {report.detail}"
        )
        assert report.final_lint_ok, (
            f"seed {seed}: final tables fail lint after {report.outcome!r}"
        )
        if report.outcome == CONVERGED:
            assert tables_equal(orch.final_tables(), new)
        elif report.outcome == ROLLED_BACK and not report.quarantined:
            assert tables_equal(orch.final_tables(), old)
        outcomes[report.outcome] = outcomes.get(report.outcome, 0) + 1
    return outcomes


class TestChaosSweep:
    def test_benign_schedules_always_converge(self, transition):
        """Finite fault schedules (no wedged switches) leave the
        orchestrator no excuse: every run converges exactly."""
        config = RolloutConfig()
        outcomes = _sweep(transition, config, stuck_prob=0.0)
        assert outcomes == {CONVERGED: NUM_SCHEDULES}

    def test_wedged_switches_degrade_or_converge(self, transition):
        """With permanently stuck switches in the mix, quarantine keeps
        the rollout moving; every terminal state is certified."""
        config = RolloutConfig()
        outcomes = _sweep(transition, config, stuck_prob=0.25)
        assert set(outcomes) <= {CONVERGED, DEGRADED}
        assert outcomes.get(DEGRADED, 0) > 0  # the sweep exercised sticking

    def test_no_quarantine_policy_converges_or_rolls_back(self, transition):
        """quarantine=False narrows the contract to converge-or-rollback.
        A tight rollout budget makes rollbacks actually happen; the
        dedicated (larger) rollback budget guarantees the restore always
        outlasts any finite fault schedule."""
        config = RolloutConfig(max_attempts=2, quarantine=False)
        outcomes = _sweep(transition, config, stuck_prob=0.0, rate=0.5)
        assert set(outcomes) <= {CONVERGED, ROLLED_BACK}
        assert outcomes.get(ROLLED_BACK, 0) > 0  # the budget actually bit
