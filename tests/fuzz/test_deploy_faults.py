"""Deployment-stage faults: buggy agents must trip the 16th invariant.

The ``deployment-divergence`` invariant replays every replan-capable
scenario's table transition through the rollout orchestrator over a
lossy management network, and demands strict convergence to the exact
target. These tests pin that a benign rollout is clean and that each
registered buggy-agent fault (phantom acks, dropped removes) is caught —
the deployment analogue of the artifact-fault self-tests.
"""

import pytest

from repro.fuzz.crosscheck import STATIC_INVARIANTS, cross_check
from repro.fuzz.faults import DEPLOY_FAULTS, FAULTS
from repro.fuzz.scenarios import ScenarioGenerator

#: How deep into the seed-7 stream we search for a scenario whose
#: deployment check actually runs (replan-capable, non-empty diff).
SEARCH_LIMIT = 24


@pytest.fixture(scope="module")
def deploy_scenario():
    generator = ScenarioGenerator(seed=7)
    for _ in range(SEARCH_LIMIT):
        scenario = next(generator)
        result = cross_check(scenario, fault=None)
        if result.stats.get("deploy", "").startswith("checked"):
            return scenario
    pytest.fail(
        f"no deployment-checkable scenario in the first {SEARCH_LIMIT} "
        "of the seed-7 stream"
    )


def test_deploy_faults_are_registered():
    assert set(DEPLOY_FAULTS) == {"deploy-phantom-ack", "deploy-lost-remove"}
    assert set(DEPLOY_FAULTS) <= set(FAULTS)


def test_benign_rollout_passes_the_invariant(deploy_scenario):
    result = cross_check(deploy_scenario, fault=None)
    assert result.ok, result.violations
    assert "deployment-divergence" not in result.invariants_violated()
    assert result.stats["deploy"].startswith("checked")


@pytest.mark.parametrize("fault", sorted(DEPLOY_FAULTS))
def test_buggy_agent_is_caught(deploy_scenario, fault):
    result = cross_check(deploy_scenario, fault=fault)
    assert "deployment-divergence" in result.invariants_violated(), (
        f"{fault} escaped the deployment invariant"
    )
    assert set(result.invariants_violated()) <= set(STATIC_INVARIANTS)


@pytest.mark.parametrize("fault", sorted(DEPLOY_FAULTS))
def test_deploy_faults_do_not_leak_across_runs(deploy_scenario, fault):
    """Fault injectors patch freshly-built agents only: a clean re-run
    of the same scenario stays clean afterwards."""
    cross_check(deploy_scenario, fault=fault)
    again = cross_check(deploy_scenario, fault=None)
    assert again.ok, again.violations
