"""Artifact-stage faults: every injected corruption must lint dirty.

These pin the ISSUE acceptance criterion on a concrete multi-tag Clos
deployment (the paper's testbed with 1-bounce tags, so both tag 1 and
tag 2 rules exist), independent of the randomized harness runs.
"""

import pytest

from repro.core import TaggerPlan
from repro.fuzz.crosscheck import cross_check
from repro.fuzz.faults import FAULT_TABLE
from repro.fuzz.scenarios import ScenarioGenerator
from repro.lint import DeploymentArtifact, lint_artifact

#: The lint-stage rows of the fault table: name -> artifact injector.
LINT_FAULTS = {
    row.name: row.inject for row in FAULT_TABLE if row.stage == "lint"
}

#: Which diagnostic family each fault must trip.
EXPECTED_CODES = {
    "tcam-shadow": {"S101"},
    "tcam-drop-safeguard": {"S105"},
    "rule-decrease-tag": {"T002"},
    "rule-tag-cycle": {"T001"},
}


@pytest.fixture
def artifact(testbed):
    plan = TaggerPlan.for_clos(testbed, max_bounces=1)
    return DeploymentArtifact.from_plan(plan)


def test_fault_registry_matches_expectations():
    assert set(LINT_FAULTS) == set(EXPECTED_CODES)


def test_clean_artifact_certifies(artifact):
    report = lint_artifact(artifact)
    assert report.ok, report.render_text()
    assert report.diagnostics == []


@pytest.mark.parametrize("fault", sorted(LINT_FAULTS))
def test_fault_is_detected_with_the_right_code(artifact, fault):
    corrupted = LINT_FAULTS[fault](artifact)
    report = lint_artifact(corrupted)
    assert not report.ok, f"{fault} went undetected"
    missing = EXPECTED_CODES[fault] - set(report.codes())
    assert not missing, (
        f"{fault} detected via {report.codes()} but expected {missing} too"
    )


@pytest.mark.parametrize("fault", sorted(LINT_FAULTS))
def test_faults_do_not_mutate_the_input(artifact, fault):
    """Fault injectors must copy: the same artifact lints clean after."""
    LINT_FAULTS[fault](artifact)
    assert lint_artifact(artifact).ok


def test_cross_check_reports_lint_dirty():
    """The harness invariant: an artifact fault surfaces as lint-dirty."""
    generator = ScenarioGenerator(seed=7)
    scenario = next(generator)
    clean = cross_check(scenario, fault=None)
    assert clean.ok, clean.violations
    assert "lint_diagnostics" in clean.stats
    dirty = cross_check(scenario, fault="rule-tag-cycle")
    assert dirty.invariants_violated() == ["lint-dirty"]
