"""Differential oracle for R201: one finding per dead match state.

A rule fires exactly when its ``(tag, in_port)`` match state is
reachable, so R201 reports each unreachable state once, with the rules
under it. The kept oracle :func:`~repro.lint.reach_checks.explore`
closes over the tables independently of the findings and returns the
rules that fire. Here the rules under the R201 states must be exactly
the rules ``explore`` never fires, each under exactly one finding, and
their total must be the report's ``dead_rules`` stat.

The cases are the hosted 64-ToR Clos ``from_provider`` plan, where
every one of its 7 424 rules is dead (512 states; the golden lint test
pins both counts), and every lint-stage row of the fault table injected
into the testbed's ``for_clos`` plan.
"""

import re

import pytest

from repro.core import TaggerPlan, UpDownElpProvider
from repro.fuzz.faults import FAULT_TABLE
from repro.lint import DeploymentArtifact, lint_artifact
from repro.lint.reach_checks import explore
from repro.topology import ClosParams, clos3, testbed_clos

STATE = re.compile(r"\((\d+),(\d+)\)")
OUT_PORTS = re.compile(r"its (\d+) rule\(s\) \(out ports ([\d, ]+)\)")


def _hosted_clos64() -> DeploymentArtifact:
    topo = clos3(ClosParams(8, 8, 4, 4, hosts_per_tor=1))
    return DeploymentArtifact.from_plan(
        TaggerPlan.from_provider(topo, UpDownElpProvider())
    )


def _fault(inject):
    return lambda: inject(
        DeploymentArtifact.from_plan(
            TaggerPlan.for_clos(testbed_clos(), max_bounces=1)
        )
    )


CASES = {
    "clos64-hosted": _hosted_clos64,
    **{
        f"testbed-{row.name}": _fault(row.inject)
        for row in FAULT_TABLE
        if row.stage == "lint"
    },
}


def _dead_rules_by_finding(report, tables):
    """Each R201 finding's rules, as ``(switch, tag, in_port, out_port)``,
    checked against the out ports and count its message names."""
    under = []
    for finding in report.diagnostics:
        if finding.code != "R201":
            continue
        tag, in_port = map(int, STATE.fullmatch(finding.location).groups())
        rules = sorted(
            (finding.switch, tag, in_port, out_port)
            for t, i, out_port in tables[finding.switch].rules
            if (t, i) == (tag, in_port)
        )
        count, ports = OUT_PORTS.search(finding.message).groups()
        assert int(count) == len(rules), finding.render()
        assert [int(p) for p in ports.split(", ")] == [r[3] for r in rules]
        under.append(rules)
    return under


@pytest.mark.parametrize("name", sorted(CASES))
def test_r201_states_hold_exactly_the_rules_explore_never_fires(name):
    artifact = CASES[name]()
    report = lint_artifact(artifact)
    tables = artifact.tables
    _, fired, _ = explore(artifact.topo, tables)
    every_rule = {
        (switch, *key) for switch, table in tables.items() for key in table.rules
    }

    under = _dead_rules_by_finding(report, tables)
    flat = [rule for rules in under for rule in rules]
    assert len(flat) == len(set(flat)), "a rule sits under two R201 findings"
    assert set(flat) == every_rule - fired
    assert len(flat) == report.stats["dead_rules"]

