"""Golden lint reports: the SHA-256 of each canonical report.

An oracle for the linter that does not depend on how it organises its
work: every case below is linted one-shot and the canonical JSON of
``LintReport.to_dict()`` is hashed. The digests were recorded while
every switch was still linted separately, so a linter that shares work
between switches must reproduce them byte for byte — including the
switch each finding names.

Two cases exist only to tell switches with equal tables apart: equal
tables of which one is unreachable (R201 must name that switch alone),
and equal tables on switches with different port sets (T004 must fire
on one switch alone).

Regenerate intentionally with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import TaggerPlan, UpDownElpProvider
from repro.core.rules import RuleTable
from repro.fuzz.faults import FAULT_TABLE
from repro.lint import DeploymentArtifact, lint_artifact, lint_tables
from repro.topology import ClosParams, Topology, clos3, testbed_clos

GOLDEN = Path(__file__).parent / "lint-reports.json"

#: The benchmark suite's hosted 64-ToR Clos and its host-free fat-tree.
CLOS64 = ClosParams(8, 8, 4, 4, hosts_per_tor=1)
FATTREE64 = ClosParams(8, 8, 4, 4, hosts_per_tor=0)


def _testbed_artifact() -> DeploymentArtifact:
    return DeploymentArtifact.from_plan(
        TaggerPlan.for_clos(testbed_clos(), max_bounces=1)
    )


def _fault(inject):
    return lambda: lint_artifact(inject(_testbed_artifact()))


def _malformed_rules():
    """The tables of ``test_sections_differential::test_malformed_rules``."""
    plan = TaggerPlan.for_clos(testbed_clos(), max_bounces=1)
    tables = {
        s: RuleTable(switch=s, rules=dict(t.rules))
        for s, t in plan.tables.items()
    }
    victim = tables[sorted(tables)[0]]
    tag, in_port, out_port = sorted(victim.rules)[0]
    victim.rules[(tag, 99, out_port)] = tag
    victim.rules[(tag, in_port, 77)] = tag + 1
    victim.rules[(-1, in_port, out_port)] = 1
    victim.rules[(tag + 1, in_port, out_port)] = tag
    tables["GHOST"] = RuleTable(switch="GHOST", rules={(1, 1, 2): 1})
    return lint_tables(plan.topo, tables, plan.queue_map)


def _provider_plan(params: ClosParams):
    plan = TaggerPlan.from_provider(clos3(params), UpDownElpProvider())
    return lint_artifact(DeploymentArtifact.from_plan(plan))


def _twin_leaves() -> Topology:
    """H1 - A - B - H2 and D - C - B: A and C both have ports 0 and 1,
    but only A's port 0 faces a host."""
    topo = Topology(name="twin-leaves")
    for name in ("A", "B", "C", "D"):
        topo.add_switch(name, layer=0)
    topo.add_host("H1")
    topo.add_host("H2")
    topo.add_link("H1", "A")
    topo.add_link("A", "B")
    topo.add_link("D", "C")
    topo.add_link("C", "B")
    topo.add_link("B", "H2")
    return topo


def _equal_tables_one_unreachable():
    topo = _twin_leaves()
    rules = {(1, 0, 1): 1}
    tables = {s: RuleTable(switch=s, rules=dict(rules)) for s in ("A", "C")}
    return lint_tables(topo, tables)


def _equal_tables_different_ports():
    """A has ports 0-1, B ports 0-2: a rule out of port 2 is well formed
    on B only."""
    topo = _twin_leaves()
    rules = {(1, 0, 2): 1}
    tables = {s: RuleTable(switch=s, rules=dict(rules)) for s in ("A", "B")}
    return lint_tables(topo, tables)


CASES = {
    "testbed-clean": lambda: lint_artifact(_testbed_artifact()),
    **{
        f"testbed-{row.name}": _fault(row.inject)
        for row in FAULT_TABLE
        if row.stage == "lint"
    },
    "testbed-malformed-rules": _malformed_rules,
    "equal-tables-one-unreachable": _equal_tables_one_unreachable,
    "equal-tables-different-ports": _equal_tables_different_ports,
    "clos64-hosted": lambda: _provider_plan(CLOS64),
    "fattree64": lambda: _provider_plan(FATTREE64),
}


def _digest(report) -> str:
    canon = json.dumps(report.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(canon).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_lint_report_digest(name, request):
    digest = _digest(CASES[name]())
    frozen = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if request.config.getoption("--update-golden"):
        frozen[name] = digest
        GOLDEN.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")
    assert name in frozen, (
        f"no golden digest for {name}; regenerate with "
        "pytest tests/golden --update-golden"
    )
    assert digest == frozen[name], (
        f"{name}: lint report diverged from the committed golden digest"
    )


def test_equal_content_keeps_per_switch_verdicts():
    """What the digests of the two twin cases pin, spelled out."""
    dead = _equal_tables_one_unreachable()
    assert {(d.code, d.switch) for d in dead.diagnostics} == {("R201", "C")}
    ports = _equal_tables_different_ports()
    assert {d.switch for d in ports.diagnostics if d.code == "T004"} == {"A"}


def test_hosted_clos64_reports_its_dead_rules():
    """One R201 per dead match state; the stat still counts rules."""
    report = CASES["clos64-hosted"]()
    assert report.ok and report.by_code() == {"R201": 512}
    assert report.stats["dead_rules"] == 7424
