"""The stage and fault tables are the only declaration of the fuzzer.

``crosscheck.STAGES``, ``harness.DYNAMIC_STAGES`` and
``faults.FAULT_TABLE`` drive ``cross_check``, the check count, the
fault self-test and docs/FUZZING.md. These tests run every row, pin the
docs to the rows, and prove one appended row is all a new invariant or
fault needs.
"""

import re
from pathlib import Path

import pytest

from repro.fuzz import FuzzConfig, crosscheck, faults, run_fuzz
from repro.fuzz.crosscheck import Stage, cross_check
from repro.fuzz.faults import FAULT_TABLE, Fault
from repro.fuzz.harness import DYNAMIC_STAGES
from repro.fuzz.scenarios import ScenarioGenerator

DOCS = Path(__file__).resolve().parents[2] / "docs" / "FUZZING.md"

#: How deep into the seed-7 stream a fault may stay the identity.
SEARCH_LIMIT = 24


@pytest.mark.parametrize("row", FAULT_TABLE, ids=lambda row: row.name)
def test_fault_trips_its_row_and_nothing_else(row):
    """On the first seed-7 scenario the fault is not the identity on, it
    trips an invariant its row declares, stays inside its stage, and
    leaves no trace for the next clean run."""
    (stage,) = [s for s in crosscheck.STAGES if s.name == row.stage]
    declared = {name for name, _ in stage.invariants}
    assert set(row.trips) <= declared
    generator = ScenarioGenerator(seed=7)
    for _ in range(SEARCH_LIMIT):
        scenario = next(generator)
        dirty = cross_check(scenario, fault=row.name)
        if dirty.violations:
            break
    else:
        pytest.fail(f"{row.name} tripped nothing in {SEARCH_LIMIT} scenarios")
    assert dirty.stats[row.stage] == "checked"
    violated = set(dirty.invariants_violated())
    assert violated & set(row.trips), f"{row.name} tripped only {violated}"
    assert violated <= declared, f"{row.name} leaked into {violated - declared}"
    clean = cross_check(scenario)
    assert clean.ok, clean.violations
    assert clean.stats[row.stage] == "checked"


def documented_rows(heading):
    """``(name, rest of the row)`` per table row of one docs section."""
    section = DOCS.read_text().split(f"\n## {heading}", 1)[1].split("\n## ")[0]
    return re.findall(r"^\| `([a-z0-9-]+)` \| (.+) \|$", section, re.M)


def test_docs_tables_never_drift():
    """docs/FUZZING.md's two tables equal the rows, row for row."""
    stages = [(s.name, s.invariants) for s in crosscheck.STAGES]
    assert documented_rows("Invariants") == [
        (name, f"{stage} | {meaning}")
        for stage, invariants in [*stages, *DYNAMIC_STAGES]
        for name, meaning in invariants
    ]
    assert documented_rows("Fault injection") == [
        (
            row.name,
            f"{row.stage} | {row.bug} | "
            + ", ".join(f"`{name}`" for name in row.trips),
        )
        for row in FAULT_TABLE
    ]


def extra_rows(record="extra-broken"):
    """A trivial stage (one invariant, violated only under its fault)
    plus the fault aimed at it."""

    def run(ctx, inject):
        if inject is not None:
            ctx.violate(record, inject())
        return None

    stage = Stage("extra", (("extra-broken", "test-only"),), run)
    fault = Fault(
        "extra-fault", "extra", lambda: "injected", ("extra-broken",), "test"
    )
    return stage, fault


def test_one_appended_row_is_enough(monkeypatch):
    config = dict(seed=7, iterations=3, oracle_budget=0, shrink=False)
    before = run_fuzz(FuzzConfig(**config)).invariant_checks
    static, names = crosscheck.STATIC_INVARIANTS, faults.FAULTS
    stage, fault = extra_rows()
    monkeypatch.setattr(crosscheck, "STAGES", (*crosscheck.STAGES, stage))
    monkeypatch.setattr(faults, "FAULT_TABLE", (*FAULT_TABLE, fault))

    assert crosscheck.STATIC_INVARIANTS == (*static, "extra-broken")
    assert faults.FAULTS == tuple(sorted((*names, "extra-fault")))
    assert faults.check_fault_name("extra-fault") == "extra-fault"
    clean = run_fuzz(FuzzConfig(**config))
    assert clean.ok and clean.invariant_checks == before + 3
    assert not clean.fault_caught
    dirty = run_fuzz(FuzzConfig(**config, inject_fault="extra-fault"))
    assert dirty.fault_caught
    assert [v["detail"] for v in dirty.violations] == [
        "extra-broken: injected"
    ] * 3


def test_undeclared_name_is_a_harness_error(monkeypatch):
    stage, fault = extra_rows(record="never-declared")
    monkeypatch.setattr(crosscheck, "STAGES", (*crosscheck.STAGES, stage))
    monkeypatch.setattr(faults, "FAULT_TABLE", (*FAULT_TABLE, fault))
    scenario = next(ScenarioGenerator(seed=7))
    with pytest.raises(AssertionError, match="never-declared"):
        cross_check(scenario, fault="extra-fault")
    report = run_fuzz(
        FuzzConfig(
            seed=7,
            iterations=2,
            oracle_budget=0,
            shrink=False,
            inject_fault="extra-fault",
        )
    )
    assert {v["invariant"] for v in report.violations} == {"harness-error"}
    assert not report.fault_caught
    assert report.invariant_checks == 0


def test_replan_and_deploy_share_one_planner(monkeypatch):
    built = []

    class Counting(crosscheck.IncrementalPlanner):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(crosscheck, "IncrementalPlanner", Counting)
    generator = ScenarioGenerator(seed=7)
    for _ in range(SEARCH_LIMIT):
        del built[:]
        result = cross_check(next(generator))
        if result.stats.get("deploy") == "checked":
            break
    else:
        pytest.fail("no deployment-checkable scenario in the seed-7 stream")
    assert result.ok and result.stats["replan"] == "checked"
    assert len(built) == 1
