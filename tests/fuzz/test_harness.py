"""Smoke tests for the differential fuzzing harness itself.

Three contracts: a healthy pipeline fuzzes clean, an injected tagger bug
is caught AND shrunk to a replayable corpus entry, and the CLI exposes
both behaviours with the right exit codes — a fault that merely crashes
a worker is not a catch.
"""

import json

import pytest

from repro.cli import main
from repro.fuzz import FuzzConfig, faults, load_corpus, replay_entry, run_fuzz
from repro.fuzz.crosscheck import STATIC_INVARIANTS
from repro.fuzz.faults import FAULTS, FaultError
from repro.fuzz.scenarios import ScenarioGenerator

from . import ran_checks


def test_smoke_run_is_clean():
    report = run_fuzz(
        FuzzConfig(seed=7, iterations=15, oracle_budget=1, shrink=False)
    )
    assert report.ok, report.violations
    assert report.iterations_run == 15
    # Stages that ran, plus oracle-tagged-deadlock per oracle replay.
    generator = ScenarioGenerator(seed=7)
    static = ran_checks(next(generator) for _ in range(15))
    assert report.oracle_runs == 1
    assert report.invariant_checks == static + 1 < 15 * len(STATIC_INVARIANTS)
    # Several topology kinds must actually be exercised.
    assert len(report.scenarios_by_kind) >= 2
    # The report must be JSON-serializable (CI consumes it).
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["ok"] is True
    assert blob["seed"] == 7


def test_time_budget_stops_the_loop():
    report = run_fuzz(
        FuzzConfig(
            seed=7,
            iterations=10**6,
            time_budget=1.0,
            oracle_budget=0,
            shrink=False,
        )
    )
    assert 0 < report.iterations_run < 10**6


def test_unknown_fault_name_rejected():
    with pytest.raises(FaultError):
        FuzzConfig(inject_fault="no-such-fault")


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_injected_fault_caught_and_shrunk(fault, tmp_path):
    """ISSUE acceptance criterion: seeding an artificial tagger bug is

    caught, shrunk, persisted, and the corpus entry replays both ways.
    """
    corpus_dir = tmp_path / "corpus"
    report = run_fuzz(
        FuzzConfig(
            seed=7,
            iterations=12,
            oracle_budget=0,
            shrink=True,
            inject_fault=fault,
            corpus_dir=str(corpus_dir),
        )
    )
    assert report.fault_caught, f"fault {fault} escaped detection"
    # No oracle stage and no harness error here, so every violation is
    # one of the declared static invariants.
    assert {v["invariant"] for v in report.violations} <= set(
        STATIC_INVARIANTS
    )
    assert report.corpus_entries, f"fault {fault} was not shrunk to corpus"
    for entry in load_corpus(str(corpus_dir)):
        replay = replay_entry(entry)
        assert replay["ok"], replay
        assert replay["reproduced"] is True
        assert replay["clean_without_fault"] is True


def test_shrunk_counterexamples_are_small(tmp_path):
    report = run_fuzz(
        FuzzConfig(
            seed=7,
            iterations=12,
            oracle_budget=0,
            shrink=True,
            inject_fault="skip-r2",
            corpus_dir=str(tmp_path),
        )
    )
    for entry in report.corpus_entries:
        assert entry.scenario.explicit_paths is not None
        # ddmin should get any skip-r2 witness down to a handful of paths.
        assert len(entry.scenario.explicit_paths) <= 6


def test_cli_fuzz_clean_run(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    code = main(
        [
            "fuzz",
            "--seed",
            "3",
            "--iterations",
            "6",
            "--oracle-budget",
            "0",
            "--report",
            str(report_file),
        ]
    )
    assert code == 0
    blob = json.loads(report_file.read_text())
    assert blob["ok"] is True
    assert blob["iterations"] == 6
    assert "CLEAN" in capsys.readouterr().out


def test_cli_fuzz_injected_fault_exit_zero_iff_caught(tmp_path):
    code = main(
        [
            "fuzz",
            "--seed",
            "7",
            "--iterations",
            "8",
            "--oracle-budget",
            "0",
            "--inject-fault",
            "collapse-tags",
            "--corpus-dir",
            str(tmp_path),
        ]
    )
    assert code == 0  # caught => success for a self-test run


def test_cli_fault_that_only_crashes_is_not_caught(
    tmp_path, monkeypatch, capsys
):
    def boom(graph):
        raise RuntimeError("injector exploded")

    monkeypatch.setattr(
        faults,
        "FAULT_TABLE",
        tuple(
            row._replace(inject=boom) if row.name == "skip-r2" else row
            for row in faults.FAULT_TABLE
        ),
    )
    report_file = tmp_path / "report.json"
    argv = "fuzz --seed 7 --iterations 4 --oracle-budget 0".split()
    argv += ["--inject-fault", "skip-r2", "--report", str(report_file)]
    code = main(argv)
    assert code == 1
    assert "escaped detection" in capsys.readouterr().err
    violations = json.loads(report_file.read_text())["violations"]
    assert {v["invariant"] for v in violations} == {"harness-error"}
    assert "injector exploded" in violations[0]["detail"]
