"""Layout of the measurement system: one timing ledger, no stopwatch.

``benchmarks/e2e`` (declared in ``BENCHMARK.json``) is the only place a
timing is recorded. ``benchmarks/bench_*.py`` are reproductions and
in-run floors: plain ``pytest`` tests that need no plugin fixture, write
only deterministic results files, and are all accounted for in the docs.
These checks keep the retired second system — a hand-recorded baseline
JSON, its recorder fixture and env switches, a one-sample stopwatch
plugin — from growing back, and keep the generated ``docs/API.md``
current.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parents[2]
BENCH_DIR = REPO / "benchmarks"
BENCH_SCRIPTS = sorted(BENCH_DIR.glob("bench_*.py"))
BENCH_TESTS = 30

#: Spellings of the retired measurement system.
RECORDER_FIXTURE = "baseline_entry"
RETIRED = (
    "BENCH_pipeline", "REPRO_RECORD", "REPRO_BENCH_FULL", RECORDER_FIXTURE,
    "--benchmark-only", "pytest-benchmark",
)

#: Where they may not occur (CHANGES.md and ROADMAP.md keep the history).
SWEPT = (
    "src", "benchmarks", "docs", "README.md", "EXPERIMENTS.md", "DESIGN.md",
    "pyproject.toml", ".github/workflows/ci.yml",
)


def _swept_files():
    for name in SWEPT:
        root = REPO / name
        paths = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in paths:
            if (
                path.is_file()
                and path.suffix != ".pyc"
                and BENCH_DIR / "e2e" not in path.parents
            ):
                yield path


def test_bench_tests_are_plain_pytest():
    for script in BENCH_SCRIPTS:
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                params = {arg.arg for arg in node.args.args}
                assert not params & {"benchmark", RECORDER_FIXTURE}, (
                    f"{script.name}::{node.name} takes {sorted(params)}"
                )
    done = subprocess.run(
        [
            # pyproject's addopts already carry the -q that lists node ids.
            sys.executable, "-m", "pytest", "--collect-only",
            "-p", "no:benchmark", "-p", "no:cacheprovider",
            "benchmarks/", "--ignore=benchmarks/e2e",
        ],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    collected = [line for line in done.stdout.splitlines() if "::test_" in line]
    assert len(collected) == BENCH_TESTS, done.stdout


def test_retired_measurement_system_is_named_nowhere():
    hits = [
        f"{path.relative_to(REPO)}: {word}"
        for path in _swept_files()
        for text in [path.read_text(encoding="utf-8", errors="ignore")]
        for word in RETIRED
        if word in text
    ]
    assert not hits, hits
    assert not list(REPO.glob("BENCH_*.json"))


def test_scripts_results_and_docs_account_for_each_other():
    docs = (REPO / "EXPERIMENTS.md").read_text() + (
        REPO / "docs" / "PERFORMANCE.md"
    ).read_text()
    unnamed = [s.name for s in BENCH_SCRIPTS if s.name not in docs]
    assert not unnamed, f"bench scripts no doc names: {unnamed}"
    cited = set(re.findall(r"results/(\w+\.txt)", docs))
    present = {path.name for path in (BENCH_DIR / "results").glob("*.txt")}
    assert cited == present, (
        f"cited but missing: {sorted(cited - present)}; "
        f"present but not cited: {sorted(present - cited)}"
    )


def test_api_reference_is_current():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", REPO / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.render() == (REPO / "docs" / "API.md").read_text(), (
        "docs/API.md is stale: run `python tools/gen_api_docs.py`"
    )
