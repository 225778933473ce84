"""Self-tests of the end-to-end benchmark (``benchmarks/e2e``).

They run every workload at its ``--quick`` size, so the whole module
stays within a few seconds, and check the properties later performance
claims lean on: seeded inputs, a schema equal to ``BENCHMARK.json``,
and checks that count broken outputs as failed instead of passing them.
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from e2ebench import catalogue, inputs  # noqa: E402
from e2ebench.checks import Outcome, judge, tagger_arm_failures  # noqa: E402
from e2ebench.report import bounds_from_benchmark, compare  # noqa: E402
from e2ebench.runner import expected_key, load_expected, run_workload  # noqa: E402
from e2ebench.tracing import NullTracer  # noqa: E402
from e2ebench.workloads import LATENCY_BOUND, WORKLOADS, Greenfield  # noqa: E402
from repro.core import TaggerPlan, UpDownElpProvider  # noqa: E402
from repro.routing import shortest_path_tables  # noqa: E402
from repro.topology import ClosParams, clos3  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CLOS = ClosParams(4, 8, 4, 4, hosts_per_tor=1)


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: inputs.greenfield_traffic(CLOS, seed),
        lambda seed: inputs.churn_episodes(CLOS, seed, 8),
        lambda seed: inputs.fabric_traffic(CLOS, seed),
    ],
    ids=["greenfield", "churn", "fabric"],
)
def test_generators_are_functions_of_the_seed(generate):
    first = json.dumps(generate(5), sort_keys=True)
    assert first == json.dumps(generate(5), sort_keys=True)
    assert first != json.dumps(generate(6), sort_keys=True)


def test_declared_names_equal_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == catalogue.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == catalogue.per_layer()
    names = list(WORKLOADS) + [m[0] for m in catalogue.END_TO_END + catalogue.per_layer()]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m[1]) for m in catalogue.END_TO_END + catalogue.per_layer())
    assert set(BENCHMARK["paths"]) == {"benchmarks/e2e", "tests/bench_e2e"}


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_quick_run_emits_the_full_schema(name, trace):
    result = run_workload(name, quick=True, trace=trace)
    assert result.failures == [] and result.failed == 0
    assert result.attempted >= 1
    declared = catalogue.per_layer() if trace else catalogue.END_TO_END
    assert list(result.metrics) == [metric[0] for metric in declared]
    if trace:
        assert result.metrics["bench.trace-overhead-ratio"] > 0
        assert result.spans and {"name", "start", "end", "parent", "op"} <= set(result.spans[0])
    else:
        assert all(value > 0 for value in result.metrics.values())


@pytest.fixture(scope="module")
def greenfield():
    workload = Greenfield(inputs.DEFAULT_SEED, quick=True)
    workload.setup(NullTracer())
    return workload, workload.operation(0, NullTracer())


def test_tampered_rule_table_counts_as_failed(greenfield):
    _workload, outcome = greenfield
    committed = load_expected()[expected_key(Greenfield.name, True)][0]
    assert judge(outcome, committed, LATENCY_BOUND) == []
    tampered = copy.copy(outcome)
    tables = copy.deepcopy(outcome.deployments[0])
    table = tables[sorted(tables)[0]]
    key = sorted(table.rules)[0]
    table.rules[key] += 1
    tampered.deployments = [tables]
    problems = judge(tampered, committed, LATENCY_BOUND)
    assert any("digest" in problem for problem in problems)


def test_tor_less_plan_counts_as_failed(greenfield):
    """A from_provider plan has no ToR tables: hosts are demoted at hop one."""
    workload, _outcome = greenfield
    topo = clos3(workload.params)
    plan = TaggerPlan.from_provider(topo, UpDownElpProvider())
    facts = workload.arm(NullTracer(), topo, shortest_path_tables(topo), plan, Outcome(), None)
    assert any("lossy_overflow" in problem for problem in tagger_arm_failures(facts))


def _out_file(op_seconds, failed=0):
    samples = {
        "setup_s": [1.0, 1.0, 1.0],
        "op_s_p50": [op_seconds * f for f in (0.99, 1.0, 1.0, 1.01)],
        "op_cpu_s_p50": [op_seconds * f for f in (0.99, 1.0, 1.0, 1.01)],
        "peak_rss_mb": [100.0],
    }
    metrics = {name: values[len(values) // 2] for name, values in samples.items()}
    run = {"metrics": metrics, "samples": samples, "attempted": 4, "failed": failed}
    layers = {"metrics": {"deploy.certify_s": op_seconds / 2}}
    return {"workloads": {"churn-clos64": {"end_to_end": run, "per_layer": layers}}}


def test_compare_flags_regressions_and_failures():
    bounds = bounds_from_benchmark(BENCHMARK)
    text, failed = compare(_out_file(1.0), _out_file(1.05), bounds)
    assert not failed and "within bound" in text
    text, failed = compare(_out_file(1.0), _out_file(1.3), bounds)
    assert failed and "regressed" in text and "deploy.certify_s" in text
    text, failed = compare(_out_file(1.0), _out_file(0.7), bounds)
    assert not failed and "improved" in text
    text, failed = compare(_out_file(1.0), _out_file(1.0, failed=1), bounds)
    assert failed and "ROSE" in text
