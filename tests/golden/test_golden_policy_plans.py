"""Golden digests of the topology-aware (policy) plans.

``for_clos`` and ``for_multiclass_clos`` materialise a turn policy into
rule tables and a complete tagged graph; on the express-link fabric of
§6 the same turn rule also raises the tag around flat hops. The
express cases were recorded from the phase-ordered express tagger that
the turn rule replaced, so they pin the two as equal. Each case freezes the
SHA-256 of the canonical rule tables, of the graph's nodes in insertion
order and of its sorted edges, plus the headline counts, so a change to
the policy, its port classification or the graph walk that moves one
rule, node or edge fails here.

Regenerate intentionally with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden
"""

import hashlib
import json
from pathlib import Path

from repro.core import TaggerPlan, TrafficClass
from repro.core.rules import canonical_tables
from repro.topology import ClosParams, add_express_link, clos3, fattree, testbed_clos

GOLDEN_PATH = Path(__file__).parent / "policy-plans.json"

FABRICS = {
    "testbed": testbed_clos,
    "clos3-4x8x4x4": lambda: clos3(ClosParams(4, 8, 4, 4)),
    "fattree4": lambda: fattree(4),
}


def express_testbed():
    """The testbed with three ToR-to-ToR express links (§6)."""
    topo = testbed_clos()
    add_express_link(topo, "T1", "T3")
    add_express_link(topo, "T2", "T4")
    add_express_link(topo, "T1", "T4")
    return topo


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def digest(plan: TaggerPlan) -> dict:
    graph = plan.graph
    return {
        "tables_sha256": _sha256(canonical_tables(plan.tables)),
        "nodes_sha256": _sha256(list(graph.nodes)),
        "edges_sha256": _sha256(sorted(graph.edges())),
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_tags": graph.num_tags,
        "total_rules": plan.total_rules,
    }


def snapshot() -> dict:
    cases = {}
    for name, build in FABRICS.items():
        for k in (0, 1, 2):
            cases[f"for-clos-{name}-k{k}"] = digest(TaggerPlan.for_clos(build(), k))
    cases["multiclass-testbed-data1-cnp1"] = digest(
        TaggerPlan.for_multiclass_clos(
            testbed_clos(), [TrafficClass("data", 1), TrafficClass("cnp", 1)]
        )
    )
    for k in (0, 1, 2, 3):
        cases[f"express-testbed-k{k}"] = digest(
            TaggerPlan.for_clos(express_testbed(), k)
        )
    return cases


def test_golden_policy_plans(request):
    cases = snapshot()
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.write_text(json.dumps(cases, indent=2, sort_keys=True) + "\n")
    frozen = json.loads(GOLDEN_PATH.read_text())
    assert sorted(cases) == sorted(frozen)
    for name, case in cases.items():
        assert case == frozen[name], f"{name}: policy plan diverged from the golden"
