"""The rank potential (:mod:`repro.potential`) and where it is used.

- the per-rule test is the turn rule of docs/THEORY.md §7: one table per
  turn pins it, so a check that accepts a same-tag down -> up turn (or
  any other falling step) fails here;
- every layered policy plan respects φ; the merged 3-tag bounce plan
  does not, though it verifies, and unlayered fabrics cannot be judged;
- the module is an independent checker: its imports are pinned and it
  calls no cycle search;
- what the certificate buys, as counts: a lint of a certified plan adds
  no tagged-graph edge, and a certified churn episode's rollouts build
  no union graph; the ``rule-tag-cycle`` and ``rule-decrease-tag``
  faults still reach the cycle search and are reported.
"""

import ast
import sys
from pathlib import Path

import pytest

import repro.deploy.verifier as verifier
from repro.core import (
    IncrementalPlanner,
    TaggerPlan,
    UpDownElpProvider,
    clos_bounce_elp,
    diff_tables,
)
from repro.core.rules import RuleTable
from repro.core.tags import TaggedGraph
from repro.deploy import certify_rollout, plan_waves
from repro.fuzz.faults import rule_decrease_tag, rule_tag_cycle
from repro.lint import DeploymentArtifact, LintSections, lint_artifact, lint_plan
from repro.potential import check_potential, port_rise, table_violation
from repro.topology import ClosParams, TopologyDelta, clos3, jellyfish, testbed_clos

from ..golden.test_golden_policy_plans import express_testbed

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from e2ebench import inputs  # noqa: E402


# ----------------------------------------------------------------------
# Rise and the per-rule test
# ----------------------------------------------------------------------
def test_port_rise_reads_layers():
    topo = express_testbed()
    rise = port_rise(topo, "T1")
    assert rise is not None
    by_peer = {topo.peer_on_port("T1", port): value for port, value in rise.items()}
    assert by_peer["L1"] == by_peer["L2"] == 1
    assert by_peer["T3"] == by_peer["T4"] == 0
    assert all(value == -1 for peer, value in by_peer.items() if topo.node(peer).is_host)
    assert set(port_rise(topo, "S1").values()) == {-1}
    assert port_rise(jellyfish(12, 5, hosts_per_switch=0, seed=1), "J0") is None
    assert port_rise(topo, "H1") is None  # a host has no rise vector
    assert port_rise(topo, "nowhere") is None


#: (switch, arrival peer, departure peer, tag step, accepted) for a
#: tag-2 packet at L1 of the express testbed (T1 below, S1 above) or at
#: T1 (L1 above, T3 across, H1 below): whether φ accepts the rule.
TURNS = [
    ("L1", "T1", "S1", 0, True),    # up -> up
    ("L1", "S1", "T2", 0, True),    # down -> down
    ("L1", "T1", "T2", 0, True),    # up -> down: a peak
    ("L1", "S1", "S2", 0, False),   # down -> up in one tag: the bounce
    ("L1", "S1", "S2", 1, True),    # ... which a raised tag allows
    ("L1", "S1", "S2", -1, False),  # a falling tag never
    ("T1", "H1", "T3", 0, True),    # up -> flat
    ("T1", "T3", "H1", 0, True),    # flat -> down
    ("T1", "T3", "T4", 0, False),   # flat -> flat
    ("T1", "T3", "L1", 0, False),   # flat -> up
    ("T1", "L1", "T3", 0, False),   # down -> flat
]


@pytest.mark.parametrize("switch,came_from,going_to,offset,accepted", TURNS)
def test_one_rule_per_turn(switch, came_from, going_to, offset, accepted):
    topo = express_testbed()
    key = (2, topo.port_to(switch, came_from), topo.port_to(switch, going_to))
    violation = table_violation({key: 2 + offset}, port_rise(topo, switch))
    assert (violation is None) is accepted
    if not accepted:
        assert violation == (key, 2 + offset)


def test_demotion_and_unknown_ports():
    topo = testbed_clos()
    rise = port_rise(topo, "L1")
    down_up = (1, topo.port_to("L1", "S1"), topo.port_to("L1", "S2"))
    assert table_violation({down_up: 0}, rise) is None  # tag 0 demotes
    assert table_violation({(1, 99, 1): 2}, rise) == ((1, 99, 1), 2)


def test_first_violation_in_sorted_key_order():
    topo = testbed_clos()
    s1, s2 = topo.port_to("L1", "S1"), topo.port_to("L1", "S2")
    rules = {(2, s2, s1): 2, (1, s2, s1): 1, (1, s1, s2): 1}
    assert table_violation(rules, port_rise(topo, "L1")) == ((1, s1, s2), 1)


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make_topo", [testbed_clos, express_testbed, lambda: clos3(ClosParams(2, 4, 2, 2))]
)
@pytest.mark.parametrize("bounces", [0, 1, 2])
def test_layered_policy_plans_respect_phi(make_topo, bounces):
    topo = make_topo()
    assert check_potential(topo, TaggerPlan.for_clos(topo, bounces).tables) is None


def test_merged_bounce_plan_violates_phi_yet_verifies():
    topo = testbed_clos()
    plan = TaggerPlan.from_elp(topo, clos_bounce_elp(topo, 1))
    assert plan.graph.num_tags == 3 and plan.verify().deadlock_free
    found = check_potential(topo, plan.tables)
    assert found is not None and found[1] is not None
    report = lint_plan(plan)
    assert report.ok  # the cycle search clears what φ cannot


def test_unlayered_fabric_cannot_be_judged():
    topo = jellyfish(12, 5, hosts_per_switch=0, seed=1)
    tables = {"J3": RuleTable(switch="J3"), "J1": RuleTable(switch="J1")}
    assert check_potential(topo, tables) == ("J1", None)


# ----------------------------------------------------------------------
# Independence
# ----------------------------------------------------------------------
def _module_tree(name):
    return ast.parse((ROOT / "src" / "repro" / f"{name}.py").read_text())


def _imports(tree):
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
    return found


def _called_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return names


def test_potential_is_an_independent_checker():
    tree = _module_tree("potential")
    assert _imports(tree) == {"__future__", "typing", "repro.topology.base"}
    assert not _called_names(tree) & {
        "find_tag_cycle", "verify_tagged_graph", "rules_to_tagged_graph", "TaggedGraph",
    }
    assigns = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert assigns["LOSSY_TAG"] == 0  # it says "tag 0 demotes" itself


def test_host_replay_shares_nothing_with_planner_lint_or_simulator():
    imports = _imports(_module_tree("replay"))
    assert not {
        name for name in imports
        if name.startswith(("repro.core", "repro.lint", "repro.simulator", "repro.deploy"))
    }, imports


# ----------------------------------------------------------------------
# What the certificate buys, as counts
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_lint_of_a_certified_plan_builds_no_graph(monkeypatch):
    """The 64-ToR fat-tree of tests/lint/test_plan_lint_cost.py: every
    table respects φ, so T001 is settled without one graph edge."""
    plan = TaggerPlan.from_provider(
        clos3(ClosParams(8, 8, 4, 4, hosts_per_tor=0)), UpDownElpProvider()
    )
    calls = _count_calls(monkeypatch, TaggedGraph, "add_edge")
    report = lint_plan(plan)
    assert report.ok
    assert report.stats["graph_edges"] == 7424 and report.stats["graph_nodes"] == 768
    assert len(calls) == 0


def test_certified_churn_rollouts_build_no_union_graph(monkeypatch):
    """One seed-1 episode of the e2e churn workload on its fabric: every
    rollout's global union is certified by φ, one table at a time."""
    params = ClosParams(8, 8, 4, 4, hosts_per_tor=1)
    topo = clos3(params)
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    deployed = planner.plan.tables
    calls = _count_calls(monkeypatch, verifier, "rules_to_tagged_graph")
    (episode,) = inputs.churn_episodes(params, 1, 1)
    for kind, a, b in episode:
        make = TopologyDelta.link_down if kind == "link-down" else TopologyDelta.link_up
        new = planner.apply(make(a, b)).plan.tables
        waves = plan_waves(topo, diff_tables(deployed, new), 8)
        cert = certify_rollout(topo, deployed, new, waves, sections=LintSections(topo))
        assert cert.ok and cert.covers_stragglers, cert.describe()
        deployed = new
    assert len(calls) == 0


@pytest.mark.parametrize(
    "fault,code", [(rule_tag_cycle, "T001"), (rule_decrease_tag, "T002")]
)
def test_faulted_rules_take_the_cycle_search(monkeypatch, fault, code):
    topo = testbed_clos()
    artifact = fault(DeploymentArtifact.from_plan(TaggerPlan.for_clos(topo, 1)))
    assert check_potential(topo, artifact.tables) is not None
    calls = _count_calls(monkeypatch, TaggedGraph, "add_edge")
    report = lint_artifact(artifact)
    assert code in {d.code for d in report.errors}
    assert calls


def test_rollout_onto_faulted_rules_takes_the_union_graph(monkeypatch):
    topo = testbed_clos()
    plan = TaggerPlan.for_clos(topo, 1)
    bad = rule_tag_cycle(DeploymentArtifact.from_plan(plan)).tables
    calls = _count_calls(monkeypatch, verifier, "rules_to_tagged_graph")
    waves = plan_waves(topo, diff_tables(plan.tables, bad), 8)
    cert = certify_rollout(topo, plan.tables, bad, waves)
    assert not cert.ok and not cert.covers_stragglers
    assert calls
