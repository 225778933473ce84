"""Structure of ``repro.core``: each thing is said once.

The core used to carry the Algorithm-1 walk four times, the
minimize/verify/rules/queue-map tail twice (and the copies had drifted:
re-planner plans lost ``meta["elp_paths"]``), and the "walk a path
applying a rewrite policy" loop three times. These AST checks keep the
copies from growing back; the behavioural side is pinned by the golden,
equivalence and incremental suites.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).parents[2] / "src"
CORE_DIR = SRC_DIR / "repro" / "core"


def _functions(path):
    """``(qualified name, node)`` for every function in a module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.FunctionDef):
                    found.append((name, child))
                visit(child, name)
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def _called_names(node):
    """Bare and attribute names this node calls."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Name):
                names.append(sub.func.id)
            elif isinstance(sub.func, ast.Attribute):
                names.append(sub.func.attr)
    return names


def _core_callers(callee):
    return sorted(
        f"{path.name}:{name}"
        for path in CORE_DIR.glob("*.py")
        for name, node in _functions(path)
        if callee in _called_names(node)
    )


def test_replanner_compiles_through_the_planner_tail():
    tree = ast.parse((CORE_DIR / "replan.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    own_tail = imported & {
        "greedy_minimize",
        "rules_from_tagged_graph",
        "rules_to_tagged_graph",
        "QueueMap",
        "assert_deadlock_free",
    }
    assert not own_tail, f"replan.py re-implements the tail: {sorted(own_tail)}"
    assert "compile_plan" in imported


def test_one_algorithm_1_walk():
    """``tagged_walk`` owns the hop loop; nothing re-derives tags from
    ``ingress_hops`` (which is the walk's projection, for hop counting)."""
    assert _core_callers("ingress_hops") == ["bruteforce.py:longest_path_hops"]
    assert _core_callers("tagged_walk") == [
        "bruteforce.py:add_tagged_path",
        "replan.py:_RefcountedGraph._shift",
        "tags.py:ingress_hops",
    ]


def test_plans_are_constructed_at_three_sites():
    sites = _core_callers("TaggerPlan")
    assert len(sites) <= 3, sites


def test_one_policy_path_walk_and_one_policy_graph():
    """Resolving ports and applying a rewrite policy happens in
    ``core/rules.py`` only; the taggers dispatch ``self.rewrite`` into it."""
    walkers = sorted(
        f"{path.name}:{name}"
        for path in CORE_DIR.glob("*.py")
        for name, node in _functions(path)
        if "port_to" in _called_names(node)
        and {"policy", "rewrite"} & set(_called_names(node))
    )
    assert walkers == [
        "rules.py:policy_tagged_graph",
        "rules.py:policy_tags_along_path",
    ]


def test_one_elp_path_validity_check():
    assert _core_callers("validate_path") == ["elp.py:canonical_elp_path"]


def test_core_and_runtime_packages_import_without_networkx():
    code = (
        "import repro.core, repro.lint, repro.deploy, repro.detect, "
        "repro.simulator, sys; assert 'networkx' not in sys.modules; "
        "from repro.topology import jellyfish; jellyfish(8, 4); "
        "assert 'networkx' in sys.modules"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={"PYTHONPATH": str(SRC_DIR)},
        timeout=120,
    )
