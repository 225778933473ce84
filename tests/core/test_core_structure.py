"""Structure of ``repro.core``: each thing is said once.

The core used to carry the Algorithm-1 walk four times, the
minimize/verify/rules/queue-map tail twice (and the copies had drifted:
re-planner plans lost ``meta["elp_paths"]``), and the "walk a path
applying a rewrite policy" loop three times. These AST checks keep the
copies from growing back; the behavioural side is pinned by the golden,
equivalence and incremental suites.
"""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).parents[2] / "src"
CORE_DIR = SRC_DIR / "repro" / "core"
ANALYSIS_DIR = SRC_DIR / "repro" / "analysis"


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


def _imported(module):
    """Names a core module imports with ``from ... import``."""
    return {
        alias.name
        for node in ast.walk(ast.parse((CORE_DIR / module).read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_replanner_compiles_through_the_planner_tail():
    imported = _imported("replan.py")
    own_tail = imported & {
        "greedy_minimize",
        "rules_from_tagged_graph",
        "rules_to_tagged_graph",
        "QueueMap",
        "assert_deadlock_free",
    }
    assert not own_tail, f"replan.py re-implements the tail: {sorted(own_tail)}"
    # A replan is a plan: the re-planner compiles nothing of its own.
    called = {
        name
        for _, node in _functions(CORE_DIR / "replan.py")
        for name in _called_names(node)
    }
    assert "from_provider" in called and "compile_plan" not in called


def test_product_path_has_one_minimizer():
    """Every plan compiles through the rule-realizable merge: Algorithm 2
    as printed and the rule generator it needs stay with the
    reproductions, and no constructor takes a minimizer choice."""
    from repro.core import IncrementalPlanner, TaggerPlan, rules_from_tagged_graph
    from repro.core.planner import compile_plan

    for module in ("planner.py", "replan.py"):
        other = _imported(module) & {
            "greedy_minimize",
            "rules_from_tagged_graph",
            "rules_to_tagged_graph",
        }
        assert not other, f"{module} imports another minimizer: {sorted(other)}"
    for function in (
        compile_plan,
        TaggerPlan.from_elp,
        TaggerPlan.from_provider,
        IncrementalPlanner.__init__,
        rules_from_tagged_graph,
    ):
        params = set(inspect.signature(function).parameters)
        chosen = params & {"minimize", "on_conflict"}
        assert not chosen, f"{function.__qualname__} takes {sorted(chosen)}"


def test_the_input_picks_the_enumeration():
    """No planner surface takes a switch that only tests ever set: the
    certificate decides closed form vs per-pair walk, a policy plan is
    always materialized, and a full recompute follows from the input."""
    import repro.core
    from repro.core import IncrementalPlanner, TaggerPlan, materialize_policy

    for function, dropped in (
        (TaggerPlan.from_provider, {"strategy"}),
        (IncrementalPlanner.__init__, {"strategy"}),
        (IncrementalPlanner.apply, {"force_full"}),
        (TaggerPlan.for_clos, {"materialize"}),
        (materialize_policy, {"include_host_ports"}),
    ):
        params = set(inspect.signature(function).parameters)
        assert not params & dropped, f"{function.__qualname__} takes {dropped}"
    exported = {
        name
        for name in dir(repro.core)
        if name.startswith("STRATEG") or name == "check_strategy"
    }
    assert not exported, sorted(exported)


def test_one_algorithm_1_walk():
    """``tagged_walk`` owns the hop loop; nothing re-derives tags from
    ``ingress_hops`` (which is the walk's projection, for hop counting)."""
    assert _core_callers("ingress_hops") == ["bruteforce.py:longest_path_hops"]
    assert _core_callers("tagged_walk") == [
        "bruteforce.py:add_tagged_path",
        "tags.py:ingress_hops",
    ]


def test_one_certified_graph_builder():
    """A damaged Clos is the pristine closed form with its edges filtered
    by link liveness: no refcount machinery (``path_counts``,
    ``damaged_graph``, ``_shift_counts``, ``_graph_of``) comes back, the
    planner's certified branch builds through ``populate_graph`` alone,
    and nothing in the certificate scans a pair's pristine paths."""
    from repro.core.symmetry import SymmetryCertificate

    deleted = {"path_counts", "damaged_graph", "_shift_counts", "_graph_of"}
    assert not deleted & _defined_names("symmetry.py")
    assert not [name for name in deleted if hasattr(SymmetryCertificate, name)]
    assert _core_callers("populate_graph") == ["planner.py:TaggerPlan.from_provider"]
    scans = [site for site in _core_callers("pair_paths") if "symmetry" in site]
    assert not scans, scans


def test_plans_are_constructed_at_three_sites():
    sites = _core_callers("TaggerPlan")
    assert len(sites) <= 3, sites


def test_one_policy_path_walk_and_one_policy_graph():
    """Resolving ports and applying a rewrite policy happens in
    ``core/rules.py`` only, in ``core`` and ``analysis`` alike: the
    taggers and the CBD builder dispatch their policy into it, one walk
    of a policy yields both its graph and its tables, and no function
    elsewhere wires a policy graph port by port."""
    functions = [
        (path, name, _called_names(node))
        for path in sorted(CORE_DIR.glob("*.py")) + sorted(ANALYSIS_DIR.glob("*.py"))
        for name, node in _functions(path)
    ]
    walkers = sorted(
        f"{path.name}:{name}"
        for path, name, called in functions
        if "port_to" in called and {"policy", "rewrite", "tag_policy"} & set(called)
    )
    assert walkers == [
        "rules.py:materialize_policy",
        "rules.py:policy_tags_along_path",
    ]
    # ``cbd_graph`` wires a path set's buffers hop by hop; its tags come
    # from ``policy_tags_along_path``.
    wirers = sorted(
        f"{path.name}:{name}"
        for path, name, called in functions
        if {"port_to", "add_edge"} <= set(called)
    )
    assert wirers == [
        "cbd.py:cbd_graph",
        "rules.py:materialize_policy",
        "rules.py:rules_to_tagged_graph",
    ]
    import repro.core.rules

    for gone in ("materialize_policy_rules", "policy_tagged_graph"):
        assert not hasattr(repro.core.rules, gone), gone


def test_one_turn_rule_for_every_layered_fabric():
    """Bounces, express links and staggered classes are one
    :class:`ClosTagger`: no second tagger class or module comes back, and
    only it and the TTL strawman define a policy ``rewrite(switch,
    in_port, out_port, tag)`` (a pipeline's ``rewrite`` is a rule-table
    lookup)."""
    import repro.core

    assert not (CORE_DIR / "flyways.py").exists()
    for name in ("FlywaysTagger", "MultiClassClosTagger"):
        assert not hasattr(repro.core, name), name
    rewriters = sorted(
        path.name
        for path in CORE_DIR.glob("*.py")
        for name, node in _functions(path)
        if name.endswith(".rewrite")
        and [arg.arg for arg in node.args.args][1:2] == ["switch"]
    )
    assert rewriters == ["clos.py", "ttl_fallback.py"]


def test_one_elp_path_validity_check():
    assert _core_callers("validate_path") == ["elp.py:canonical_elp_path"]


def test_core_and_runtime_packages_import_without_networkx():
    code = (
        "import repro.core, repro.lint, repro.deploy, repro.detect, "
        "repro.simulator, repro.analysis, repro.fuzz, sys; "
        "assert 'networkx' not in sys.modules; "
        "from repro.topology import jellyfish; jellyfish(8, 4); "
        "assert 'networkx' in sys.modules"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={"PYTHONPATH": str(SRC_DIR)},
        timeout=120,
    )


def test_the_merge_always_runs_whole():
    """No plan resumes a merge: the minimizer keeps no watermarks, the
    planner tail takes no merge callback, the re-planner's memo size is
    a constant and its results report no resume level."""
    from dataclasses import fields

    from repro.core import IncrementalPlanner, ReplanResult
    from repro.core.planner import compile_plan

    classes = {
        node.name
        for node in ast.walk(ast.parse((CORE_DIR / "determinize.py").read_text()))
        if isinstance(node, ast.ClassDef)
    }
    assert "_Checkpoint" not in classes
    for function, dropped in (
        (compile_plan, "merge"),
        (IncrementalPlanner.__init__, "memo_capacity"),
    ):
        params = inspect.signature(function).parameters
        assert dropped not in params, f"{function.__qualname__} takes {dropped}"
    assert "resume_level" not in {field.name for field in fields(ReplanResult)}


def _defined_names(module):
    """Classes, functions and module or ``self.`` attributes a core
    module defines."""
    names = set()
    for node in ast.walk(ast.parse((CORE_DIR / module).read_text())):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_the_replanner_keeps_no_warm_state():
    """A replan is ``from_provider`` on the changed fabric: no pair cache,
    link masks, damaged set, baseline, plan memo or re-derivation path
    survives, and the ELP is never read back from the planner."""
    from repro.core import IncrementalPlanner, UpDownElpProvider
    from repro.core.elp import PairwiseElpProvider

    deleted = {
        "_RefcountedGraph",
        "_pairs",
        "_pair_links",
        "_link_bit",
        "_damaged",
        "_base",
        "_recompute_pairs",
        "_set_pair",
        "_full_build",
        "_MemoEntry",
        "_memo",
        "_store_memo",
        "_restore_memo",
        "MEMO_CAPACITY",
        "MODE_MEMO",
        "elp_paths",
    }
    assert not deleted & _defined_names("replan.py")
    assert not {"rederive_pairs", "_avoids"} & _defined_names("elp.py")
    for cls in (IncrementalPlanner, PairwiseElpProvider, UpDownElpProvider):
        left = {name for name in deleted | {"rederive_pairs"} if hasattr(cls, name)}
        assert not left, f"{cls.__name__} still has {sorted(left)}"


def test_the_compiler_reads_no_switch_name():
    """Lint shares one compiled program among every switch holding the
    same rules and port set, so ``tcam_program`` and the helpers it calls
    must be a function of the rules and ports alone."""
    functions = dict(_functions(CORE_DIR / "compression.py"))
    seen, todo = set(), ["tcam_program"]
    while todo:
        name = todo.pop()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        todo.extend(_called_names(functions[name]))
    assert {"tcam_program", "_joint_entries", "safeguard_entry"} <= seen
    reads = sorted(
        name
        for name in seen
        for sub in ast.walk(functions[name])
        if isinstance(sub, ast.Attribute) and sub.attr == "switch"
    )
    assert reads == []


def test_the_one_class_decision_is_not_its_own_checker():
    """The dispatch to the one-class closed form peels the port collapse
    itself: nothing it reaches calls the R1/R2 checker that later judges
    its output (``compile_plan``'s ``assert_deadlock_free``)."""
    functions = dict(_functions(CORE_DIR / "determinize.py"))
    functions["from_port_graph"] = dict(_functions(CORE_DIR / "tags.py"))[
        "TaggedGraph.from_port_graph"
    ]
    seen, todo = set(), ["deterministic_minimize"]
    while todo:
        name = todo.pop()
        if name in seen or name not in functions or name == "_merge":
            continue
        seen.add(name)
        todo.extend(_called_names(functions[name]))
    assert {"_port_collapse", "_peels", "_one_class", "from_port_graph"} <= seen
    checkers = {
        "find_tag_cycle",
        "tag_subgraph_is_acyclic",
        "verify_tagged_graph",
        "assert_deadlock_free",
    }
    called = {name for fn in seen for name in _called_names(functions[fn])}
    assert not called & checkers, sorted(called & checkers)
    assert not _imported("determinize.py") & checkers


def _adjacency_entries(graph):
    """Endpoints held in the node-keyed maps of node collections that a
    :class:`~repro.core.tags.TaggedGraph` keeps. Its node index maps a
    node to one node and its tag index is keyed by tag: neither counts."""
    return sum(
        len(neighbours)
        for attribute in vars(graph).values()
        if isinstance(attribute, dict)
        for key, neighbours in attribute.items()
        if isinstance(key, tuple) and isinstance(neighbours, (set, frozenset, list))
    )


def test_a_tagged_graph_holds_each_edge_once(testbed):
    """R1 and R2 need only forward edges, so a tagged graph keeps one
    adjacency map: its adjacency sets hold ``num_edges`` endpoints in
    all, not two copies of every edge. Scans that walk edges backwards
    build ``predecessor_map`` once."""
    from repro.core import TaggedGraph, TaggerPlan, bruteforce_tagging, clos_bounce_elp

    elp = clos_bounce_elp(testbed, 1)
    bruteforce = bruteforce_tagging(testbed, elp)
    plan = TaggerPlan.from_elp(testbed, elp)
    pristine = TaggedGraph.from_port_graph({("A", 1): [("B", 1)], ("B", 1): []})
    for graph in (bruteforce, plan.graph, pristine):
        assert graph.num_edges > 0
        assert _adjacency_entries(graph) == graph.num_edges
    assert not hasattr(TaggedGraph, "predecessors")


def test_the_merge_builds_one_predecessor_map(testbed, monkeypatch):
    """A bounce ELP's port collapse has a cycle, so the plan runs the
    merge; the merge reads predecessors from one map per run."""
    from repro.core import TaggedGraph, TaggerPlan, clos_bounce_elp

    calls = []
    build = TaggedGraph.predecessor_map

    def counted(graph):
        calls.append(graph)
        return build(graph)

    monkeypatch.setattr(TaggedGraph, "predecessor_map", counted)
    plan = TaggerPlan.from_elp(testbed, clos_bounce_elp(testbed, 1))
    assert plan.graph.num_tags > 1  # not the one-class closed form
    assert len(calls) == 1


def test_a_knob_needs_a_caller():
    """No settable value survives that only tests, or nobody, set: lint
    runs every family at the artifact's own budget, every rollout lints
    its wave boundaries, the up-down ELP is the shortest one, the
    retry policy's tuning is a set of module constants, and a layered
    tagger takes a turn budget and the tags its hosts inject, nothing
    more."""
    import dataclasses

    import repro.lint
    from repro.core import ClosTagger, UpDownElpProvider
    from repro.core.discovery import elp_under_failures, single_link_failure_scenarios
    from repro.deploy import RolloutConfig, SwitchAgent, certify_rollout
    from repro.fuzz.oracle import find_cbd_pairs
    from repro.fuzz.shrink import ddmin
    from repro.lint import DeploymentArtifact, LintSections, lint_artifact, lint_plan, lint_tables
    from repro.measurement.probing import ProbeCampaign
    from repro.routing import (
        apply_local_reroute,
        bfs_distances,
        random_loopfree_paths,
        updown_paths,
    )
    from repro.routing.updown import _join, updown_paths_by_pair
    from repro.simulator import Simulator
    from repro.simulator.buffers import IngressAccounting
    from repro.topology import Topology
    from repro.topology.failures import RandomLinkFailures, random_delta_sequence

    assert not hasattr(repro.lint, "LintConfig")
    for function, dropped in (
        (lint_artifact, {"config"}),
        (lint_tables, {"config"}),
        (lint_plan, {"config", "tcam_budget"}),
        (DeploymentArtifact.from_plan, {"tcam_budget"}),
        (LintSections.resolve, {"with_program"}),
        (certify_rollout, {"lint_boundaries"}),
        (updown_paths, {"shortest_only"}),
        (updown_paths_by_pair, {"shortest_only"}),
        (_join, {"shortest_only"}),
        (apply_local_reroute, {"prefer_up"}),
        (bfs_distances, {"switches_only"}),
        (Topology.to_networkx, {"switches_only", "include_failed"}),
        (random_loopfree_paths, {"max_stretch"}),
        (RandomLinkFailures.__init__, {"include_host_links"}),
        (random_delta_sequence, {"include_drains"}),
        (elp_under_failures, {"include_healthy"}),
        (single_link_failure_scenarios, {"switch_links_only"}),
        (ddmin, {"max_rounds"}),
        (find_cbd_pairs, {"max_checks"}),
        (IngressAccounting.__init__, {"stride"}),
        (Simulator.__init__, {"resolution", "slots"}),
        (Simulator.run, {"max_events"}),
        (ClosTagger.__init__, {"max_increments", "classes"}),
        (ClosTagger.tagged_graph, {"host_tags"}),
    ):
        params = set(inspect.signature(function).parameters)
        assert not params & dropped, f"{function.__qualname__} takes {dropped}"
    for cls, dropped in (
        (
            RolloutConfig,
            {
                "lint_boundaries",
                "rollback_attempts",
                "backoff_base",
                "backoff_cap",
                "jitter",
                "breaker_threshold",
            },
        ),
        (SwitchAgent, {"ignore_epoch"}),
        (UpDownElpProvider, {"shortest_only"}),
        (ProbeCampaign, {"local_repair"}),
    ):
        fields = {field.name for field in dataclasses.fields(cls)}
        assert not fields & dropped, f"{cls.__qualname__} has {fields & dropped}"
