"""Every public name of the library has a caller outside the tests.

A public top-level ``def`` or ``class`` of a module under ``src/repro``
must be referenced from ``src/``, ``benchmarks/``, ``examples/`` or
``tools/`` (a package ``__init__`` re-exporting it does not count), or
be used inside its own module. A name that only tests call is either a
second copy of something the product already does — an enumerator, a
path walker — or scaffolding nothing runs, and it is deleted. The
exceptions are paper reproductions and the oracles tests compare
against; :data:`KEPT` names each with its reason.

References are found by name: an ``ast.Name``, the attribute of an
``ast.Attribute`` or a ``from ... import`` alias.
"""

import ast
import importlib
from collections import defaultdict
from functools import lru_cache
from pathlib import Path
from typing import Dict, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "tools")

#: Public names only tests call, kept on purpose: (module.name, reason).
KEPT: Tuple[Tuple[str, str], ...] = (
    ("repro.core.ttl_fallback.TtlFallback", "§4.2's TTL-based strawman the paper rejects"),
    ("repro.analysis.optimality.witness_path_hops", "§4.4's lower-bound witness paths"),
    ("repro.analysis.optimality.clos_tagger_is_optimal", "§4.4's optimality claim for k+1 tags"),
    ("repro.core.discovery.elp_under_failures", "§6's ELP discovery under link failures"),
    ("repro.topology.flexible.express_links", "§6's reconfigurable express links"),
    ("repro.topology.flexible.reconfigure_express", "§6's express-link reconfiguration"),
    ("repro.topology.expansion.expand_clos", "§6's incremental fabric expansion"),
    ("repro.topology.clos.leaf_spine", "the two-layer fabric family"),
    ("repro.topology.fattree.fattree", "the k-ary fat-tree fabric family"),
    ("repro.core.compression.first_match", "oracle: first-match TCAM lookup"),
    ("repro.core.compression.expand", "oracle: a compressed entry's exact keys"),
    ("repro.obs.instrument.derive_sim_counts", "oracle: simulator counters from events"),
    ("repro.topology.failures.random_delta_sequence", "churn generator of the replan properties"),
    ("repro.fuzz.corpus.load_corpus", "reads the committed regression corpus"),
    ("repro.fuzz.harness.replay_entry", "replays one corpus entry"),
    ("repro.simulator.trace.PacketTracer", "per-packet trace for simulator debugging"),
    ("repro.simulator.trace.QueueSampler", "queue-depth sampler for simulator debugging"),
    ("repro.lint.reach_checks.explore", "oracle: reachability closure of the R201 check"),
    ("repro.core.elp.clos_updown_elp", "ELP vocabulary of many test files"),
    ("repro.routing.updown.updown_paths", "ELP vocabulary of many test files"),
    ("repro.routing.shortest.pairwise_shortest_paths", "ELP vocabulary of many test files"),
)

#: Methods deleted with no product caller; they stay gone.
DELETED_METHODS = (
    ("repro.core.symmetry", "SymmetryCertificate", "pair_paths"),
    ("repro.core.symmetry", "SymmetryCertificate", "orbit_decomposition"),
    ("repro.simulator.network", "SimNetwork", "total_buffered_bytes"),
    ("repro.fuzz.oracle", "OracleOutcome", "sensitive"),
    ("repro.lint.artifact", "DeploymentArtifact", "ensure_programs"),
    ("repro.lint.artifact", "DeploymentArtifact", "with_programs"),
    ("repro.lint.artifact", "DeploymentArtifact", "_compiled"),
    ("repro.simulator.engine", "Simulator", "stop"),
)


def _references(tree: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@lru_cache(maxsize=None)
def _test_only_names() -> Tuple[str, ...]:
    modules = {
        path: ast.parse(path.read_text(), filename=str(path))
        for directory in CALLER_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
        if path.name != "__init__.py"
    }
    holders: Dict[str, Set[Path]] = defaultdict(set)
    for path, tree in modules.items():
        for name in _references(tree):
            holders[name].add(path)
    found = []
    for path, tree in modules.items():
        if not path.is_relative_to(PACKAGE):
            continue
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or holders[node.name] - {path}:
                continue
            if any(node.name in _references(stmt) for stmt in tree.body if stmt is not node):
                continue
            found.append(f"{module}.{node.name}")
    return tuple(found)


def test_every_public_name_has_a_caller_outside_tests():
    kept = {name for name, _reason in KEPT}
    unexplained = sorted(set(_test_only_names()) - kept)
    assert not unexplained, (
        "public names only tests call (give them a caller, delete them, "
        f"or keep them in KEPT with a reason): {unexplained}"
    )


def test_every_kept_name_is_test_only_and_has_a_reason():
    test_only = set(_test_only_names())
    names = [name for name, _reason in KEPT]
    assert len(names) == len(set(names))
    for name, reason in KEPT:
        assert reason.strip(), name
        assert name in test_only, f"{name} has a caller now; drop it from KEPT"


@pytest.mark.parametrize("module,owner,method", DELETED_METHODS)
def test_deleted_methods_stay_gone(module, owner, method):
    cls = getattr(importlib.import_module(module), owner)
    members = set(vars(cls)) | set(getattr(cls, "__dataclass_fields__", ()))
    assert method not in members, f"{owner}.{method} is back"
