"""Differential tests for the linear-pass planner and linter.

Four hot paths answer in one or two passes over the rules, and each is
pinned here against the straightforward definition it replaces:

- :meth:`TaggedGraph.find_tag_cycle` peels in-degree-0 nodes before any
  DFS; a plain three-color DFS over ``G_k`` (kept below) is its oracle;
- lint S104 evaluates first match in one ordered walk; per-key
  :func:`~repro.core.compression.first_match` is its oracle;
- :func:`~repro.core.compression.tcam_program` compiles from the rule
  dict; ``compress_joint(table.as_rules())`` is its oracle;
- the deterministic minimizer's graph comes from its own transitions;
  :func:`~repro.core.rules.rules_to_tagged_graph` is its oracle.

Theorem 5.1 witnesses are also pinned to be independent of the hash
seed, across processes.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    RuleTable,
    ShortestPathElpProvider,
    TaggedGraph,
    UpDownElpProvider,
    bruteforce_tagging,
    compress_joint,
    first_match,
    rules_to_tagged_graph,
    safeguard_entry,
    tcam_program,
)
from repro.core.compression import TcamEntry
from repro.core.determinize import deterministic_minimize
from repro.core.tags import LOSSY_TAG
from repro.fuzz import load_corpus
from repro.lint.tcam_checks import program_section

from ..golden.test_golden_tables import CASES as GOLDEN_PLANS

SRC_DIR = Path(__file__).parents[2] / "src"
CORPUS = load_corpus(str(Path(__file__).parents[1] / "corpus"))

PORTS = frozenset(range(5))
port_sets = st.frozensets(st.sampled_from(sorted(PORTS)), min_size=1)
rule_dicts = st.dictionaries(
    st.tuples(
        st.integers(1, 3), st.sampled_from(sorted(PORTS)), st.sampled_from(sorted(PORTS))
    ),
    st.integers(LOSSY_TAG, 3),
    max_size=30,
)


# ----------------------------------------------------------------------
# (a) S104: one ordered pass == per-key first_match
# ----------------------------------------------------------------------
def _oracle_summary(
    reference: Dict[Tuple[int, int, int], int], program: List[TcamEntry]
) -> Optional[str]:
    """The S104 summary from one ``first_match`` per checked key."""
    keys = sorted(reference)
    for entry in program:
        if entry.tag is not None:
            keys.extend(
                (entry.tag, i, o) for i in entry.in_ports for o in entry.out_ports
            )
    diverging = []
    for key in dict.fromkeys(keys):
        got = first_match(program, *key)
        expected = reference.get(key, LOSSY_TAG)
        if (LOSSY_TAG if got is None else got) != expected:
            diverging.append((key, got, expected))
    if not diverging:
        return None
    key, got, expected = diverging[0]
    return (
        f"{len(diverging)} match key(s) diverge from the exact-rule "
        f"reference, e.g. key {key}: program gives "
        f"{'no match' if got is None else got}, reference rules give {expected}"
    )


def _s104_summary(reference, program) -> Optional[str]:
    section = program_section(reference, program, PORTS)
    found = [
        d.message
        for d in section.diagnostics
        if d.code == "S104" and d.location is None
    ]
    assert len(found) <= 1
    return found[0] if found else None


entries = st.builds(
    TcamEntry,
    tag=st.one_of(st.none(), st.integers(1, 3)),
    in_ports=port_sets,
    out_ports=port_sets,
    new_tag=st.integers(LOSSY_TAG, 3),
)


@given(reference=rule_dicts, program=st.lists(entries, max_size=8))
def test_s104_ordered_pass_matches_first_match_oracle(reference, program):
    assert _s104_summary(reference, program) == _oracle_summary(reference, program)


@given(reference=rule_dicts, extra=st.lists(entries, max_size=4), data=st.data())
def test_s104_on_perturbed_compiled_programs(reference, extra, data):
    """Compiled programs with entries spliced in anywhere: shadows,
    overlaps, early wildcards, promotes and dropped safeguards."""
    program = tcam_program(RuleTable("A", rules=reference), PORTS)
    if data.draw(st.booleans()):
        program.pop()  # missing safeguard
    for entry in extra:
        program.insert(data.draw(st.integers(0, len(program))), entry)
    assert _s104_summary(reference, program) == _oracle_summary(reference, program)


def _entry(tag, ins, outs, new_tag):
    return TcamEntry(tag, frozenset(ins), frozenset(outs), new_tag)


SAFEGUARD = safeguard_entry(PORTS)

NAMED_PROGRAMS = {
    "shadowed": (
        {(1, 1, 2): 1},
        [_entry(1, {1}, {2}, 2), _entry(1, {1}, {2}, 1), SAFEGUARD],
    ),
    "partial-overlap": (
        {(1, 1, 3): 1, (1, 2, 3): 2, (1, 4, 3): 2},
        [_entry(1, {1, 2}, {3}, 1), _entry(1, {2, 4}, {3}, 2), SAFEGUARD],
    ),
    "wildcard-first": (
        {(1, 1, 2): 1, (2, 3, 4): 2},
        [SAFEGUARD, _entry(1, {1}, {2}, 1), _entry(2, {3}, {4}, 2)],
    ),
    "promoting-wildcard": (
        {(1, 1, 2): 1},
        [_entry(None, {0, 1}, {2, 3}, 2), _entry(1, {1}, {2}, 1), SAFEGUARD],
    ),
    "missing-safeguard": (
        {(1, 1, 2): 1, (3, 0, 0): 3},
        [_entry(1, {1}, {2}, 1)],
    ),
    "keys-absent-from-reference": (
        {(1, 1, 2): 1},
        [_entry(1, {0, 1}, {2, 4}, 1), _entry(2, {3}, {3}, 2), SAFEGUARD],
    ),
}


@pytest.mark.parametrize("name", sorted(NAMED_PROGRAMS))
def test_s104_named_programs_match_oracle(name):
    reference, program = NAMED_PROGRAMS[name]
    summary = _s104_summary(reference, program)
    assert summary == _oracle_summary(reference, program)
    assert summary is not None, f"{name} must diverge from its reference"


# ----------------------------------------------------------------------
# (b) tcam_program compiles straight from the rule dict
# ----------------------------------------------------------------------
@given(rules=rule_dicts)
def test_tcam_program_equals_compress_joint_of_sorted_rules(rules):
    table = RuleTable("A", rules=rules)
    assert tcam_program(table, PORTS) == compress_joint(table.as_rules()) + [
        safeguard_entry(PORTS)
    ]


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_tcam_program_equals_compress_joint_on_goldens(name):
    plan = GOLDEN_PLANS[name]()
    for switch, table in plan.tables.items():
        ports = plan.topo.ports(switch)
        assert tcam_program(table, ports) == compress_joint(table.as_rules()) + [
            safeguard_entry(ports)
        ]


# ----------------------------------------------------------------------
# (c) R1: in-degree peeling before any DFS
# ----------------------------------------------------------------------
def _oracle_find_cycle(graph: TaggedGraph, tag: int) -> Optional[list]:
    """Three-color DFS over every node of ``G_k``."""
    members = graph.nodes_with_tag(tag)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in members}
    parent: dict = {}
    for root in members:
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        parent[root] = None
        stack: List[Tuple[object, Iterator]] = [
            (root, iter(sorted(graph.successors(root), key=repr)))
        ]
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if succ[1] != tag or succ not in color:
                    continue
                if color[succ] == WHITE:
                    color[succ] = GRAY
                    parent[succ] = node
                    stack.append(
                        (succ, iter(sorted(graph.successors(succ), key=repr)))
                    )
                    advanced = True
                    break
                if color[succ] == GRAY:
                    cycle = [succ]
                    walk = node
                    while walk != succ:
                        cycle.append(walk)
                        walk = parent[walk]
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def _assert_is_cycle_of(cycle, graph: TaggedGraph, tag: int) -> None:
    assert cycle, "an empty witness is not a cycle"
    assert len(set(cycle)) == len(cycle), "witness revisits a node"
    assert all(node[1] == tag for node in cycle)
    for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
        assert graph.has_edge(src, dst), f"{src} -> {dst} is not an edge"
    assert cycle[0] == min(cycle), "witness must start at its smallest node"


edge_lists = st.lists(
    st.tuples(
        st.tuples(st.sampled_from("ABCDEF"), st.integers(0, 2), st.integers(1, 3)),
        st.tuples(st.sampled_from("ABCDEF"), st.integers(0, 2), st.integers(0, 2)),
    ),
    max_size=40,
)


def _graph_from(raw_edges) -> TaggedGraph:
    """Non-decreasing edges (``dst`` tag = ``src`` tag + bump)."""
    graph = TaggedGraph()
    for (s, sp, tag), (d, dp, bump) in raw_edges:
        graph.add_edge(((s, sp), tag), ((d, dp), min(tag + bump, 3)))
    return graph


@given(raw_edges=edge_lists)
def test_find_tag_cycle_agrees_with_full_dfs(raw_edges):
    graph = _graph_from(raw_edges)
    for tag in (1, 2, 3):
        cycle = graph.find_tag_cycle(tag)
        assert (cycle is None) == (_oracle_find_cycle(graph, tag) is None)
        if cycle is not None:
            _assert_is_cycle_of(cycle, graph, tag)


@given(raw_edges=edge_lists, seed=st.integers(0, 2**16))
def test_find_tag_cycle_witness_ignores_insertion_order(raw_edges, seed):
    shuffled = list(raw_edges)
    random.Random(seed).shuffle(shuffled)
    first, second = _graph_from(raw_edges), _graph_from(shuffled)
    for tag in (1, 2, 3):
        assert first.find_tag_cycle(tag) == second.find_tag_cycle(tag)


def test_witness_rotated_to_its_smallest_node():
    """The DFS enters the C <-> D cycle at D (from A, the smallest
    residue node, which no cycle passes through); the witness is still
    reported from C."""
    graph = TaggedGraph()
    a, c, d, x, y = (((name, 0), 1) for name in "ACDXY")
    for src, dst in ((x, y), (y, x), (x, a), (a, d), (d, c), (c, d)):
        graph.add_edge(src, dst)
    assert graph.find_tag_cycle(1) == [c, d]


def test_self_loop_behind_an_acyclic_prefix():
    graph = TaggedGraph()
    a, b = (("A", 0), 1), (("B", 0), 1)
    graph.add_edge(a, b)
    graph.add_edge(b, b)
    assert graph.find_tag_cycle(1) == [b]


_RING_SCRIPT = r"""
import json
from repro.core import TaggedGraph, assert_deadlock_free, verify_tagged_graph
from repro.core.rules import RuleTable
from repro.exceptions import VerificationError
from repro.lint import lint_tables
from repro.topology import Topology

NAMES = [f"S{i}" for i in range(1, 7)]

def texts(graph):
    report = verify_tagged_graph(graph)
    try:
        assert_deadlock_free(graph)
    except VerificationError as exc:
        return report.violation(), str(exc)
    raise SystemExit("no violation")

ring = TaggedGraph()
for i, name in enumerate(NAMES):
    nxt = NAMES[(i + 1) % 6]
    ring.add_edge(((name, 1), 1), ((nxt, 1), 1))

# add_edge refuses R2 violations; wire them by hand, fanning out of one
# source so that set order would decide the witness.
decreasing = TaggedGraph()
src = (("S1", 1), 3)
decreasing.add_node(src)
for name in reversed(NAMES[1:]):
    dst = ((name, 1), 1)
    decreasing.add_node(dst)
    decreasing._out[src].add(dst)

topo = Topology(name="ring6")
for name in NAMES:
    topo.add_switch(name, layer=0)
for i, name in enumerate(NAMES):
    topo.add_link(name, NAMES[(i + 1) % 6])
tables = {}
for i, name in enumerate(NAMES):
    prev, nxt = NAMES[i - 1], NAMES[(i + 1) % 6]
    tables[name] = RuleTable(name, rules={
        (1, topo.port_to(name, prev), topo.port_to(name, nxt)): 1
    })
t001 = [
    (d.message, d.switch)
    for d in lint_tables(topo, tables).diagnostics
    if d.code == "T001"
]
print(json.dumps({"r1": texts(ring), "r2": texts(decreasing), "t001": t001}))
"""


def _ring_texts(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR), PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", _RING_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout)


def test_theorem_5_1_witnesses_do_not_depend_on_the_hash_seed():
    first, second = _ring_texts("1"), _ring_texts("2")
    assert first == second
    r1_violation, r1_error = first["r1"]
    assert r1_violation == "R1 violated: cycle of 6 nodes"
    assert "S1:1 -> S2:1 -> S3:1 -> S4:1 -> S5:1 -> S6:1" in r1_error
    r2_violation, _ = first["r2"]
    assert r2_violation == (
        "R2 violated: edge (('S1', 1), 3) -> (('S2', 1), 1) decreases the tag"
    )
    [(message, switch)] = first["t001"]
    assert switch == "S1"
    assert message.startswith("tag 1 subgraph contains the buffer-dependency cycle S1:")


# ----------------------------------------------------------------------
# (d) the minimizer's graph is the graph of its rules
# ----------------------------------------------------------------------
def _assert_graph_is_its_rules(topo, result) -> None:
    expected = rules_to_tagged_graph(topo, result.tables)
    for node, cls in result.node_class.items():
        expected.add_node((node[0], cls))
    assert result.graph == expected


GOLDEN_PROVIDERS = {
    "testbed-clos-updown": UpDownElpProvider,
    "clos2-updown": UpDownElpProvider,
    "jellyfish8-shortest": ShortestPathElpProvider,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_minimizer_graph_equals_rules_graph_on_goldens(name):
    plan = GOLDEN_PLANS[name]()
    topo = plan.topo
    paths = GOLDEN_PROVIDERS[name]().iter_paths(topo)
    bruteforce = bruteforce_tagging(topo, paths, require_loop_free=False)
    result = deterministic_minimize(topo, bruteforce)
    _assert_graph_is_its_rules(topo, result)
    assert result.graph == plan.graph


@pytest.mark.parametrize(
    "entry", CORPUS, ids=[entry.entry_id for entry in CORPUS]
)
def test_minimizer_graph_equals_rules_graph_on_corpus(entry):
    topo = entry.scenario.build_topology()
    elp = entry.scenario.build_elp(topo)
    result = deterministic_minimize(topo, bruteforce_tagging(topo, elp))
    _assert_graph_is_its_rules(topo, result)
