"""The one-class closed form against the rule-realizable merge.

:func:`~repro.core.determinize.deterministic_minimize` collapses the
brute-force graph to ingress ports and, when one Kahn pass peels every
port, answers "every node is tag 1" without scanning it. The lemma that
makes this exact: on an acyclic collapse every sandbox check of the merge
passes, so the merge assigns each node class 1 and defines every
transition as 1. Here the merge itself (``_merge``, which the dispatch
skips on such inputs) is the oracle: canonical tables, tagged graph,
``node_class``, tag count and contradiction count must all be equal, on
the goldens, the fuzz corpus, drawn damaged Clos fabrics with pinned
extras, a BCube, a Jellyfish and a 16-pod fat-tree. The set reaches both
branches, and the closed form's output order is pinned across hash
seeds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ShortestPathElpProvider,
    TaggedGraph,
    UpDownElpProvider,
    bruteforce_tagging,
    deterministic_minimize,
)
from repro.core.determinize import _merge, _peels, _port_collapse
from repro.core.rules import canonical_tables
from repro.core.symmetry import certify
from repro.fuzz import load_corpus
from repro.routing.bounce import bounce_paths
from repro.topology import ClosParams, bcube, clos3, jellyfish

from ..golden.test_golden_tables import CASES as GOLDEN_PLANS
from .test_linear_passes import GOLDEN_PROVIDERS

SRC_DIR = Path(__file__).parents[2] / "src"
CORPUS = load_corpus(str(Path(__file__).parents[1] / "corpus"))
FATTREE16 = ClosParams(16, 16, 4, 4, hosts_per_tor=0)


def assert_closed_form_is_the_merge(topo, bruteforce) -> None:
    got = deterministic_minimize(topo, bruteforce)
    want = _merge(topo, bruteforce)
    assert canonical_tables(got.tables) == canonical_tables(want.tables)
    assert got.graph == want.graph
    assert got.node_class == want.node_class
    assert got.num_tags == want.num_tags
    assert got.contradictions == want.contradictions


def _golden(name):
    topo = GOLDEN_PLANS[name]().topo
    paths = GOLDEN_PROVIDERS[name]().iter_paths(topo)
    return topo, bruteforce_tagging(topo, paths, require_loop_free=False)


def _corpus(entry):
    topo = entry.scenario.build_topology()
    return topo, bruteforce_tagging(topo, entry.scenario.build_elp(topo))


def _shortest(topo):
    return topo, bruteforce_tagging(topo, ShortestPathElpProvider().build(topo))


def _fattree16():
    """Algorithm 1 through the certificate's closed form: the explicit
    ELP holds a million paths (tests/properties pins the two equal)."""
    topo = clos3(FATTREE16)
    graph = TaggedGraph()
    certify(topo, UpDownElpProvider()).populate_graph(graph)
    return topo, graph


CASES = {
    **{f"golden-{name}": (_golden, name) for name in sorted(GOLDEN_PLANS)},
    **{f"corpus-{entry.entry_id}": (_corpus, entry) for entry in CORPUS},
    "bcube-3-1": (lambda: _shortest(bcube(3, 1)), None),
    "jellyfish-12": (
        lambda: _shortest(
            jellyfish(12, 4, network_ports=3, hosts_per_switch=0, seed=5)
        ),
        None,
    ),
    "fattree16-updown": (_fattree16, None),
}


def _case(name):
    build, arg = CASES[name]
    return build() if arg is None else build(arg)


@pytest.mark.parametrize("name", sorted(CASES))
def test_closed_form_equals_the_merge(name):
    assert_closed_form_is_the_merge(*_case(name))


def test_the_set_takes_both_branches():
    taken = {
        name: _peels(_port_collapse(_case(name)[1]))
        for name in sorted(CASES)
        if name != "fattree16-updown"
    }
    assert taken["golden-testbed-clos-updown"]
    assert not taken["bcube-3-1"] and not taken["jellyfish-12"]
    assert set(taken.values()) == {True, False}, taken


def test_the_decision_peels_only_acyclic_collapses():
    """A self-loop is a cycle, as in the merge's sandbox (a port among
    its own predecessors never joins their class)."""
    a, b, c = ("A", 0), ("B", 0), ("C", 0)
    assert _peels({a: {b, c}, b: {c}, c: set()})
    assert not _peels({a: {b}, b: {a}, c: set()})
    assert not _peels({a: {a}})


@st.composite
def damaged_clos(draw):
    params = ClosParams(
        num_pods=draw(st.integers(1, 3)),
        tors_per_pod=draw(st.integers(1, 3)),
        leaves_per_pod=draw(st.integers(1, 3)),
        num_spines=draw(st.integers(1, 3)),
        hosts_per_tor=draw(st.integers(0, 1)),
    )
    topo = clos3(params)
    links = sorted(
        (link.a, link.b)
        for link in topo.iter_links()
        if topo.node(link.a).is_switch and topo.node(link.b).is_switch
    )
    for link in draw(st.lists(st.sampled_from(links), max_size=3)):
        topo.fail_link(*link)
    # Pinned 1-bounce paths both ways between a ToR pair: often enough
    # to close a cycle in the port collapse, so both branches are drawn.
    tors = sorted(topo.switches_at_layer(0))
    extras = []
    for src, dst in draw(
        st.lists(st.tuples(st.sampled_from(tors), st.sampled_from(tors)), max_size=2)
    ):
        if src != dst:
            extras += bounce_paths(topo, src, dst, 1, max_paths=6)
            extras += bounce_paths(topo, dst, src, 1, max_paths=6)
    return topo, extras


@given(damaged_clos())
@settings(
    max_examples=min(25, settings.default.max_examples),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_closed_form_equals_the_merge_on_damaged_clos(drawn):
    topo, extras = drawn
    elp = list(UpDownElpProvider().iter_paths(topo)) + extras
    if elp:
        assert_closed_form_is_the_merge(topo, bruteforce_tagging(topo, elp))


_ORDER_SCRIPT = """
import json
from repro.core import UpDownElpProvider, bruteforce_tagging, deterministic_minimize
from repro.topology import ClosParams, clos3
topo = clos3(ClosParams(2, 3, 2, 2, hosts_per_tor=1))
result = deterministic_minimize(
    topo, bruteforce_tagging(topo, UpDownElpProvider().build(topo))
)
assert result.num_tags == 1
print(json.dumps({
    "tables": [(s, list(t.rules.items())) for s, t in result.tables.items()],
    "nodes": list(result.graph.nodes),
    "edges": sorted(result.graph.edges()),
}))
"""


def _closed_form_order(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR), PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", _ORDER_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout)


def test_closed_form_order_does_not_depend_on_the_hash_seed():
    first = _closed_form_order("1")
    assert first["tables"] and first["edges"]
    assert first == _closed_form_order("2")


def test_a_wrong_decision_fails_closed(testbed, monkeypatch):
    """Forced to accept the cyclic collapse of the 1-bounce testbed ELP,
    the closed form emits a one-tag graph with a cycle, and the planner's
    independent verifier refuses it."""
    from repro.core import TaggerPlan, clos_bounce_elp
    from repro.core import determinize
    from repro.exceptions import VerificationError

    elp = clos_bounce_elp(testbed, 1)
    assert not _peels(_port_collapse(bruteforce_tagging(testbed, elp)))
    monkeypatch.setattr(determinize, "_peels", lambda collapse: True)
    with pytest.raises(VerificationError):
        TaggerPlan.from_elp(testbed, elp)


def test_fattree16_plan_runs_no_merge(monkeypatch):
    """Clock-free cost guard: on an up-down fat-tree the minimizer never
    reaches the merge's sandbox nor builds its graph edge by edge."""
    from repro.core import TaggedGraph, TaggerPlan, planner
    from repro.core.greedy import _Sandbox

    calls = {"minimize": 0, "would_cycle": 0, "add_edge": 0}
    inside = [False]

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if inside[0]:
                calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def minimize(*args, **kwargs):
        calls["minimize"] += 1
        inside[0] = True
        try:
            return deterministic_minimize(*args, **kwargs)
        finally:
            inside[0] = False

    counted(_Sandbox, "would_cycle")
    counted(TaggedGraph, "add_edge")
    monkeypatch.setattr(planner, "deterministic_minimize", minimize)
    plan = TaggerPlan.from_provider(clos3(FATTREE16), UpDownElpProvider())
    assert plan.total_rules == 38_912 and plan.num_lossless_queues == 1
    assert calls == {"minimize": 1, "would_cycle": 0, "add_edge": 0}
