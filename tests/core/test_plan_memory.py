"""Memory guard for a scratch plan, without a clock.

A scratch plan must hold each structure once:

- a :class:`~repro.core.tags.TaggedGraph` keeps one tuple object per
  node, so every endpoint in its successor sets *is* the stored node, however
  many equal tuples the builder passed in (fresh tuples, the symmetry
  certificate's ``populate_graph``, ``deterministic_minimize``, lint's
  ``_effective_graph``);
- the ``tracemalloc`` peak of one ``from_provider`` plan of a 16-pod
  fat-tree stays under :data:`PEAK_CEILING_MB`. With Python 3.11 on
  x86-64 it read 43.6 MB when checkpoints copied the minimizer state and
  edges kept their own endpoint tuples, and 25.3 MB with both held once.
  The ceiling sat at 34.0 MB, between those two readings, so either copy
  coming back trips it. Since an acyclic port collapse skips the merge
  (one-class closed form, no sandbox or transition dict) it read
  22.2 MB, and the ceiling moved to halfway between that and 34.0.
  Since a tagged graph holds each edge once (successor sets only, no
  predecessor index) it reads 16.7 MB, and the ceiling sits halfway
  between that and 22.2, so a predecessor index that comes back trips
  it.
"""

import pickle
import tracemalloc

from repro.core import (
    TaggedGraph,
    TaggerPlan,
    UpDownElpProvider,
    bruteforce_tagging,
    clos_bounce_elp,
    deterministic_minimize,
)
from repro.core.symmetry import certify
from repro.lint.graph_checks import _effective_graph, port_maps, rule_sections
from repro.topology import ClosParams, clos3

#: Halfway between the one-edge-copy reading (16.7 MB) and the
#: two-copy one (22.2 MB); see the module docstring.
PEAK_CEILING_MB = 19.5

FATTREE16 = ClosParams(16, 16, 4, 4, hosts_per_tor=0)


def assert_one_object_per_node(graph: TaggedGraph) -> None:
    stored = {node: node for node in graph.nodes}
    for node, successors in graph._out.items():
        assert node is stored[node]
        for other in successors:
            assert other is stored[other], other
    for members in graph._by_tag.values():
        for node in members:
            assert node is stored[node]


def test_graph_from_fresh_equal_tuples():
    graph = TaggedGraph()
    for i in range(4):
        for j in range(4):
            if i != j:
                # Built at run time: a new tuple object on every call.
                graph.add_edge((("A", i), 1), (("B", j), 2))
                graph.add_edge((("B", j), 2), (("C", i), 2))
    assert graph.num_nodes == 12
    assert_one_object_per_node(graph)
    # Pickling (a process pool's transport) keeps the sharing.
    copy = pickle.loads(pickle.dumps(graph))
    assert copy == graph
    assert_one_object_per_node(copy)


def test_populate_graph():
    topo = clos3(ClosParams(4, 4, 2, 2, hosts_per_tor=0))
    cert = certify(topo, UpDownElpProvider())
    assert cert is not None
    graph = TaggedGraph()
    cert.populate_graph(graph)
    assert graph.num_edges > 0
    assert_one_object_per_node(graph)


def test_finalize_and_effective_graph(testbed):
    bruteforce = bruteforce_tagging(testbed, clos_bounce_elp(testbed, 1))
    assert_one_object_per_node(bruteforce)
    result = deterministic_minimize(testbed, bruteforce)
    assert_one_object_per_node(result.graph)
    sections = rule_sections(testbed, result.tables)
    effective = _effective_graph(sections, port_maps(testbed, sections))
    assert effective == result.graph
    assert_one_object_per_node(effective)


def test_scratch_plan_traced_peak():
    topo = clos3(FATTREE16)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        plan = TaggerPlan.from_provider(topo, UpDownElpProvider())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert plan.total_rules == 38_912
    peak_mb = (peak - base) / 1e6
    assert peak_mb < PEAK_CEILING_MB, f"traced peak {peak_mb:.1f} MB"
