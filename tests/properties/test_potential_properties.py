"""Property: the rank potential is a sound certificate, and lint's
shortcut through it changes no report.

Random rule tables over three layered fabrics (the testbed, a 2-pod
``clos3(2,4,2,2)`` and the testbed with express links), half of them
pruned until φ accepts every table:

- when :func:`~repro.potential.check_potential` returns None, the
  effective tagged graph has no per-tag cycle and no decreasing edge;
- :func:`~repro.lint.lint_tables` reports exactly the T-family findings
  and graph stats of a reference rebuilt here from the sections'
  effective graph and a cycle search of every tag, whichever path the
  linter took.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import rules_to_tagged_graph, verify_tagged_graph
from repro.core.rules import RuleTable
from repro.lint import lint_tables
from repro.lint.diagnostics import stamp
from repro.lint.graph_checks import _effective_graph, port_maps, rule_sections
from repro.potential import check_potential, port_rise, table_violation
from repro.topology import ClosParams, clos3, testbed_clos

from ..golden.test_golden_policy_plans import express_testbed

SETTINGS = settings(
    max_examples=max(settings.default.max_examples, 60),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


FABRICS = (testbed_clos(), clos3(ClosParams(2, 4, 2, 2)), express_testbed())


@st.composite
def fabric_tables(draw):
    topo = draw(st.sampled_from(FABRICS))
    switches = sorted(topo.switches)
    chosen = draw(st.sets(st.sampled_from(switches), min_size=1, max_size=len(switches)))
    tables = {}
    for switch in sorted(chosen):
        ports = sorted(topo.ports(switch))
        rows = draw(
            st.lists(
                st.tuples(
                    st.integers(1, 3),
                    st.sampled_from(ports),
                    st.sampled_from(ports),
                    # A tag step; None demotes (tag 0), -1 falls (T002
                    # unless it lands on tag 0).
                    st.sampled_from((None, -1, 0, 0, 1, 1)),
                ),
                max_size=12,
            )
        )
        table = RuleTable(switch=switch)
        for tag, in_port, out_port, step in rows:
            table.rules[(tag, in_port, out_port)] = 0 if step is None else tag + step
        tables[switch] = table
    if draw(st.booleans()):
        for switch, table in tables.items():
            rise = port_rise(topo, switch)
            while True:
                violation = table_violation(table.rules, rise)
                if violation is None:
                    break
                del table.rules[violation[0]]
    return topo, tables


@SETTINGS
@given(fabric_tables())
def test_a_certified_plan_has_no_cycle_and_no_falling_tag(case):
    topo, tables = case
    if check_potential(topo, tables) is not None:
        return
    report = verify_tagged_graph(rules_to_tagged_graph(topo, tables))
    assert report.deadlock_free, report.violation()


@SETTINGS
@given(fabric_tables())
def test_lint_matches_a_rebuilt_cycle_search(case):
    topo, tables = case
    report = lint_tables(topo, tables)
    sections = rule_sections(topo, tables)
    graph = _effective_graph(sections, port_maps(topo, sections))
    expected = [
        d.render() for switch, section in sections.items() for d in stamp(section.diagnostics, switch)
    ]
    cycles = []
    for tag in graph.tags():
        cycle = graph.find_tag_cycle(tag)
        if cycle is not None:
            cycles.append((cycle[0][0][0], f"tag {tag}"))
    got = [d for d in report.diagnostics if d.code.startswith("T")]
    assert [d.render() for d in got if d.code != "T001"] == expected
    assert [(d.switch, d.location) for d in got if d.code == "T001"] == cycles
    assert {key: report.stats[key] for key in ("graph_nodes", "graph_edges", "graph_tags")} == {
        "graph_nodes": graph.num_nodes,
        "graph_edges": graph.num_edges,
        "graph_tags": graph.num_tags,
    }
