"""Fig. 5 + Tables 3/4 — the algorithm walk-through example.

Paper: on the 6-switch example topology with a 12-path ELP, Algorithm 1
produces 4 tags (Fig. 5b, rules in Table 3) and Algorithm 2 compresses
them to 2 (Fig. 5c, rules in Table 4). We regenerate the tagged graphs
and print the per-switch rewrite rule tables for the A/B/C core switches.
"""

import pytest

from conftest import format_table
from repro.core import (
    bruteforce_tagging,
    deterministic_minimize,
    greedy_minimize,
    rules_from_tagged_graph,
    verify_tagged_graph,
)
from repro.topology import Topology


def fig5_topology() -> Topology:
    topo = Topology(name="fig5")
    for name in ("A", "B", "C", "D", "E", "F"):
        topo.add_switch(name)
    topo.add_link("A", "B")
    topo.add_link("B", "C")
    topo.add_link("C", "A")
    topo.add_link("D", "A")
    topo.add_link("E", "B")
    topo.add_link("F", "C")
    return topo


FIG5_ELP = [
    ("D", "A", "B", "E"),
    ("D", "A", "C", "B", "E"),
    ("E", "B", "A", "D"),
    ("E", "B", "C", "A", "D"),
    ("D", "A", "C", "F"),
    ("D", "A", "B", "C", "F"),
    ("F", "C", "A", "D"),
    ("F", "C", "B", "A", "D"),
    ("E", "B", "C", "F"),
    ("E", "B", "A", "C", "F"),
    ("F", "C", "B", "E"),
    ("F", "C", "A", "B", "E"),
]


def run_walkthrough():
    topo = fig5_topology()
    bf = bruteforce_tagging(topo, FIG5_ELP)
    merged = greedy_minimize(bf)
    det = deterministic_minimize(topo, bf)
    bf_rules = rules_from_tagged_graph(topo, bf)
    merged_rules = rules_from_tagged_graph(topo, merged)
    return topo, bf, merged, det, bf_rules, merged_rules


def rule_rows(table):
    return [
        (tag, in_port, out_port, new_tag)
        for (tag, in_port, out_port), new_tag in sorted(table.rules.items())
    ]


def test_fig5_walkthrough(report):
    topo, bf, merged, det, bf_rules, merged_rules = run_walkthrough()
    sections = [
        f"Algorithm 1 (Fig 5b): {bf.max_tag} tags, "
        f"{verify_tagged_graph(bf).summary()}",
        f"Algorithm 2 (Fig 5c): {merged.max_tag} tags, "
        f"{verify_tagged_graph(merged).summary()}",
        f"Deterministic minimize: {det.num_tags} tags, "
        f"{det.contradictions} contradictions",
    ]
    for switch in ("A", "B", "C"):
        sections.append(f"\nTable 3 rules at {switch} (Algorithm 1):")
        sections.append(
            format_table(
                ["Tag", "InPort", "OutPort", "NewTag"],
                rule_rows(bf_rules.tables[switch]),
            )
        )
    for switch in ("A", "B", "C"):
        sections.append(f"\nTable 4 rules at {switch} (Algorithm 2):")
        sections.append(
            format_table(
                ["Tag", "InPort", "OutPort", "NewTag"],
                rule_rows(merged_rules.tables[switch]),
            )
        )
    report("fig5_tables3_4_walkthrough", "\n".join(sections))

    # Paper numbers: 4 brute-force tags -> 2 after greedy merging.
    assert bf.max_tag == 4
    assert merged.max_tag == 2
    assert det.num_tags == 2
    # Rule rewrites in Table 3 go +1 per hop.
    for (tag, _, _), new_tag in bf_rules.tables["A"].rules.items():
        assert new_tag == tag + 1
