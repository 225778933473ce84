"""Ablation — what tag minimization buys, and what realizability costs.

Compares three taggers across every topology family:

- Algorithm 1 alone (no merging): tags = longest ELP path;
- Algorithm 2 (paper greedy): minimal-ish tags, but its output can
  demand conflicting rules, silently demoting ELP traffic when deployed;
- deterministic merge (this library's default): rule-realizable by
  construction, same tag counts here, full coverage except where
  congruence contradictions force demotions.

Shape: merging is essential (8 -> 3 tags on Clos bounce ELPs; beyond the
PFC ceiling otherwise), and only the deterministic variant keeps ELP
coverage at 100% after rules are generated.
"""

import pytest

from conftest import format_table
from repro.core import (
    bruteforce_tagging,
    clos_bounce_elp,
    coverage_report,
    deterministic_minimize,
    greedy_minimize,
    jellyfish_elp,
    rules_from_tagged_graph,
)
from repro.topology import jellyfish, testbed_clos


def coverage_of(topo, graph, elp):
    tables = rules_from_tagged_graph(topo, graph).tables
    lossless, total, _ = coverage_report(topo, tables, elp)
    return lossless / total


def run_ablation():
    cases = []
    clos = testbed_clos()
    cases.append(("clos 1-bounce", clos, clos_bounce_elp(clos, 1)))
    jf = jellyfish(30, 10, hosts_per_switch=0, seed=2)
    cases.append(("jellyfish-30", jf, jellyfish_elp(jf)))

    rows = []
    for name, topo, elp in cases:
        bf = bruteforce_tagging(topo, elp)
        greedy = greedy_minimize(bf)
        det = deterministic_minimize(topo, bf)
        det_lossless, det_total, _ = coverage_report(topo, det.tables, elp)
        rows.append(
            (
                name,
                len(elp),
                bf.max_tag,
                f"{coverage_of(topo, bf, elp):.3f}",
                greedy.max_tag,
                f"{coverage_of(topo, greedy, elp):.3f}",
                det.num_tags,
                f"{det_lossless / det_total:.3f}",
            )
        )
    return rows


def test_ablation_minimizers(report):
    rows = run_ablation()
    table = format_table(
        [
            "ELP",
            "paths",
            "Alg1 tags",
            "Alg1 cov",
            "Alg2 tags",
            "Alg2 cov",
            "Det tags",
            "Det cov",
        ],
        rows,
    )
    report("ablation_minimizers", table)
    for row in rows:
        # Merging never increases tags; Algorithm 1 always covers fully.
        assert row[4] <= row[2] and row[6] <= row[2]
        assert float(row[3]) == 1.0
        # The deterministic variant covers fully on these ELPs.
        assert float(row[7]) == 1.0
    # The documented Algorithm 2 defect: post-rule coverage below 1 on
    # the Clos bounce ELP.
    clos_row = rows[0]
    assert float(clos_row[5]) < 1.0
