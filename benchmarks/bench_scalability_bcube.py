"""§5.3 — BCube scalability: k tags for a k-level BCube.

Paper: "Algorithm 2 gives optimal results for BCube without requiring any
BCube-specific changes — a k-level BCube with default routing only needs
k tags to prevent deadlock."

Two ELP regimes:

- *fixed-order* digit correction (one deterministic path per pair) is
  dimension-ordered routing: provably deadlock-free in a single priority,
  and the merge indeed collapses to 1 tag;
- *rotated multi-path* correction (BCube's k+1 parallel paths per pair,
  each starting the correction at a different level) creates inter-level
  cycles; Algorithm 2 then needs exactly one tag per level — the paper's
  "k tags for a k-level BCube" (a BCube with L levels is BCube_{L-1}).
"""

import pytest

from conftest import FULL, format_table
from repro.core import (
    ElpSet,
    bcube_elp,
    bruteforce_tagging,
    coverage_report,
    deterministic_minimize,
    greedy_minimize,
)
from repro.topology import bcube
from repro.topology.bcube import bcube_rotated_route, bcube_servers

CASES = [(4, 1), (2, 2), (3, 2)]
if FULL:
    CASES.append((4, 2))


def rotated_elp(topo, n, k):
    elp = ElpSet(topo, description="BCube rotated multi-path")
    servers = bcube_servers(topo)
    for src in servers:
        for dst in servers:
            if src == dst:
                continue
            for level in range(k + 1):
                elp.add(bcube_rotated_route(topo, n, k, src, dst, level))
    elp.dedupe()
    return elp


def run_bcube():
    rows = []
    for n, k in CASES:
        topo = bcube(n, k)
        levels = k + 1
        fixed = bcube_elp(topo, n, k)
        fixed_tags = greedy_minimize(
            bruteforce_tagging(topo, fixed)
        ).max_tag
        multi = rotated_elp(topo, n, k)
        bf = bruteforce_tagging(topo, multi)
        alg2_tags = greedy_minimize(bf).max_tag
        det = deterministic_minimize(topo, bf)
        lossless, total, _ = coverage_report(topo, det.tables, multi)
        rows.append(
            (
                f"BCube({n},{k})",
                levels,
                len(multi),
                fixed_tags,
                alg2_tags,
                det.num_tags,
                f"{lossless}/{total}",
            )
        )
    return rows


def test_bcube_scalability(report):
    rows = run_bcube()
    table = format_table(
        [
            "Topology",
            "Levels",
            "Multi-path ELP",
            "Fixed-order tags",
            "Alg2 tags (multi)",
            "Det tags (multi)",
            "Det coverage",
        ],
        rows,
    )
    report("bcube_scalability", table)
    for row, (n, k) in zip(rows, CASES):
        levels = k + 1
        # Dimension-ordered routing needs a single priority.
        assert row[3] == 1
        # Paper: a `levels`-level BCube needs `levels` tags under the
        # multi-path default routing.
        assert row[4] == levels
        # The deterministic variant never needs more.
        assert row[5] <= levels
