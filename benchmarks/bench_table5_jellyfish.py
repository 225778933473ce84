"""Table 5 — Tagger scalability on Jellyfish.

Paper: Jellyfish fabrics with 50..2000 switches (half the ports facing
servers) need at most 3 lossless priorities for shortest-path ELPs, with
modest per-switch rule counts; adding 1000 extra random paths to the ELP
(last row) keeps the priority count low. Shape to reproduce: priorities
plateau at 2-3 regardless of scale; rules grow with port count, not
fabric size, and compress well.
"""

import pytest

from conftest import FULL, format_table
from repro.core import (
    bruteforce_tagging,
    compress_joint,
    deterministic_minimize,
    jellyfish_elp,
)
from repro.topology import jellyfish

#: (num_switches, ports_per_switch, extra random ELP paths)
SIZES = [
    (50, 12, 0),
    (100, 12, 0),
    (200, 16, 0),
    (500, 24, 0),
    (500, 24, 1000),
]
if FULL:
    SIZES.append((2000, 32, 1000))


def run_row(num_switches, ports, extra_paths):
    topo = jellyfish(
        num_switches, ports, hosts_per_switch=0, seed=1
    )
    elp = jellyfish_elp(topo, extra_random_paths=extra_paths)
    longest = elp.longest_hops()
    result = deterministic_minimize(topo, bruteforce_tagging(topo, elp))
    max_rules = max(len(t) for t in result.tables.values())
    max_tcam = max(
        len(compress_joint(t.as_rules())) for t in result.tables.values()
    )
    return (
        num_switches,
        ports,
        longest,
        f"+{extra_paths}" if extra_paths else "shortest",
        result.num_tags,
        max_rules,
        max_tcam,
    )


def run_table():
    return [run_row(*size) for size in SIZES]


def test_table5_jellyfish_scalability(report):
    rows = run_table()
    table = format_table(
        [
            "Switches",
            "Ports",
            "Longest lossless",
            "ELP",
            "Priorities",
            "Max rules/switch",
            "Max TCAM/switch",
        ],
        rows,
    )
    report("table5_jellyfish", table)
    priorities = [row[4] for row in rows]
    # Paper shape: priorities stay at <= 3 across all scales.
    assert max(priorities) <= 3
    # Rules compress: TCAM entries never exceed uncompressed rules.
    assert all(row[6] <= row[5] for row in rows)
