"""Fig. 3 — 1-bounce paths create a CBD (static analysis).

Paper: two loop-free flows, each bounced once by a link failure, create
the cyclic buffer dependency L1 -> S1 -> L3 -> S2 -> L1. We regenerate
the dependency graph from the exact Fig. 3 paths and exhibit the cycle.
"""

import pytest

from conftest import format_table
from repro.analysis import all_cbd_cycles, cbd_graph, find_cbd
from repro.routing import count_bounces, is_loop_free
from repro.topology import TESTBED_BLUE_PATH, TESTBED_GREEN_PATH, testbed_clos

GREEN = TESTBED_GREEN_PATH[1:-1]  # switch-only form
BLUE = TESTBED_BLUE_PATH[1:-1]


def run_analysis():
    topo = testbed_clos()
    graph = cbd_graph(topo, [GREEN, BLUE])
    cycle = find_cbd(graph)
    cycles = all_cbd_cycles(graph)
    return topo, graph, cycle, cycles


def test_fig3_bounce_cbd(report):
    topo, graph, cycle, cycles = run_analysis()
    lines = [
        f"green path: {' -> '.join(GREEN)} "
        f"(loop-free={is_loop_free(GREEN)}, bounces={count_bounces(topo, GREEN)})",
        f"blue path:  {' -> '.join(BLUE)} "
        f"(loop-free={is_loop_free(BLUE)}, bounces={count_bounces(topo, BLUE)})",
        f"buffer-dependency graph: {graph.number_of_nodes()} buffers, "
        f"{graph.number_of_edges()} dependencies",
        f"CBD cycle: {' -> '.join(f'{sw}:{port}' for sw, port in cycle)}",
    ]
    report("fig3_bounce_cbd", "\n".join(lines))
    # Paper claims: paths are loop-free, each with exactly one bounce,
    # and yet a CBD over exactly {L1, S1, L3, S2} exists.
    assert is_loop_free(GREEN) and is_loop_free(BLUE)
    assert count_bounces(topo, GREEN) == 1
    assert count_bounces(topo, BLUE) == 1
    assert cycle is not None
    assert {sw for sw, _ in cycle} == {"L1", "S1", "L3", "S2"}
