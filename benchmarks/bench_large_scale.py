"""§8.1 — "extensive simulations": deadlock prevention at larger scale.

The paper's testbed has 8 switches; its simulations go bigger. This
benchmark runs a 4-pod / 4-spine Clos (20 switches, 32 hosts) with a
bounce-path CBD spanning two pods plus background permutation traffic,
under the same transient slow-receiver trigger. Shape: the larger fabric
deadlocks without Tagger (and the PAUSE storm freezes background flows
too); with Tagger everything keeps flowing at zero lossless loss.
"""

import pytest

from conftest import FULL, format_table
from repro.core import TaggerPlan
from repro.routing import count_bounces, shortest_path_tables
from repro.simulator import Flow, SimNetwork, find_deadlock_cycle, pin_path
from repro.topology import ClosParams, clos3
from repro.workloads import random_permutation_flows

PARAMS = ClosParams(
    num_pods=4, tors_per_pod=2, leaves_per_pod=2, num_spines=4, hosts_per_tor=2
)
DURATION = 0.4 if not FULL else 0.8

# A CBD between pods 1 and 2, same construction as Fig. 3: each flow
# bounces once at the other pod's leaf; the two bounce legs cross.
BOUNCE_A = ("H9", "T5", "L5", "S2", "L1", "S1", "L2", "T1", "H2")
BOUNCE_B = ("H1", "T1", "L1", "S1", "L5", "S2", "L6", "T5", "H10")


def run_mode(with_tagger: bool):
    topo = clos3(PARAMS)
    table = shortest_path_tables(topo)
    if with_tagger:
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        net = SimNetwork.with_plan(topo, table, plan)
    else:
        net = SimNetwork(topo, table)

    for path in (BOUNCE_A, BOUNCE_B):
        assert count_bounces(topo, path[1:-1]) == 1

    cbd_flows = [
        net.add_flow(
            Flow(
                src=BOUNCE_A[0],
                dst=BOUNCE_A[-1],
                pinned_next_hops=pin_path(BOUNCE_A),
                flow_id=7001,
            )
        ),
        net.add_flow(
            Flow(
                src=BOUNCE_B[0],
                dst=BOUNCE_B[-1],
                start=0.01,
                pinned_next_hops=pin_path(BOUNCE_B),
                flow_id=7002,
            )
        ),
    ]
    # Background: a permutation over the remaining pods' hosts (pods 2
    # and 4; the fabric has 16 hosts, H1-H16, two per ToR).
    background_hosts = [f"H{i}" for i in (5, 6, 7, 8, 13, 14, 15, 16)]
    background = []
    for i, flow in enumerate(
        random_permutation_flows(background_hosts, seed=4)
    ):
        flow.flow_id = 7100 + i
        background.append(net.add_flow(flow))

    net.at(0.05, lambda: net.set_receiver_rate("H2", 5e7))
    net.at(0.08, lambda: net.set_receiver_rate("H2", None))
    net.run(DURATION)

    tail = lambda f: net.metrics.mean_rate(  # noqa: E731
        f.flow_id, DURATION - 0.1, DURATION
    )
    return {
        "deadlock": find_deadlock_cycle(net),
        "cbd_rates": [tail(f) for f in cbd_flows],
        "background_alive": sum(1 for f in background if tail(f) > 0),
        "background_total": len(background),
        "lossless_drops": net.metrics.drops.get("lossless_overflow", 0),
        "goodput_mb": sum(net.metrics.delivered_bytes.values()) / 1e6,
    }


def run_both():
    return run_mode(False), run_mode(True)


def test_large_scale_clos(report):
    without, with_tagger = run_both()
    rows = [
        (
            "without Tagger",
            "YES" if without["deadlock"] else "no",
            " / ".join(f"{r / 1e6:.0f}" for r in without["cbd_rates"]),
            f"{without['background_alive']}/{without['background_total']}",
            f"{without['goodput_mb']:.0f}",
        ),
        (
            "with Tagger",
            "YES" if with_tagger["deadlock"] else "no",
            " / ".join(f"{r / 1e6:.0f}" for r in with_tagger["cbd_rates"]),
            f"{with_tagger['background_alive']}/{with_tagger['background_total']}",
            f"{with_tagger['goodput_mb']:.0f}",
        ),
    ]
    table = format_table(
        [
            "scheme",
            "deadlock",
            "CBD flows (Mbps)",
            "background alive",
            "goodput (MB)",
        ],
        rows,
    )
    report("large_scale_clos", table)

    assert without["deadlock"] is not None
    assert all(rate == 0.0 for rate in without["cbd_rates"])
    assert with_tagger["deadlock"] is None
    assert all(rate > 1e8 for rate in with_tagger["cbd_rates"])
    assert (
        with_tagger["background_alive"] == with_tagger["background_total"]
    )
    assert with_tagger["lossless_drops"] == 0
    assert with_tagger["goodput_mb"] > without["goodput_mb"]
