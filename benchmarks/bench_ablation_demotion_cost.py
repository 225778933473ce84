"""Ablation — what lossy demotion actually costs the application.

Paper §4.2/§6: demotion to the lossy class is a last resort, and "does
not mean that the packets are automatically or immediately dropped". With
a RoCE-style go-back-N transport on top, even genuine lossy drops cost
goodput, not correctness. This bench transfers the same message over:

1. a lossless shortest path (baseline);
2. a 2-bounce path demoted to lossy beyond the budget, fabric otherwise
   idle — completes at essentially the same speed (nothing drops);
3. the same demoted path with a lossless competitor squeezing the lossy
   class — drops occur, go-back-N recovers, the message still completes.

Shape: completion always; retransmissions only in case 3.
"""

import pytest

from conftest import format_table
from repro.core import TaggerPlan
from repro.routing import shortest_path_tables
from repro.simulator import (
    Flow,
    ReliableMessage,
    SimConfig,
    SimNetwork,
    pin_path,
)
from repro.topology import testbed_clos

TWO_BOUNCE = ("H9", "T3", "L3", "T4", "L4", "S1", "L1", "S2", "L2", "T1", "H2")
MESSAGE_SIZE = 400_000


def run_case(name: str):
    topo = testbed_clos()
    plan = TaggerPlan.for_clos(topo, max_bounces=1)
    config = SimConfig(lossy_cap_bytes=16 * 1024)
    net = SimNetwork.with_plan(
        topo, shortest_path_tables(topo), plan, config=config
    )
    kwargs = dict(src="H9", dst="H2", message_size=MESSAGE_SIZE, window=64)
    if name == "lossless shortest":
        msg = ReliableMessage(**kwargs).attach(net)
    elif name == "demoted, idle fabric":
        msg = ReliableMessage(
            pinned_next_hops=pin_path(TWO_BOUNCE), **kwargs
        ).attach(net)
    else:  # demoted, contended
        net.add_flow(
            Flow(
                src="H13",
                dst="H2",
                flow_id=7801,
                pinned_next_hops=pin_path(
                    ("H13", "T4", "L3", "S2", "L2", "T1", "H2")
                ),
            )
        )
        msg = ReliableMessage(
            pinned_next_hops=pin_path(TWO_BOUNCE), rto=0.01, **kwargs
        ).attach(net)
    net.run(2.0)
    return {
        "name": name,
        "completed": msg.stats.completed,
        "time_ms": (msg.completion_time or 0) * 1000,
        "retx": msg.stats.retransmissions,
        "lossy_drops": net.metrics.drops.get("lossy_overflow", 0),
    }


def run_all():
    return [
        run_case("lossless shortest"),
        run_case("demoted, idle fabric"),
        run_case("demoted, contended"),
    ]


def test_demotion_cost(report):
    results = run_all()
    rows = [
        (
            r["name"],
            "yes" if r["completed"] else "NO",
            f"{r['time_ms']:.1f}",
            r["retx"],
            r["lossy_drops"],
        )
        for r in results
    ]
    table = format_table(
        [
            "scenario",
            "completed",
            "completion (ms)",
            "retransmissions",
            "lossy drops",
        ],
        rows,
    )
    report("ablation_demotion_cost", table)

    lossless, idle, contended = results
    assert all(r["completed"] for r in results)
    # Idle fabric: demotion alone costs (almost) nothing.
    assert idle["lossy_drops"] == 0 and idle["retx"] == 0
    assert idle["time_ms"] < lossless["time_ms"] * 2
    # Contention: real drops happen, go-back-N pays in time, not data.
    assert contended["lossy_drops"] > 0
    assert contended["retx"] > 0
    assert contended["time_ms"] > idle["time_ms"]
