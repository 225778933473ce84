"""Baseline comparison — detect-and-break vs Tagger (paper §1).

Paper: deadlock *detection* schemes "do not address the root cause of the
problem, and hence cannot guarantee that the deadlock would not
immediately reappear". We implement a generous detector (polls the exact
runtime wait-for graph, breaks cycles by draining a victim queue) and run
the Fig. 10 scenario with *recurring* slow-receiver transients.

Shape to reproduce: plain PFC freezes permanently after the first
transient; the breaker keeps the fabric alive but the deadlock re-forms
on every transient and each recovery destroys lossless packets; Tagger
prevents all of it at the highest goodput with zero loss.
"""

import pytest

from conftest import add_fig10_flows, format_table, throttle_h2
from repro.core import TaggerPlan
from repro.routing import shortest_path_tables
from repro.simulator import DeadlockBreaker, SimNetwork, find_deadlock_cycle
from repro.topology import testbed_clos


DURATION = 0.6
TRANSIENTS = 5


def run_mode(mode: str):
    topo = testbed_clos()
    table = shortest_path_tables(topo)
    if mode == "tagger":
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        net = SimNetwork.with_plan(topo, table, plan)
    else:
        net = SimNetwork(topo, table)
    breaker = None
    if mode == "detect-and-break":
        breaker = DeadlockBreaker(net, period=0.005)
        breaker.install()
    add_fig10_flows(net, 4001, 4002)
    for i in range(TRANSIENTS):
        begin = 0.05 + i * 0.1
        throttle_h2(net, begin, begin + 0.03)
    net.run(DURATION)
    return {
        "mode": mode,
        "frozen_at_end": find_deadlock_cycle(net) is not None,
        "deadlocks": breaker.detections if breaker else None,
        "reset_drops": breaker.total_dropped if breaker else 0,
        "goodput_mb": sum(net.metrics.delivered_bytes.values()) / 1e6,
        "lossless_drops": net.metrics.drops.get("lossless_overflow", 0),
    }


def run_all():
    return [run_mode(m) for m in ("pfc-only", "detect-and-break", "tagger")]


def test_baseline_recovery(report):
    results = run_all()
    rows = [
        (
            r["mode"],
            "FROZEN" if r["frozen_at_end"] else "live",
            r["deadlocks"] if r["deadlocks"] is not None else "-",
            r["reset_drops"],
            f"{r['goodput_mb']:.1f}",
        )
        for r in results
    ]
    table = format_table(
        [
            "scheme",
            "end state",
            "deadlocks formed",
            "lossless pkts destroyed",
            "goodput (MB)",
        ],
        rows,
    )
    report("baseline_recovery", table)

    pfc, breaker, tagger = results
    # Plain PFC: permanent freeze after the first transient.
    assert pfc["frozen_at_end"]
    # Detect-and-break: survives, but the deadlock reappears on (most of)
    # the recurring transients and recovery destroys lossless packets.
    assert not breaker["frozen_at_end"]
    assert breaker["deadlocks"] >= TRANSIENTS
    assert breaker["reset_drops"] > 0
    # Tagger: prevention — nothing to detect, nothing destroyed, and the
    # best goodput of the three.
    assert not tagger["frozen_at_end"]
    assert tagger["reset_drops"] == 0 and tagger["lossless_drops"] == 0
    assert tagger["goodput_mb"] > breaker["goodput_mb"] > pfc["goodput_mb"]
