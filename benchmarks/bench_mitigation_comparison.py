"""Mitigation comparison — the full field: PFC watchdog, detect-and-break,
Tagger (paper §1's taxonomy, quantified).

Two scenarios separate the contenders:

1. **Fig. 10 deadlock** — a real CBD deadlock. Prevention (Tagger) avoids
   it outright; both reactive schemes break it, destroying lossless
   packets in the process.
2. **Stalled receiver** — a NIC freeze with *no* CBD anywhere. Plain PFC
   and Tagger absorb it losslessly; the watchdog, which cannot tell a
   long innocent pause from a deadlock, destroys in-flight data. (The
   wait-for-graph breaker stays quiet: it is given a global view no real
   switch has, i.e. this comparison is generous to reaction.)

Shape: only Tagger has zeros in both "deadlocked" and "lossless packets
destroyed" columns across both scenarios.
"""

import pytest

from conftest import add_fig10_flows, format_table, throttle_h2
from repro.core import TaggerPlan
from repro.routing import shortest_path_tables
from repro.simulator import (
    DeadlockBreaker,
    Flow,
    PfcWatchdog,
    SimNetwork,
    find_deadlock_cycle,
)
from repro.topology import testbed_clos


MODES = ("pfc-only", "watchdog", "detect-and-break", "tagger")


def build(mode: str):
    topo = testbed_clos()
    table = shortest_path_tables(topo)
    if mode == "tagger":
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        net = SimNetwork.with_plan(topo, table, plan)
    else:
        net = SimNetwork(topo, table)
    if mode == "watchdog":
        PfcWatchdog(net, detection_time=0.02, poll=0.005).install()
    elif mode == "detect-and-break":
        DeadlockBreaker(net, period=0.005).install()
    return net


def scenario_deadlock(mode: str):
    net = build(mode)
    add_fig10_flows(net, 7501, 7502)
    throttle_h2(net)
    net.run(0.3)
    destroyed = sum(
        net.metrics.drops.get(reason, 0)
        for reason in ("pfc_watchdog", "deadlock_reset", "lossless_overflow")
    )
    return {
        "frozen": find_deadlock_cycle(net) is not None,
        "destroyed": destroyed,
        "goodput_mb": sum(net.metrics.delivered_bytes.values()) / 1e6,
    }


def scenario_stalled_receiver(mode: str):
    net = build(mode)
    net.add_flow(Flow(src="H9", dst="H1", flow_id=7503))
    net.at(0.02, lambda: net.set_receiver_rate("H1", 1e5))
    net.at(0.15, lambda: net.set_receiver_rate("H1", None))
    net.run(0.25)
    destroyed = sum(
        net.metrics.drops.get(reason, 0)
        for reason in ("pfc_watchdog", "deadlock_reset", "lossless_overflow")
    )
    return {
        "frozen": find_deadlock_cycle(net) is not None,
        "destroyed": destroyed,
        "goodput_mb": sum(net.metrics.delivered_bytes.values()) / 1e6,
    }


def run_all():
    return {
        mode: {
            "deadlock": scenario_deadlock(mode),
            "stalled": scenario_stalled_receiver(mode),
        }
        for mode in MODES
    }


def test_mitigation_comparison(report):
    results = run_all()
    rows = []
    for mode in MODES:
        r = results[mode]
        rows.append(
            (
                mode,
                "FROZEN" if r["deadlock"]["frozen"] else "live",
                r["deadlock"]["destroyed"],
                f"{r['deadlock']['goodput_mb']:.0f}",
                r["stalled"]["destroyed"],
                f"{r['stalled']['goodput_mb']:.1f}",
            )
        )
    table = format_table(
        [
            "scheme",
            "fig10: end state",
            "fig10: destroyed",
            "fig10: goodput MB",
            "stall: destroyed",
            "stall: goodput MB",
        ],
        rows,
    )
    report("mitigation_comparison", table)

    res = results
    # Plain PFC: freezes on the deadlock, lossless on the stall.
    assert res["pfc-only"]["deadlock"]["frozen"]
    assert res["pfc-only"]["stalled"]["destroyed"] == 0
    # Watchdog: unfreezes the deadlock but destroys packets in BOTH
    # scenarios (false positive on the innocent stall).
    assert not res["watchdog"]["deadlock"]["frozen"]
    assert res["watchdog"]["deadlock"]["destroyed"] > 0
    assert res["watchdog"]["stalled"]["destroyed"] > 0
    # Global detect-and-break: correct on both, but still destroys
    # packets to break the real deadlock.
    assert not res["detect-and-break"]["deadlock"]["frozen"]
    assert res["detect-and-break"]["deadlock"]["destroyed"] > 0
    assert res["detect-and-break"]["stalled"]["destroyed"] == 0
    # Tagger: the only scheme with zero freezes and zero destruction.
    assert not res["tagger"]["deadlock"]["frozen"]
    assert res["tagger"]["deadlock"]["destroyed"] == 0
    assert res["tagger"]["stalled"]["destroyed"] == 0
