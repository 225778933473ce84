"""Fig. 11 — deadlock due to a routing loop.

Paper (testbed): F1 (H1 -> H5) and F2 (H2 -> H6, also crossing the T1-L1
link). At t = 20 ms a bad route is installed at L1 so F1 ping-pongs
between T1 and L1. Without Tagger the looping lossless packets fill both
buffers and deadlock the link, freezing F2 as well. With Tagger the
looping packets exceed the bounce budget, drop to the lossy class and
die (by tail drop / TTL); F2 keeps running (its rate is reduced by
sharing the link with circulating loop traffic, as in the paper).
"""

import pytest

from conftest import format_series
from repro.core import TaggerPlan
from repro.routing import install_loop, shortest_path_tables
from repro.simulator import Flow, SimNetwork, find_deadlock_cycle, pin_path
from repro.topology import testbed_clos

DURATION = 0.3
LOOP_AT = 0.02


def run_scenario(with_tagger: bool):
    topo = testbed_clos()
    table = shortest_path_tables(topo)
    if with_tagger:
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        net = SimNetwork.with_plan(topo, table, plan, metrics_bucket=0.01)
    else:
        net = SimNetwork(topo, table, metrics_bucket=0.01)
    # Explicit ids: F1's id is its ECMP hash at T1, so an auto-assigned
    # one would make this figure depend on which benchmarks ran before.
    f1 = net.add_flow(Flow(src="H1", dst="H5", flow_id=7))
    f2 = net.add_flow(
        Flow(
            src="H2",
            dst="H6",
            flow_id=8,
            pinned_next_hops=pin_path(("H2", "T1", "L1", "T2", "H6")),
        )
    )
    net.at(LOOP_AT, lambda: install_loop(net.table, "H5", "T1", "L1"))
    net.run(DURATION)
    series = {
        "F1": [r for _, r in net.metrics.rate_series(f1.flow_id, 0, DURATION)],
        "F2": [r for _, r in net.metrics.rate_series(f2.flow_id, 0, DURATION)],
    }
    tail = {
        "F1": net.metrics.mean_rate(f1.flow_id, DURATION - 0.1, DURATION),
        "F2": net.metrics.mean_rate(f2.flow_id, DURATION - 0.1, DURATION),
    }
    return net, series, tail, find_deadlock_cycle(net)


def run_both():
    return run_scenario(False), run_scenario(True)


def test_fig11_routing_loop(report):
    without, with_tagger = run_both()
    net_a, series_a, tail_a, cycle_a = without
    net_b, series_b, tail_b, cycle_b = with_tagger

    lines = [
        f"(a) Without Tagger: deadlock={'YES' if cycle_a else 'no'}"
        + (f" on {sorted({n[0] for n in cycle_a})}" if cycle_a else ""),
        f"    tail rates: F1={tail_a['F1'] / 1e6:.1f} F2={tail_a['F2'] / 1e6:.1f} Mbps, "
        f"drops={dict(net_a.metrics.drops)}",
        format_series([("F1", None), ("F2", None)], series_a, t_step=0.01),
        "",
        f"(b) With Tagger: deadlock={'YES' if cycle_b else 'no'}",
        f"    tail rates: F1={tail_b['F1'] / 1e6:.1f} F2={tail_b['F2'] / 1e6:.1f} Mbps, "
        f"drops={dict(net_b.metrics.drops)}",
        format_series([("F1", None), ("F2", None)], series_b, t_step=0.01),
    ]
    report("fig11_routing_loop", "\n".join(lines))

    # Without Tagger: T1<->L1 deadlock, both flows at 0, no drops.
    assert cycle_a is not None and {n[0] for n in cycle_a} == {"T1", "L1"}
    assert tail_a["F1"] == 0.0 and tail_a["F2"] == 0.0
    # With Tagger: no deadlock; F1's goodput is 0 (packets die in the
    # loop as lossy), F2 keeps flowing.
    assert cycle_b is None
    assert tail_b["F1"] == 0.0
    assert tail_b["F2"] > 1e8
    lossy_deaths = net_b.metrics.drops.get("lossy_overflow", 0) + net_b.metrics.drops.get(
        "ttl_expired", 0
    )
    assert lossy_deaths > 0
