"""Fig. 10 — Clos deadlock due to 1-bounce paths.

Paper (testbed): the blue flow starts first, the green flow second; both
are rerouted onto the Fig. 3 1-bounce paths. Without Tagger the CBD turns
into a deadlock and both flow rates collapse to zero permanently; with
Tagger both keep their fair share.

Simulation substitution: the testbed's 40 Gb/s fabric is scaled to
1 Gb/s; deadlock formation is triggered by a transient slow receiver
(the classic RoCE back-pressure event) that *abates* mid-run — the
defining observation is that the deadlock persists afterwards.
"""

import pytest

from conftest import add_fig10_flows, format_series, throttle_h2
from repro.core import TaggerPlan
from repro.routing import shortest_path_tables
from repro.simulator import SimNetwork, find_deadlock_cycle
from repro.topology import testbed_clos


DURATION = 0.4


def run_scenario(with_tagger: bool):
    topo = testbed_clos()
    table = shortest_path_tables(topo)
    if with_tagger:
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        net = SimNetwork.with_plan(topo, table, plan, metrics_bucket=0.01)
    else:
        net = SimNetwork(topo, table, metrics_bucket=0.01)
    blue, green = add_fig10_flows(net, 1001, 1002)
    throttle_h2(net)
    net.run(DURATION)
    series = {
        "blue": [r for _, r in net.metrics.rate_series(blue.flow_id, 0, DURATION)],
        "green": [r for _, r in net.metrics.rate_series(green.flow_id, 0, DURATION)],
    }
    tail = {
        "blue": net.metrics.mean_rate(blue.flow_id, DURATION - 0.1, DURATION),
        "green": net.metrics.mean_rate(green.flow_id, DURATION - 0.1, DURATION),
    }
    return net, series, tail, find_deadlock_cycle(net)


def run_both():
    return run_scenario(False), run_scenario(True)


def test_fig10_bounce_deadlock(report):
    without, with_tagger = run_both()
    net_a, series_a, tail_a, cycle_a = without
    net_b, series_b, tail_b, cycle_b = with_tagger

    lines = [
        f"(a) Without Tagger: deadlock={'YES' if cycle_a else 'no'}"
        + (f", wait-for cycle spans {sorted({n[0] for n in cycle_a})}" if cycle_a else ""),
        f"    final rates: blue={tail_a['blue'] / 1e6:.1f} Mbps, "
        f"green={tail_a['green'] / 1e6:.1f} Mbps, drops={dict(net_a.metrics.drops)}",
        format_series(
            [("blue", None), ("green", None)], series_a, t_step=0.01
        ),
        "",
        f"(b) With Tagger (k=1, 2 lossless queues): "
        f"deadlock={'YES' if cycle_b else 'no'}",
        f"    final rates: blue={tail_b['blue'] / 1e6:.1f} Mbps, "
        f"green={tail_b['green'] / 1e6:.1f} Mbps, drops={dict(net_b.metrics.drops)}",
        format_series(
            [("blue", None), ("green", None)], series_b, t_step=0.01
        ),
    ]
    report("fig10_bounce_deadlock", "\n".join(lines))

    # Paper shape: without Tagger both rates collapse to 0 permanently
    # (long after the trigger abated at 0.08 s); with Tagger they stay up.
    assert cycle_a is not None
    assert tail_a["blue"] == 0.0 and tail_a["green"] == 0.0
    assert cycle_b is None
    assert tail_b["blue"] > 2e8 and tail_b["green"] > 2e8
    # Deadlock freezes, it does not drop.
    assert net_a.metrics.total_drops() == 0
    assert net_b.metrics.total_drops() == 0
