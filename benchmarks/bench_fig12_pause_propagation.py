"""Fig. 12 — PFC PAUSE propagation freezes the whole workload.

Paper (testbed): a 4-to-1 shuffle into H1 plus a 1-to-4 shuffle out of
H5 (8 flows total); two flows (H9 -> H1 and H5 -> H15) are manually
rerouted onto 1-bounce paths, forming the Fig. 3 CBD. Without Tagger the
deadlock's PAUSE frames propagate until *all eight* flows are frozen;
with Tagger nothing freezes.

Simulation substitution: deadlock onset is forced by a transient slow
receiver at H1 (back-pressure of the incast sink), which recovers — the
freeze must outlive it.
"""

import pytest

from conftest import format_table
from repro.core import TaggerPlan
from repro.routing import shortest_path_tables
from repro.simulator import Flow, SimNetwork, find_deadlock_cycle, pin_path
from repro.topology import testbed_clos

BOUNCE_1 = ("H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H1")
BOUNCE_2 = ("H5", "T2", "L1", "S1", "L3", "S2", "L4", "T4", "H15")

DURATION = 0.5
SLOW_START, SLOW_END = 0.05, 0.1


def run_scenario(with_tagger: bool):
    topo = testbed_clos()
    table = shortest_path_tables(topo)
    if with_tagger:
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        net = SimNetwork.with_plan(topo, table, plan, metrics_bucket=0.01)
    else:
        net = SimNetwork(topo, table, metrics_bucket=0.01)

    # Flow ids double as ECMP hashes; fix them so the scenario is
    # byte-identical regardless of what ran before in the process.
    next_id = iter(range(1000, 1008))
    flows = {}
    flows["H9->H1 (bounced)"] = net.add_flow(
        Flow(
            src="H9",
            dst="H1",
            pinned_next_hops=pin_path(BOUNCE_1),
            flow_id=next(next_id),
        )
    )
    flows["H5->H15 (bounced)"] = net.add_flow(
        Flow(
            src="H5",
            dst="H15",
            pinned_next_hops=pin_path(BOUNCE_2),
            flow_id=next(next_id),
        )
    )
    # The shuffle's plain flows ride normal up-down paths; like the
    # testbed's ECMP spread, they cross the links the CBD freezes
    # (S2->L1 / L3->S2), which is how the PAUSE storm reaches them.
    incast_paths = {
        "H11": ("H11", "T3", "L4", "S2", "L1", "T1", "H1"),
        "H13": ("H13", "T4", "L4", "S2", "L1", "T1", "H1"),
        "H14": ("H14", "T4", "L3", "S2", "L1", "T1", "H1"),
    }
    for src, path in incast_paths.items():
        flows[f"{src}->H1"] = net.add_flow(
            Flow(
                src=src,
                dst="H1",
                pinned_next_hops=pin_path(path),
                flow_id=next(next_id),
            )
        )
    for dst in ("H2", "H12", "H16"):
        flows[f"H5->{dst}"] = net.add_flow(
            Flow(src="H5", dst=dst, flow_id=next(next_id))
        )

    net.at(SLOW_START, lambda: net.set_receiver_rate("H1", 2e7))
    net.at(SLOW_END, lambda: net.set_receiver_rate("H1", None))
    net.run(DURATION)

    tail = {
        name: net.metrics.mean_rate(f.flow_id, DURATION - 0.1, DURATION)
        for name, f in flows.items()
    }
    return net, tail, find_deadlock_cycle(net)


def run_both():
    return run_scenario(False), run_scenario(True)


def test_fig12_pause_propagation(report):
    without, with_tagger = run_both()
    net_a, tail_a, cycle_a = without
    net_b, tail_b, cycle_b = with_tagger

    rows = [
        (name, f"{tail_a[name] / 1e6:.1f}", f"{tail_b[name] / 1e6:.1f}")
        for name in tail_a
    ]
    table = format_table(
        ["flow", "without Tagger (Mbps)", "with Tagger (Mbps)"], rows
    )
    lines = [
        table,
        "",
        f"without Tagger: deadlock={'YES' if cycle_a else 'no'}, "
        f"pauses={net_a.metrics.pfc.pause_count}",
        f"with Tagger:    deadlock={'YES' if cycle_b else 'no'}, "
        f"pauses={net_b.metrics.pfc.pause_count}",
    ]
    report("fig12_pause_propagation", "\n".join(lines))

    # Paper shape: without Tagger every flow is frozen by PAUSE
    # propagation; with Tagger all keep positive throughput.
    assert cycle_a is not None
    assert all(rate == 0.0 for rate in tail_a.values())
    assert cycle_b is None
    assert all(rate > 0.0 for rate in tail_b.values())
