#!/usr/bin/env python3
"""Watch a PFC deadlock form — and Tagger prevent it.

Recreates the paper's Fig. 10 experiment in the packet-level simulator:
two RDMA flows are rerouted onto 1-bounce paths after link failures; a
receiver NIC briefly slows down (the classic RoCE back-pressure event).
Without Tagger the transient turns the CBD into a permanent deadlock —
both flows flat-line at zero long after the receiver recovered. With
Tagger (2 lossless priorities), the fabric rides through it.

Run:  python examples/deadlock_demo.py
"""

from repro import Flow, SimNetwork, TaggerPlan, testbed_clos
from repro.routing import shortest_path_tables
from repro.simulator import find_deadlock_cycle, pin_path
from repro.topology import TESTBED_BLUE_PATH, TESTBED_GREEN_PATH


DURATION = 0.4  # seconds of simulated time


def run(with_tagger: bool) -> None:
    topo = testbed_clos()
    table = shortest_path_tables(topo)
    if with_tagger:
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        net = SimNetwork.with_plan(topo, table, plan, metrics_bucket=0.02)
    else:
        net = SimNetwork(topo, table, metrics_bucket=0.02)

    blue = net.add_flow(
        Flow(src="H1", dst="H13", pinned_next_hops=pin_path(TESTBED_BLUE_PATH))
    )
    green = net.add_flow(
        Flow(src="H9", dst="H2", start=0.01, pinned_next_hops=pin_path(TESTBED_GREEN_PATH))
    )
    # Transient trigger: H2's NIC processes at 50 Mb/s for 30 ms.
    net.at(0.05, lambda: net.set_receiver_rate("H2", 5e7))
    net.at(0.08, lambda: net.set_receiver_rate("H2", None))
    net.run(DURATION)

    label = "WITH Tagger" if with_tagger else "WITHOUT Tagger"
    print(f"\n--- {label} ---")
    print("time(s)  blue(Mbps)  green(Mbps)")
    blue_series = net.metrics.rate_series(blue.flow_id, 0, DURATION)
    green_series = net.metrics.rate_series(green.flow_id, 0, DURATION)
    for (t, b_rate), (_, g_rate) in zip(blue_series, green_series):
        print(f"{t:7.2f}  {b_rate / 1e6:10.1f}  {g_rate / 1e6:11.1f}")

    cycle = find_deadlock_cycle(net)
    if cycle:
        switches = sorted({node[0] for node in cycle})
        print(f"DEADLOCK: wait-for cycle across {switches} "
              f"(trigger ended at t=0.08s; the freeze is permanent)")
    else:
        print("no deadlock; PFC pause/resume stayed transient")
    print(f"PFC pauses: {net.metrics.pfc.pause_count}, "
          f"drops: {dict(net.metrics.drops) or 'none'}")


def main() -> None:
    run(with_tagger=False)
    run(with_tagger=True)


if __name__ == "__main__":
    main()
