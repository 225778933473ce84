"""§6 "PFC alternatives" — DCQCN minimizes pauses, Tagger prevents deadlock.

Paper: "One might argue that PFC is not worth the trouble... we are
actively investigating numerous schemes, including minimizing PFC
generation (e.g. DCQCN or Timely)... Our goal in this paper, however, is
to ensure safe deployment of RoCE using PFC" — congestion control and
deadlock prevention are complementary, not substitutes.

Two measurements:

1. **Incast**: DCQCN cuts PFC PAUSE frames by orders of magnitude (it
   slows senders before buffers reach XOFF).
2. **Bounce CBD + receiver stall**: with one CNP-timing draw the deadlock
   still freezes both DCQCN flows; with another it escapes — prevention
   by congestion control is probabilistic, while Tagger's guarantee is
   structural (zero deadlocks, always).
"""

import pytest

from conftest import add_fig10_flows, format_table, throttle_h2
from repro.core import TaggerPlan
from repro.routing import shortest_path_tables
from repro.simulator import (
    DcqcnFlow,
    Flow,
    SimConfig,
    SimNetwork,
    find_deadlock_cycle,
    pin_path,
)
from repro.topology import TESTBED_BLUE_PATH, TESTBED_GREEN_PATH, testbed_clos


def incast(with_dcqcn: bool):
    topo = testbed_clos()
    config = SimConfig(
        ecn_threshold_bytes=20 * 1024 if with_dcqcn else None
    )
    net = SimNetwork(topo, shortest_path_tables(topo), config=config)
    for i, src in enumerate(("H5", "H9", "H13")):
        if with_dcqcn:
            DcqcnFlow(src=src, dst="H1", flow_id=7900 + i).attach(net)
        else:
            net.add_flow(Flow(src=src, dst="H1", flow_id=7900 + i))
    net.run(0.2)
    total = sum(
        net.metrics.mean_rate(7900 + i, 0.1, 0.2) for i in range(3)
    )
    return net.metrics.pfc.pause_count, total


def cbd_scenario(mode: str, ids):
    topo = testbed_clos()
    use_ecn = mode in ("dcqcn", "dcqcn+tagger")
    config = SimConfig(ecn_threshold_bytes=20 * 1024 if use_ecn else None)
    table = shortest_path_tables(topo)
    if mode.endswith("tagger"):
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        net = SimNetwork.with_plan(topo, table, plan, config=config)
    else:
        net = SimNetwork(topo, table, config=config)
    if use_ecn:
        DcqcnFlow(src="H1", dst="H13", flow_id=ids[0]).attach(net)
        net.pin_flow(ids[0], pin_path(TESTBED_BLUE_PATH), dst="H13")
        DcqcnFlow(src="H9", dst="H2", start=0.01, flow_id=ids[1]).attach(net)
        net.pin_flow(ids[1], pin_path(TESTBED_GREEN_PATH), dst="H2")
    else:
        add_fig10_flows(net, *ids)
    throttle_h2(net)
    net.run(0.4)
    return find_deadlock_cycle(net) is not None


def run_all():
    plain_pauses, plain_total = incast(False)
    dcqcn_pauses, dcqcn_total = incast(True)
    outcomes = {
        "plain PFC": cbd_scenario("plain", (6201, 6202)),
        "DCQCN (draw A)": cbd_scenario("dcqcn", (6201, 6202)),
        "DCQCN (draw B)": cbd_scenario("dcqcn", (6351, 6352)),
        "DCQCN + Tagger (A)": cbd_scenario("dcqcn+tagger", (6201, 6202)),
        "DCQCN + Tagger (B)": cbd_scenario("dcqcn+tagger", (6351, 6352)),
    }
    return (plain_pauses, plain_total), (dcqcn_pauses, dcqcn_total), outcomes


def test_dcqcn(report):
    plain, dcqcn, outcomes = run_all()
    lines = [
        "incast 3->1 (0.2 s):",
        format_table(
            ["scheme", "PAUSE frames", "aggregate (Mbps)"],
            [
                ("plain PFC", plain[0], f"{plain[1] / 1e6:.0f}"),
                ("DCQCN", dcqcn[0], f"{dcqcn[1] / 1e6:.0f}"),
            ],
        ),
        "",
        "bounce CBD + receiver stall:",
        format_table(
            ["scheme", "deadlocked"],
            [(k, "YES" if v else "no") for k, v in outcomes.items()],
        ),
    ]
    report("dcqcn_pfc_alternatives", "\n".join(lines))

    # DCQCN crushes pause generation on the incast...
    assert dcqcn[0] < plain[0] / 20
    # ... but its deadlock outcome depends on luck (one draw freezes,
    # another escapes), while Tagger is safe in every draw.
    assert outcomes["plain PFC"]
    assert outcomes["DCQCN (draw A)"]
    assert not outcomes["DCQCN (draw B)"]
    assert not outcomes["DCQCN + Tagger (A)"]
    assert not outcomes["DCQCN + Tagger (B)"]
