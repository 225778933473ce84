"""Runtime detection overhead on the reference 64-ToR Clos incast.

The DCFIT-style detector shadows every PFC frame with chain metadata
and runs a periodic per-switch scan — pure bookkeeping that must stay
cheap even under heavy PAUSE churn. This benchmark drives a hot 16-to-1
incast (constant XOFF/XON traffic, zero deadlocks — worst case for
chain maintenance, since every PAUSE is a fresh trigger or extension)
across the 100-switch benchmark Clos with the detector off and on, and
asserts the simulated packet throughput keeps at least half its
detector-free rate. Both wall clocks are printed, not persisted; the
recorded reading is ``simulator.detection.overhead-ratio`` in the e2e
ledger (``benchmarks/e2e``).
"""

import time

from conftest import CLOS64, format_table, show
from repro.routing import shortest_path_tables
from repro.simulator import DeadlockDetector, Flow, SimNetwork
from repro.topology import clos3

DURATION = 0.05
SENDERS = 16

#: Acceptance bar: detector-on throughput >= this fraction of off.
OVERHEAD_FLOOR = 0.5


def run_incast(with_detector: bool):
    topo = clos3(CLOS64)
    net = SimNetwork(topo, shortest_path_tables(topo))
    hosts = sorted(topo.hosts)
    sink = hosts[0]
    for i, src in enumerate(hosts[1 : SENDERS + 1]):
        net.add_flow(Flow(src=src, dst=sink, flow_id=7600 + i))
    detector = None
    if with_detector:
        detector = DeadlockDetector(net)
        detector.install()
    started = time.perf_counter()
    net.run(DURATION)
    wall = time.perf_counter() - started
    delivered = sum(net.metrics.delivered_packets.values())
    return delivered, wall, net, detector


def test_detect_overhead():
    delivered_off, wall_off, net_off, _ = run_incast(False)
    delivered_on, wall_on, net_on, detector = run_incast(True)

    # The detector is a pure observer: identical simulated outcome.
    assert delivered_on == delivered_off
    assert net_on.metrics.total_drops() == net_off.metrics.total_drops()
    # The incast pauses constantly but can never close a loop.
    assert net_on.metrics.pfc.pause_count > 0
    assert detector.triggers_originated > 0
    assert detector.suspects_raised == 0
    assert detector.confirms == 0

    pps_off = delivered_off / wall_off
    pps_on = delivered_on / wall_on
    ratio = pps_on / pps_off
    rows = [
        ("detector off", f"{delivered_off}", f"{wall_off:.3f}",
         f"{pps_off:,.0f}"),
        ("detector on", f"{delivered_on}", f"{wall_on:.3f}",
         f"{pps_on:,.0f}"),
    ]
    table = format_table(
        ["mode", "packets", "wall (s)", "packets/sec (sim)"], rows
    )
    show(
        "detect_overhead",
        f"16->1 incast on the 64-ToR Clos ({DURATION} s simulated):\n"
        f"{table}\n"
        f"throughput ratio on/off: {ratio:.2f} "
        f"(floor {OVERHEAD_FLOOR})",
    )
    assert ratio >= OVERHEAD_FLOOR, (
        f"detector overhead too high: on/off throughput ratio {ratio:.2f} "
        f"below the {OVERHEAD_FLOOR} floor"
    )
