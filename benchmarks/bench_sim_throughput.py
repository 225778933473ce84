"""Wheel-vs-heap simulator throughput on the reference 64-ToR incast.

The fast paths of ``repro.simulator`` (event wheel, decision cache, flat
accounting, closure-free ports) exist so million-packet Tagger
evaluations fit a CI fuzz budget; this benchmark pins how much faster
they actually are than the naive stack they replaced, which lives on as
the equivalence suite's fixture (``tests/simulator/reference_stack.py``,
``"heap"`` below). It drives the reference 64-ToR Clos incast — the
16-to-1 hot sink of ``bench_detect_overhead`` — over an all-ToRs ring
shuffle (forwarding-heavy background load, the regime the wheel is built
for) once per stack, interleaved best-of-N on each side to shave
scheduler noise, and asserts:

- the two stacks produce the **same simulation** (delivered packets,
  drops, PFC pause/resume counts, final clock, events run — the full
  byte-level check lives in ``tests/simulator/test_engine_equivalence``);
- the production stack clears ``SPEEDUP_FLOOR`` x the reference
  packets/sec.

Both wall clocks and the measured speedup are printed, not persisted
(the production stack's recorded reading is ``simulator.run_s`` of the
``fabric-pfcstorm-clos64`` workload in the e2e ledger). The fast paths
targeted >= 3x; with one implementation per behaviour in the stack
(docs/PERFORMANCE.md has the per-inlining cost table) it measures
~2.5-2.7x best-of-N on the shared single-CPU CI runner (loaded-host
wall clocks swing +/-20%). The asserted floor keeps the same noise
margin the other bench gates use, so it trips on real regressions (a
slow-path fallback, a lost decision cache) rather than on a busy runner.
"""

import time

from conftest import CLOS64, format_table, show
from repro.routing import shortest_path_tables
from repro.simulator import Flow, SimNetwork
from repro.simulator.packet import SimConfig
from repro.topology import clos3
from tests.simulator.reference_stack import ReferenceSimNetwork

#: Stack under each name of the printed table.
STACKS = {"wheel": SimNetwork, "heap": ReferenceSimNetwork}

DURATION = 0.01
SENDERS = 16
WINDOW = 8

#: Interleaved rounds per stack; best wall clock wins on each side.
ROUNDS = 3

#: Acceptance bar: wheel packets/sec >= floor * heap packets/sec.
SPEEDUP_FLOOR = 2.25


def build(stack: str) -> SimNetwork:
    topo = clos3(CLOS64)
    net = STACKS[stack](
        topo, shortest_path_tables(topo), config=SimConfig(seed=7)
    )
    hosts = sorted(topo.hosts)
    sink = hosts[0]
    fid = 7700
    for src in hosts[1 : SENDERS + 1]:
        net.add_flow(
            Flow(src=src, dst=sink, packet_size=4096, window=WINDOW,
                 flow_id=fid)
        )
        fid += 1
    # Background ring shuffle: every host sends to the host seven ToRs
    # over, keeping every pod's fabric links busy while the incast
    # pounds the sink — the pause-storm-over-busy-fabric mix of the
    # paper's Fig. 12 evaluation.
    n = len(hosts)
    for i, src in enumerate(hosts):
        net.add_flow(
            Flow(src=src, dst=hosts[(i + 7) % n], packet_size=1000,
                 window=WINDOW, flow_id=fid)
        )
        fid += 1
    return net


def outcome(net: SimNetwork):
    metrics = net.metrics
    return (
        sum(metrics.delivered_packets.values()),
        dict(sorted(metrics.drops.items())),
        metrics.pfc.pause_count,
        metrics.pfc.resume_count,
        net.sim.now,
        net.sim.total_events_run,
    )


def test_sim_throughput():
    results = {}
    # Interleave the stacks round by round so a load spike on the
    # shared runner cannot land entirely on one side.
    for _ in range(ROUNDS):
        for stack in STACKS:
            net = build(stack)
            started = time.perf_counter()
            net.sim.run(until=DURATION)
            wall = time.perf_counter() - started
            best, _ = results.get(stack, (None, None))
            if best is None or wall < best:
                results[stack] = (wall, outcome(net))
    wall_wheel, out_wheel = results["wheel"]
    wall_heap, out_heap = results["heap"]

    # Same simulation on both stacks — the differential suite proves
    # byte-identity; this guards the bench itself against drift.
    assert out_wheel == out_heap, (
        f"stacks diverged on the bench scenario: {out_wheel} != {out_heap}"
    )
    delivered = out_wheel[0]
    events = out_wheel[5]
    assert delivered > 0 and out_wheel[2] > 0  # traffic flowed, PFC fired

    pps_wheel = delivered / wall_wheel
    pps_heap = delivered / wall_heap
    speedup = pps_wheel / pps_heap
    rows = [
        ("wheel (shipped)", f"{delivered}", f"{wall_wheel:.3f}",
         f"{pps_wheel:,.0f}", f"{events / wall_wheel:,.0f}"),
        ("heap (reference)", f"{delivered}", f"{wall_heap:.3f}",
         f"{pps_heap:,.0f}", f"{events / wall_heap:,.0f}"),
    ]
    table = format_table(
        ["stack", "packets", "wall (s)", "packets/sec", "events/sec"],
        rows,
    )
    show(
        "sim_throughput",
        f"{SENDERS}->1 incast + ring shuffle on the 64-ToR Clos "
        f"({DURATION} s simulated, best of {ROUNDS} interleaved):\n"
        f"{table}\n"
        f"wheel/heap speedup: {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR}, target 3)",
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"shipped stack too slow: {speedup:.2f}x the reference stack, "
        f"below the {SPEEDUP_FLOOR} floor"
    )
