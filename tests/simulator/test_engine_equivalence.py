"""Differential trace-equivalence: production stack vs the frozen reference.

The headline guarantee behind every fast path in ``repro.simulator``
(per-time event lists, decision cache, flat accounting, closure-free
ports): it
produces **byte-identical** event traces, PFC frame logs and final
metrics to the naive reference stack of
``tests/simulator/reference_stack.py`` — across the paper's deadlock
reproductions (Fig. 10/11/12), detection and watchdog
runs, dynamic thresholds, ECN marking, a mid-run link flap, multi-class
round-robin, an untraced jittered run, and Hypothesis-generated
Clos/Jellyfish/BCube fabrics.

Each named scenario also has a golden fingerprint under
``tests/golden/sim-equivalence.json`` pinning the (shared) behavior
itself, so a change that alters *both* stacks in lockstep still shows
up in review. Regenerate intentionally with::

    PYTHONPATH=src python -m pytest tests/simulator/test_engine_equivalence.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import TaggerPlan
from repro.core.pipeline import QueueMap
from repro.core.tags import LOSSY_TAG
from repro.fuzz.scenarios import ScenarioGenerator
from repro.routing import install_loop, shortest_path_tables
from repro.simulator import (
    DcqcnFlow,
    DeadlockDetector,
    Flow,
    PacketTracer,
    PfcWatchdog,
    SimConfig,
    SimNetwork,
    passthrough_pipeline,
    pin_path,
)
from repro.topology import testbed_clos

from .reference_stack import ReferenceSimNetwork

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "sim-equivalence.json"

GREEN = ("H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H2")
BLUE = ("H1", "T1", "L1", "S1", "L3", "S2", "L4", "T4", "H13")
BOUNCE_1 = ("H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H1")
BOUNCE_2 = ("H5", "T2", "L1", "S1", "L3", "S2", "L4", "T4", "H15")

#: Trace ring large enough that no scenario here evicts (eviction would
#: still be identical on both stacks, but full traces give the digest
#: maximal coverage).
TRACE_CAPACITY = 400_000


def _canonical_lines(net, tracer):
    """The byte streams the equivalence claim is made over.

    ``tracer`` is ``None`` for the untraced scenario (empty trace).
    """
    trace = [
        f"{e.time!r}|{e.kind}|{e.node}|{e.flow_id}|{e.packet_id}"
        f"|{e.tag}|{e.detail}"
        for e in (tracer.events if tracer is not None else ())
    ]
    pfc = [
        f"{e.time!r}|{e.sender}|{e.receiver}|{e.queue}|{int(e.pause)}"
        for e in net.metrics.pfc.events
    ]
    return trace, pfc


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def fingerprint(net, tracer, extra=None):
    trace, pfc = _canonical_lines(net, tracer)
    out = {
        "trace_events": len(trace),
        "trace_sha256": _sha(trace),
        "pfc_frames": len(pfc),
        "pfc_sha256": _sha(pfc),
        "pauses": net.metrics.pfc.pause_count,
        "resumes": net.metrics.pfc.resume_count,
        "drops": dict(sorted(net.metrics.drops.items())),
        "conservation": net.conservation_check(),
        "events_run": net.sim.total_events_run,
        "now": net.sim.now,
    }
    if extra:
        out["extra"] = extra
    return out


# ---------------------------------------------------------------------------
# Named scenarios (each returns a run fabric + tracer + extra facts)
# ---------------------------------------------------------------------------


def _deadlock_net(net_cls):
    """The Fig. 10 bounce-deadlock trigger on the paper's testbed."""
    topo = testbed_clos()
    net = net_cls(topo, shortest_path_tables(topo))
    net.add_flow(
        Flow(src="H1", dst="H13", pinned_next_hops=pin_path(BLUE), flow_id=7101)
    )
    net.add_flow(
        Flow(
            src="H9",
            dst="H2",
            start=0.01,
            pinned_next_hops=pin_path(GREEN),
            flow_id=7102,
        )
    )
    net.at(0.05, lambda: net.set_receiver_rate("H2", 5e7))
    net.at(0.08, lambda: net.set_receiver_rate("H2", None))
    return net


def scenario_fig10_bounce_deadlock(net_cls):
    net = _deadlock_net(net_cls)
    tracer = PacketTracer(capacity=TRACE_CAPACITY).attach(net)
    net.run(0.2)
    from repro.simulator import find_deadlock_cycle

    cycle = find_deadlock_cycle(net)
    return net, tracer, {"deadlocked": cycle is not None}


def scenario_fig11_routing_loop(net_cls):
    topo = testbed_clos()
    net = net_cls(topo, shortest_path_tables(topo))
    net.add_flow(Flow(src="H1", dst="H5", flow_id=7111))
    net.add_flow(
        Flow(
            src="H2",
            dst="H6",
            pinned_next_hops=pin_path(("H2", "T1", "L1", "T2", "H6")),
            flow_id=7112,
        )
    )
    net.at(0.02, lambda: install_loop(net.table, "H5", "T1", "L1"))
    tracer = PacketTracer(capacity=TRACE_CAPACITY).attach(net)
    net.run(0.2)
    from repro.simulator import find_deadlock_cycle

    cycle = find_deadlock_cycle(net)
    return net, tracer, {"deadlocked": cycle is not None}


def scenario_fig12_pause_propagation(net_cls):
    topo = testbed_clos()
    net = net_cls(topo, shortest_path_tables(topo))
    next_id = iter(range(7120, 7128))
    net.add_flow(
        Flow(src="H9", dst="H1", pinned_next_hops=pin_path(BOUNCE_1),
             flow_id=next(next_id))
    )
    net.add_flow(
        Flow(src="H5", dst="H15", pinned_next_hops=pin_path(BOUNCE_2),
             flow_id=next(next_id))
    )
    incast_paths = {
        "H11": ("H11", "T3", "L4", "S2", "L1", "T1", "H1"),
        "H13": ("H13", "T4", "L4", "S2", "L1", "T1", "H1"),
        "H14": ("H14", "T4", "L3", "S2", "L1", "T1", "H1"),
    }
    for src, path in incast_paths.items():
        net.add_flow(
            Flow(src=src, dst="H1", pinned_next_hops=pin_path(path),
                 flow_id=next(next_id))
        )
    for dst in ("H2", "H12", "H16"):
        net.add_flow(Flow(src="H5", dst=dst, flow_id=next(next_id)))
    net.at(0.05, lambda: net.set_receiver_rate("H1", 2e7))
    net.at(0.1, lambda: net.set_receiver_rate("H1", None))
    tracer = PacketTracer(capacity=TRACE_CAPACITY).attach(net)
    net.run(0.25)
    return net, tracer, {}


def scenario_detect_on(net_cls):
    """Fig. 10 trigger with the runtime DCFIT-style detector installed.

    A third, unpinned background flow rides along so the traced workload
    is distinct from the plain Fig. 10 scenario (the detector itself is
    a pure observer and leaves the packet trace untouched).
    """
    net = _deadlock_net(net_cls)
    net.add_flow(Flow(src="H3", dst="H11", flow_id=7103))
    detector = DeadlockDetector(net)
    detector.install()
    tracer = PacketTracer(capacity=TRACE_CAPACITY).attach(net)
    net.run(0.25)
    return net, tracer, {
        "triggers": detector.triggers_originated,
        "suspects": detector.suspects_raised,
        "confirms": detector.confirms,
    }


def scenario_watchdog_demotion(net_cls):
    """Fig. 10 trigger with the PFC watchdog baseline breaking the storm."""
    net = _deadlock_net(net_cls)
    watchdog = PfcWatchdog(net, detection_time=0.02, poll=0.005)
    watchdog.install()
    tracer = PacketTracer(capacity=TRACE_CAPACITY).attach(net)
    net.run(0.25)
    return net, tracer, {
        "storms": watchdog.storms,
        "dropped": watchdog.total_dropped,
    }


def scenario_tagged_incast(net_cls):
    """A tagged testbed under incast — the Tagger pipeline exercised."""
    topo = testbed_clos()
    plan = TaggerPlan.for_clos(topo, max_bounces=1)
    net = net_cls.with_plan(topo, shortest_path_tables(topo), plan)
    for i, src in enumerate(("H5", "H9", "H13", "H15")):
        net.add_flow(Flow(src=src, dst="H1", flow_id=7130 + i))
    net.at(0.03, lambda: net.set_receiver_rate("H1", 1e8))
    net.at(0.09, lambda: net.set_receiver_rate("H1", None))
    tracer = PacketTracer(capacity=TRACE_CAPACITY).attach(net)
    net.run(0.15)
    return net, tracer, {}


INCAST_SOURCES = ("H5", "H9", "H13", "H15")


def _delivered(net):
    """Per-flow delivered (packets, bytes), in flow-id order."""
    metrics = net.metrics
    return {
        str(flow): [metrics.delivered_packets[flow], metrics.delivered_bytes[flow]]
        for flow in sorted(metrics.delivered_packets)
    }


def scenario_dynamic_thresholds(net_cls):
    """Incast under Broadcom-style alpha thresholds (XOFF moves per charge)."""
    topo = testbed_clos()
    config = SimConfig(
        dynamic_thresholds=True, dt_alpha=0.25, shared_buffer_bytes=128 * 1024
    )
    net = net_cls(topo, shortest_path_tables(topo), config=config)
    for i, src in enumerate(INCAST_SOURCES):
        net.add_flow(Flow(src=src, dst="H1", flow_id=7140 + i))
    net.at(0.02, lambda: net.set_receiver_rate("H1", 1e8))
    net.at(0.06, lambda: net.set_receiver_rate("H1", None))
    tracer = PacketTracer(capacity=TRACE_CAPACITY).attach(net)
    net.run(0.1)
    return net, tracer, {"delivered": _delivered(net)}


def scenario_ecn_marking(net_cls):
    """ECN marks at egress enqueue, observed through DCQCN's CNP loop."""
    topo = testbed_clos()
    config = SimConfig(ecn_threshold_bytes=20_000)
    net = net_cls(topo, shortest_path_tables(topo), config=config)
    senders = [
        DcqcnFlow(src=src, dst="H1", flow_id=7150 + i).attach(net)
        for i, src in enumerate(INCAST_SOURCES)
    ]
    net.add_flow(Flow(src="H6", dst="H1", flow_id=7155))
    tracer = PacketTracer(capacity=TRACE_CAPACITY).attach(net)
    net.run(0.05)
    return net, tracer, {
        "cnps_sent": [s.cnps_sent for s in senders],
        "cnps_received": [s.cnps_received for s in senders],
        "rates": [repr(s.rate) for s in senders],
    }


def scenario_link_flap_midrun(net_cls):
    """A loaded link fails and comes back while its queues hold packets."""
    topo = testbed_clos()
    net = net_cls(topo, shortest_path_tables(topo))
    net.add_flow(
        Flow(src="H1", dst="H13", pinned_next_hops=pin_path(BLUE), flow_id=7160)
    )
    net.add_flow(
        Flow(
            src="H2",
            dst="H14",
            pinned_next_hops=pin_path(
                ("H2", "T1", "L1", "S1", "L3", "S2", "L4", "T4", "H14")
            ),
            flow_id=7161,
        )
    )
    net.add_flow(Flow(src="H9", dst="H5", flow_id=7162))
    lost = []
    net.at(0.01, lambda: lost.append(net.fail_link("L1", "S1")))
    # Pinned traffic keeps arriving at the dead port: restore finds its
    # queues non-empty and must restart the transmit loop.
    net.at(0.02, lambda: net.restore_link("L1", "S1"))
    net.at(0.03, lambda: lost.append(net.fail_link("S1", "L3")))
    net.at(0.035, lambda: net.restore_link("S1", "L3"))
    tracer = PacketTracer(capacity=TRACE_CAPACITY).attach(net)
    net.run(0.06)
    return net, tracer, {"lost": lost, "delivered": _delivered(net)}


def scenario_multiclass_rr(net_cls):
    """Two lossless classes and a lossy flow share one egress port.

    Every flow leaves T1 toward H1, so the round-robin pick at that port
    has three candidate queues; throttling H1 pauses the lossless two
    while the lossy one keeps draining (and tail-drops).
    """
    topo = testbed_clos()
    pipeline = passthrough_pipeline(num_lossless_tags=2)
    net = net_cls(
        topo,
        shortest_path_tables(topo),
        pipelines={name: pipeline for name in topo.switches},
        host_queue_map=QueueMap.identity(2),
    )
    net.add_flow(Flow(src="H5", dst="H1", initial_tag=1, flow_id=7170))
    net.add_flow(Flow(src="H9", dst="H1", initial_tag=2, flow_id=7171))
    net.add_flow(Flow(src="H13", dst="H1", initial_tag=2, flow_id=7172))
    net.add_flow(
        Flow(src="H15", dst="H1", initial_tag=LOSSY_TAG, rate_bps=4e8,
             flow_id=7173)
    )
    net.at(0.02, lambda: net.set_receiver_rate("H1", 2e8))
    net.at(0.05, lambda: net.set_receiver_rate("H1", None))
    tracer = PacketTracer(capacity=TRACE_CAPACITY).attach(net)
    net.run(0.08)
    return net, tracer, {"delivered": _delivered(net)}


def scenario_untraced_jitter(net_cls):
    """No tracer attached: the hosts' untraced delivery path, with jitter.

    Every other scenario attaches a :class:`PacketTracer`; this one
    compares the PFC log, per-flow deliveries, drops, clock and event
    count only, so the ``net.tracer is None`` branches get diffed too.
    """
    topo = testbed_clos()
    config = SimConfig(injection_jitter=2e-6, seed=11)
    net = net_cls(topo, shortest_path_tables(topo), config=config)
    for i, src in enumerate(INCAST_SOURCES):
        net.add_flow(Flow(src=src, dst="H1", flow_id=7180 + i))
    net.add_flow(Flow(src="H2", dst="H10", rate_bps=3e8, flow_id=7185))
    net.at(0.02, lambda: net.set_receiver_rate("H1", 1e8))
    net.at(0.05, lambda: net.set_receiver_rate("H1", None))
    net.run(0.08)
    return net, None, {"delivered": _delivered(net)}


SCENARIOS = {
    "fig10-bounce-deadlock": scenario_fig10_bounce_deadlock,
    "fig11-routing-loop": scenario_fig11_routing_loop,
    "fig12-pause-propagation": scenario_fig12_pause_propagation,
    "detect-on": scenario_detect_on,
    "watchdog-demotion": scenario_watchdog_demotion,
    "tagged-incast": scenario_tagged_incast,
    "dynamic-thresholds": scenario_dynamic_thresholds,
    "ecn-marking": scenario_ecn_marking,
    "link-flap-midrun": scenario_link_flap_midrun,
    "multiclass-rr": scenario_multiclass_rr,
    "untraced-jitter": scenario_untraced_jitter,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_wheel_is_byte_identical_to_reference(name, request):
    build = SCENARIOS[name]
    net_ref, tracer_ref, extra_ref = build(ReferenceSimNetwork)
    net_fast, tracer_fast, extra_fast = build(SimNetwork)

    trace_ref, pfc_ref = _canonical_lines(net_ref, tracer_ref)
    trace_fast, pfc_fast = _canonical_lines(net_fast, tracer_fast)
    assert trace_fast == trace_ref
    assert pfc_fast == pfc_ref
    assert extra_fast == extra_ref

    fp_ref = fingerprint(net_ref, tracer_ref, extra_ref)
    fp_fast = fingerprint(net_fast, tracer_fast, extra_fast)
    assert fp_fast == fp_ref

    # Pin the shared behavior against the golden fingerprint.
    update = request.config.getoption("--update-golden")
    golden = (
        json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    )
    if update:
        golden[name] = fp_ref
        GOLDEN_PATH.write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"golden fingerprint for {name!r} rewritten")
    assert name in golden, (
        f"no golden fingerprint for {name!r}; run with --update-golden"
    )
    assert fp_ref == golden[name]


def test_scenarios_exercise_distinct_behavior():
    """The scenarios are not copies of one workload."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(golden) == set(SCENARIOS)
    shas = {entry["trace_sha256"] for entry in golden.values()}
    assert len(shas) == len(SCENARIOS)
    # At least one deadlocking and one deadlock-free scenario.
    assert golden["fig10-bounce-deadlock"]["extra"]["deadlocked"]
    assert golden["watchdog-demotion"]["extra"]["storms"] >= 1
    assert golden["detect-on"]["extra"]["confirms"] >= 1


# ---------------------------------------------------------------------------
# Property: byte identity over generated fabrics
# ---------------------------------------------------------------------------


def _run_generated(scenario, net_cls):
    """Drive a fuzz-generated topology with a deterministic flow set."""
    topo = scenario.build_topology()
    hosts = sorted(topo.hosts)
    assume(len(hosts) >= 2)
    net = net_cls(topo, shortest_path_tables(topo))
    flows = [
        (hosts[0], hosts[-1]),
        (hosts[-1], hosts[0]),
        (hosts[len(hosts) // 2], hosts[0]),
    ]
    for i, (src, dst) in enumerate(flows):
        if src != dst:
            net.add_flow(Flow(src=src, dst=dst, flow_id=9000 + i))
    net.at(0.004, lambda: net.set_receiver_rate(hosts[0], 2e7))
    net.at(0.008, lambda: net.set_receiver_rate(hosts[0], None))
    tracer = PacketTracer(capacity=TRACE_CAPACITY).attach(net)
    net.run(0.02)
    return net, tracer


@settings(
    max_examples=min(settings().max_examples, 15),
    deadline=None,
)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_generated_fabrics_byte_identical(seed):
    """Production-vs-reference identity on seeded Clos/Jellyfish/BCube scenarios."""
    scenario = next(ScenarioGenerator(seed))
    net_ref, tracer_ref = _run_generated(scenario, ReferenceSimNetwork)
    net_fast, tracer_fast = _run_generated(scenario, SimNetwork)
    assert _canonical_lines(net_fast, tracer_fast) == _canonical_lines(
        net_ref, tracer_ref
    )
    assert fingerprint(net_fast, tracer_fast) == fingerprint(
        net_ref, tracer_ref
    )
