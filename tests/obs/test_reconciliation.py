"""Reconciliation property: bus-derived counters == legacy recorder.

The instrumentation is only trustworthy if it is *lossless*: every
aggregate the telemetry bus can re-derive from raw events must equal the
corresponding :class:`~repro.simulator.metrics.MetricsRecorder` counter
exactly — same flows, same byte counts, same per-reason drop tallies,
same pause/resume totals. The Hypothesis sweep below pins this over
seeded random small-Clos scenarios (ISSUE acceptance: 50+); the
deterministic cases extend the same check to the rarer event kinds
(TTL drops, tag demotions, watchdog storms, deadlock detections).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import TaggerPlan
from repro.obs import Telemetry, TelemetryError, derive_sim_counts
from repro.obs.events import (
    EV_SIM_DEADLOCK,
    EV_SIM_DELIVER,
    EV_SIM_DEMOTE,
    EV_SIM_DROP,
    EV_SIM_INJECT,
    EV_SIM_WATCHDOG,
)
from repro.routing import install_loop, shortest_path_tables
from repro.simulator import (
    DeadlockBreaker,
    Flow,
    PfcWatchdog,
    SimConfig,
    SimNetwork,
    pin_path,
)
from repro.topology import ClosParams, clos3, testbed_clos

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HOSTS = ["H1", "H2", "H3", "H4"]


def assert_reconciles(net, telemetry):
    """Every bus-derived aggregate equals the recorder's, exactly."""
    recorder = net.metrics
    assert telemetry.bus.evicted == 0, "bus undersized for the scenario"
    counts = derive_sim_counts(telemetry.bus)

    assert counts["injected"] == dict(recorder.injected_packets)
    assert counts["delivered_packets"] == dict(recorder.delivered_packets)
    assert counts["delivered_bytes"] == dict(recorder.delivered_bytes)
    assert counts["drops"] == dict(recorder.drops)
    assert counts["drops_per_flow"] == dict(recorder.drops_per_flow)
    assert counts["pauses"] == recorder.pfc.pause_count
    assert counts["resumes"] == recorder.pfc.resume_count

    # The registry view (scrape counters) must agree with both.
    registry = telemetry.registry
    assert registry.get("sim_packets_injected_total").value() == sum(
        recorder.injected_packets.values()
    )
    assert registry.get("sim_packets_delivered_total").value() == sum(
        recorder.delivered_packets.values()
    )
    assert registry.get("sim_bytes_delivered_total").value() == sum(
        recorder.delivered_bytes.values()
    )
    dropped = registry.get("sim_packets_dropped_total")
    for reason, count in recorder.drops.items():
        assert dropped.value(reason=reason) == count
    pfc = registry.get("sim_pfc_frames_total")
    assert pfc.value(kind="pause") == recorder.pfc.pause_count
    assert pfc.value(kind="resume") == recorder.pfc.resume_count
    demotions = registry.get("sim_tag_demotions_total")
    for switch, count in recorder.demotions.items():
        assert demotions.value(switch=switch) == count
    assert telemetry.bus.count(EV_SIM_DEMOTE) == sum(
        recorder.demotions.values()
    )


@st.composite
def clos_scenarios(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    flows = []
    for _ in range(count):
        src, dst = draw(
            st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS)).filter(
                lambda pair: pair[0] != pair[1]
            )
        )
        start = draw(st.floats(min_value=0.0, max_value=0.01))
        flows.append(Flow(src=src, dst=dst, start=start))
    slow = draw(
        st.none()
        | st.tuples(
            st.sampled_from(HOSTS),
            st.sampled_from([1e7, 5e7]),
            st.floats(min_value=0.0, max_value=0.01),
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    tagger = draw(st.booleans())
    return flows, slow, seed, tagger


@given(clos_scenarios())
@SETTINGS
def test_seeded_clos_runs_reconcile(scenario):
    """The headline property: lossless instrumentation on random runs."""
    flows, slow, seed, tagger = scenario
    topo = clos3(ClosParams(hosts_per_tor=1))
    table = shortest_path_tables(topo)
    telemetry = Telemetry(capacity=200_000, packet_events=True)
    config = SimConfig(seed=seed, injection_jitter=1e-6)
    if tagger:
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        net = SimNetwork.with_plan(
            topo, table, plan, config=config, telemetry=telemetry
        )
    else:
        net = SimNetwork(topo, table, config=config, telemetry=telemetry)
    for flow in flows:
        net.add_flow(flow)
    if slow is not None:
        host, rate, begin = slow
        net.at(begin, lambda: net.set_receiver_rate(host, rate))
        net.at(begin + 0.01, lambda: net.set_receiver_rate(host, None))
    net.run(0.03)
    assert_reconciles(net, telemetry)


GREEN = ("H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H2")
BLUE = ("H1", "T1", "L1", "S1", "L3", "S2", "L4", "T4", "H13")


def bounce_net(testbed, telemetry, with_tagger):
    table = shortest_path_tables(testbed)
    if with_tagger:
        plan = TaggerPlan.for_clos(testbed, max_bounces=1)
        net = SimNetwork.with_plan(testbed, table, plan, telemetry=telemetry)
    else:
        net = SimNetwork(testbed, table, telemetry=telemetry)
    net.add_flow(Flow(src="H1", dst="H13", pinned_next_hops=pin_path(BLUE)))
    net.add_flow(
        Flow(src="H9", dst="H2", start=0.01, pinned_next_hops=pin_path(GREEN))
    )
    net.at(0.05, lambda: net.set_receiver_rate("H2", 5e7))
    net.at(0.08, lambda: net.set_receiver_rate("H2", None))
    return net


def lossy_loop_net(telemetry):
    topo = testbed_clos()
    table = shortest_path_tables(topo)
    plan = TaggerPlan.for_clos(topo, max_bounces=1)
    net = SimNetwork.with_plan(topo, table, plan, telemetry=telemetry)
    net.add_flow(Flow(src="H1", dst="H5"))
    net.at(0.02, lambda: install_loop(net.table, "H5", "T1", "L1"))
    return net


class TestDeterministicScenarios:
    """Rarer event kinds, each pinned by a purpose-built scenario."""

    def test_pause_storm_reconciles(self):
        telemetry = Telemetry(capacity=200_000, packet_events=True)
        net = bounce_net(testbed_clos(), telemetry, with_tagger=False)
        net.run(0.12)
        assert net.metrics.pfc.pause_count > 0
        assert_reconciles(net, telemetry)

    def test_tag_demotions_reconcile(self):
        telemetry = Telemetry(capacity=200_000, packet_events=True)
        net = bounce_net(testbed_clos(), telemetry, with_tagger=True)
        net.run(0.12)
        assert sum(net.metrics.demotions.values()) > 0
        assert_reconciles(net, telemetry)

    def test_lossy_loop_drops_reconcile(self):
        """Fig. 11(b) routing loop under Tagger: demoted packets die by
        TTL / lossy tail-drop; every drop reason reconciles."""
        telemetry = Telemetry(capacity=500_000, packet_events=True)
        net = lossy_loop_net(telemetry)
        net.run(0.1)
        assert net.metrics.total_drops() > 0
        assert_reconciles(net, telemetry)

    def test_watchdog_storms_reconcile(self):
        telemetry = Telemetry(capacity=200_000, packet_events=True)
        net = bounce_net(testbed_clos(), telemetry, with_tagger=False)
        watchdog = PfcWatchdog(net, detection_time=0.02, poll=0.005)
        watchdog.install()
        net.run(0.2)
        assert len(watchdog.events) > 0
        assert telemetry.bus.count(EV_SIM_WATCHDOG) == len(watchdog.events)
        assert telemetry.registry.get(
            "sim_watchdog_storms_total"
        ).value() == len(watchdog.events)
        assert_reconciles(net, telemetry)

    def test_deadlock_detections_reconcile(self):
        telemetry = Telemetry(capacity=200_000, packet_events=True)
        net = bounce_net(testbed_clos(), telemetry, with_tagger=False)
        breaker = DeadlockBreaker(net, period=0.01)
        breaker.install()
        net.run(0.2)
        assert len(breaker.events) > 0
        assert telemetry.bus.count(EV_SIM_DEADLOCK) == len(breaker.events)
        assert telemetry.registry.get(
            "sim_deadlock_detections_total"
        ).value() == len(breaker.events)
        assert_reconciles(net, telemetry)


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_multi_seed_storms_reconcile(seed):
    """Jittered storm runs: heavier PFC churn, same exact reconciliation."""
    topo = testbed_clos()
    telemetry = Telemetry(capacity=500_000, packet_events=True)
    net = SimNetwork(
        topo,
        shortest_path_tables(topo),
        config=SimConfig(seed=seed, injection_jitter=2e-6),
        telemetry=telemetry,
    )
    net.add_flow(Flow(src="H1", dst="H13", pinned_next_hops=pin_path(BLUE)))
    net.add_flow(
        Flow(src="H9", dst="H2", start=0.005, pinned_next_hops=pin_path(GREEN))
    )
    net.at(0.02, lambda: net.set_receiver_rate("H2", 2e7))
    net.run(0.08)
    assert_reconciles(net, telemetry)


class TestDefaultAttachment:
    """A default ``Telemetry()`` folds healthy-packet kinds into counts
    but keeps every anomaly (drops, demotions) as an event."""

    def assert_folds_packets(self, net, telemetry):
        recorder = net.metrics
        bus = telemetry.bus
        assert not bus.events(EV_SIM_INJECT) and not bus.events(EV_SIM_DELIVER)
        injected = sum(recorder.injected_packets.values())
        delivered = sum(recorder.delivered_packets.values())
        assert bus.count(EV_SIM_INJECT) == injected
        assert bus.count(EV_SIM_DELIVER) == delivered
        assert bus.folded == injected + delivered
        with pytest.raises(TelemetryError, match="packet_events=True"):
            derive_sim_counts(bus)

    def test_loop_drops_stay_events(self):
        telemetry = Telemetry(capacity=500_000)
        net = lossy_loop_net(telemetry)
        net.run(0.1)
        drops = net.metrics.total_drops()
        assert drops > 0
        assert len(telemetry.bus.events(EV_SIM_DROP)) == drops
        assert telemetry.bus.evicted == 0
        self.assert_folds_packets(net, telemetry)

    def test_demotions_stay_events(self):
        telemetry = Telemetry(capacity=200_000)
        net = bounce_net(testbed_clos(), telemetry, with_tagger=True)
        net.run(0.12)
        demotions = sum(net.metrics.demotions.values())
        assert demotions > 0
        assert len(telemetry.bus.events(EV_SIM_DEMOTE)) == demotions
        assert telemetry.bus.evicted == 0
        self.assert_folds_packets(net, telemetry)
