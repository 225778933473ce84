"""Unit tests for the instrumentation adapters in ``repro.obs.instrument``."""

import pytest

from repro.core import TaggerPlan, UpDownElpProvider
from repro.obs import (
    MetricsRegistry,
    Telemetry,
    TelemetryBus,
    TelemetryError,
    derive_sim_counts,
    observe_plan,
    observe_timings,
    sample_queue_gauges,
    sim_metric_handles,
)
from repro.obs.events import (
    EV_SIM_DELIVER,
    EV_SIM_DROP,
    EV_SIM_INJECT,
    EV_SIM_PAUSE,
    EV_SIM_RESUME,
)
from repro.routing import shortest_path_tables
from repro.simulator import Flow, SimNetwork


class TestObserveTimings:
    def test_stage_dict_becomes_histogram_samples(self):
        registry = MetricsRegistry()
        observe_timings(registry, "planner", {"elp": 0.2, "verify": 0.02})
        hist = registry.get("planner_stage_seconds")
        assert hist.sample_count(component="planner", stage="elp") == 1
        assert hist.sample_sum(component="planner", stage="verify") == 0.02
        # Repeated observations accumulate in the same series.
        observe_timings(registry, "planner", {"elp": 0.3})
        assert hist.sample_count(component="planner", stage="elp") == 2


class TestObservePlan:
    def test_plan_sizes_become_gauges(self, testbed):
        registry = MetricsRegistry()
        plan = TaggerPlan.from_provider(testbed, UpDownElpProvider())
        observe_plan(registry, plan)
        assert registry.get("planner_rules").value() == plan.total_rules
        assert (
            registry.get("planner_lossless_queues").value()
            == plan.num_lossless_queues
        )
        assert registry.get("planner_switches").value() > 0


class TestSampleQueueGauges:
    def test_snapshot_covers_fabric_state(self, small_clos):
        net = SimNetwork(small_clos, shortest_path_tables(small_clos))
        net.add_flow(Flow(src="H1", dst="H3"))
        net.run(0.01)
        registry = MetricsRegistry()
        sample_queue_gauges(registry, net)
        assert registry.get("sim_events_run").value() == (
            net.sim.total_events_run
        )
        assert registry.get("sim_buffered_bytes").value() >= 0
        depth = registry.get("sim_queue_depth_bytes")
        assert depth is not None and depth.labelnames == (
            "switch", "port", "queue",
        )


class TestSimMetricHandles:
    def test_handles_are_cached_series(self):
        registry = MetricsRegistry()
        first = sim_metric_handles(registry)
        again = sim_metric_handles(registry)
        assert first.keys() == again.keys()
        for name in first:
            assert first[name] is again[name]


class TestDeriveSimCounts:
    def test_aggregates_raw_events(self):
        bus = TelemetryBus(packet_events=True)
        bus.emit(0.0, EV_SIM_INJECT, flow=1)
        bus.emit(0.0, EV_SIM_INJECT, flow=1)
        bus.emit(0.1, EV_SIM_DELIVER, flow=1, size=1000)
        bus.emit(0.2, EV_SIM_DELIVER, flow=1, size=500)
        bus.emit(0.3, EV_SIM_DROP, reason="ttl", flow=1)
        bus.emit(0.3, EV_SIM_DROP, reason="ttl", flow=None)
        bus.emit(0.4, EV_SIM_PAUSE, sender="A", receiver="B", queue=1)
        bus.emit(0.5, EV_SIM_RESUME, sender="A", receiver="B", queue=1)
        counts = derive_sim_counts(bus)
        assert counts == {
            "injected": {1: 2},
            "delivered_packets": {1: 2},
            "delivered_bytes": {1: 1500},
            "drops": {"ttl": 2},
            "drops_per_flow": {1: 1},
            "pauses": 1,
            "resumes": 1,
        }

    def test_folding_bus_fails_closed(self):
        """A bus that folds per-packet kinds holds no inject/deliver
        events to derive from; it names them and the opt-in instead of
        reporting zero injections."""
        bus = TelemetryBus()
        bus.fold(EV_SIM_INJECT, 2)
        with pytest.raises(TelemetryError) as caught:
            derive_sim_counts(bus)
        message = str(caught.value)
        assert EV_SIM_INJECT in message and EV_SIM_DELIVER in message
        assert "packet_events=True" in message

    def test_attach_detach_round_trip(self, small_clos):
        net = SimNetwork(small_clos, shortest_path_tables(small_clos))
        telemetry = Telemetry()
        net.metrics.attach_telemetry(telemetry)
        net.metrics.record_injection(0.0, 1)
        net.metrics.attach_telemetry(None)
        net.metrics.record_injection(0.0, 1)  # no longer mirrored
        assert net.metrics.injected_packets[1] == 2
        assert telemetry.bus.count(EV_SIM_INJECT) == 1
        # Detaching publishes what was recorded while attached.
        assert telemetry.registry.get(
            "sim_packets_injected_total"
        ).value() == 1
