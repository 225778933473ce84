"""End-to-end simulator tests: delivery, PFC back-pressure, conservation."""

import pytest

from repro.exceptions import SimulationError
from repro.routing import shortest_path_tables
from repro.simulator import (
    DROP_TTL,
    Flow,
    SimConfig,
    SimNetwork,
    pin_path,
)


def build_net(testbed, **kwargs):
    return SimNetwork(testbed, shortest_path_tables(testbed), **kwargs)


class TestDelivery:
    def test_single_flow_line_rate(self, testbed):
        net = build_net(testbed)
        flow = net.add_flow(Flow(src="H1", dst="H9"))
        net.run(0.05)
        rate = net.metrics.mean_rate(flow.flow_id, 0.02, 0.05)
        assert rate == pytest.approx(1e9, rel=0.02)

    def test_intra_tor_flow(self, testbed):
        net = build_net(testbed)
        flow = net.add_flow(Flow(src="H1", dst="H2"))
        net.run(0.02)
        assert net.metrics.delivered_packets[flow.flow_id] > 0

    def test_finite_flow_stops(self, testbed):
        net = build_net(testbed)
        flow = net.add_flow(Flow(src="H1", dst="H9", total_bytes=40960))
        net.run(0.05)
        assert net.metrics.delivered_bytes[flow.flow_id] == 40960

    def test_flow_start_stop_window(self, testbed):
        net = build_net(testbed)
        flow = net.add_flow(Flow(src="H1", dst="H9", start=0.01, stop=0.02))
        net.run(0.05)
        assert net.metrics.mean_rate(flow.flow_id, 0.0, 0.01) == 0.0
        assert net.metrics.mean_rate(flow.flow_id, 0.012, 0.018) > 0
        assert net.metrics.mean_rate(flow.flow_id, 0.03, 0.05) == 0.0

    def test_open_loop_rate(self, testbed):
        net = build_net(testbed)
        flow = net.add_flow(Flow(src="H1", dst="H9", rate_bps=2e8))
        net.run(0.05)
        rate = net.metrics.mean_rate(flow.flow_id, 0.01, 0.05)
        assert rate == pytest.approx(2e8, rel=0.05)

    def test_unknown_hosts_rejected(self, testbed):
        net = build_net(testbed)
        with pytest.raises(SimulationError):
            net.add_flow(Flow(src="H1", dst="nope"))
        with pytest.raises(SimulationError):
            net.add_flow(Flow(src="nope", dst="H1"))

    def test_pinned_path_is_followed(self, testbed, bounce_paths):
        green, _ = bounce_paths
        net = build_net(testbed)
        flow = net.add_flow(
            Flow(src=green[0], dst=green[-1], pinned_next_hops=pin_path(green))
        )
        net.run(0.01)
        # Bounce path has 7 switch hops; deliveries confirm the detour.
        assert net.metrics.delivered_packets[flow.flow_id] > 0
        # The L1 switch saw traffic (it is not on any shortest path H9->H2).
        l1_port = testbed.port_to("L1", "S1")
        assert net.switches["L1"].tx_ports[l1_port].packets_sent > 0


class TestBackpressure:
    def test_incast_saturates_access_link(self, testbed):
        net = build_net(testbed)
        flows = [
            net.add_flow(Flow(src=src, dst="H1"))
            for src in ("H5", "H9", "H13")
        ]
        net.run(0.1)
        rates = [net.metrics.mean_rate(f.flow_id, 0.05, 0.1) for f in flows]
        # The access link is fully used and shared per ingress port (PFC
        # gives per-port, not per-flow, fairness), so every flow gets a
        # meaningful share and the total matches the 1 Gb/s bottleneck.
        assert sum(rates) == pytest.approx(1e9, rel=0.02)
        assert min(rates) > 0.15e9
        # PFC must have fired: lossless incast cannot drop.
        assert net.metrics.pfc.pause_count > 0
        assert net.metrics.total_drops() == 0

    def test_pause_reaches_host_nic(self, testbed):
        net = build_net(testbed)
        for src in ("H5", "H9", "H13"):
            net.add_flow(Flow(src=src, dst="H1"))
        net.run(0.05)
        pauses = net.metrics.pfc.pauses_by_link()
        host_pauses = [
            (s, r) for (s, r) in pauses if r.startswith("H")
        ]
        assert host_pauses, "PFC should propagate back to sender NICs"

    def test_conservation(self, testbed):
        net = build_net(testbed)
        for src, dst in (("H1", "H9"), ("H5", "H13"), ("H2", "H6")):
            net.add_flow(Flow(src=src, dst=dst))
        net.run(0.05)
        check = net.conservation_check()
        assert check["injected"] == (
            check["delivered"] + check["dropped"] + check["in_flight"]
        )
        assert check["in_flight"] >= 0


class TestScheduledMutations:
    def test_table_swap_mid_run(self, testbed):
        net = build_net(testbed)
        flow = net.add_flow(Flow(src="H1", dst="H9"))

        def break_route():
            net.table.remove_route("T1", "H9")

        net.at(0.02, break_route)
        net.run(0.05)
        # Traffic flowed, then died on no_route drops.
        assert net.metrics.mean_rate(flow.flow_id, 0.0, 0.02) > 0
        assert net.metrics.drops["no_route"] > 0

    def test_loop_without_tagger_freezes_not_drops(self, testbed):
        """Lossless looping traffic fills buffers and deadlocks; TTL never
        fires because frozen packets are not forwarded (contrast with the
        Tagger case in test_deadlock.py, where demoted packets die)."""
        from repro.routing import install_loop
        from repro.simulator import is_deadlocked

        net = build_net(testbed)
        flow = net.add_flow(Flow(src="H1", dst="H9"))
        net.at(0.01, lambda: install_loop(net.table, "H9", "T3", "L3"))
        net.run(0.1)
        assert is_deadlocked(net)
        assert net.metrics.drops[DROP_TTL] == 0

    @pytest.mark.parametrize("ends", [("H1", "T1"), ("T1", "H1")])
    def test_failing_a_host_link_is_refused_before_anything_changes(
        self, testbed, ends
    ):
        """``fail_link`` brings down switch ports only: on a host link the
        NIC side would keep transmitting over a link marked failed."""
        net = build_net(testbed)
        flow = net.add_flow(Flow(src="H1", dst="H5"))
        net.run(0.001)
        delivered = net.metrics.delivered_packets[flow.flow_id]
        with pytest.raises(SimulationError, match="H1.*not a switch"):
            net.fail_link(*ends)
        assert not testbed.is_failed("H1", "T1")
        assert net.switches["T1"].tx_ports[testbed.port_to("T1", "H1")].link_up
        assert net.metrics.total_drops() == 0
        net.run(0.002)
        assert net.metrics.delivered_packets[flow.flow_id] > delivered


class TestReceiverThrottling:
    def test_slow_receiver_limits_rate(self, testbed):
        net = build_net(testbed)
        flow = net.add_flow(Flow(src="H1", dst="H9"))
        net.set_receiver_rate("H9", 1e8)
        net.run(0.1)
        rate = net.metrics.mean_rate(flow.flow_id, 0.05, 0.1)
        assert rate == pytest.approx(1e8, rel=0.1)
        assert net.metrics.total_drops() == 0  # PFC absorbed it losslessly

    def test_slow_receiver_with_mixed_priorities_recovers(self, testbed):
        """Regression: a pressured NIC receiving two lossless priorities
        must pause AND resume both — resuming only the last-drained
        packet's priority left the other frozen forever."""
        from repro.core import TaggerPlan
        from repro.simulator import pin_path

        plan = TaggerPlan.for_clos(testbed, max_bounces=1)
        net = SimNetwork.with_plan(testbed, shortest_path_tables(testbed), plan)
        # Tag-2 traffic into H1 (bounced) plus tag-1 traffic (up-down).
        bounced = ("H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H1")
        f_bounced = net.add_flow(
            Flow(src="H9", dst="H1", pinned_next_hops=pin_path(bounced))
        )
        f_plain = net.add_flow(Flow(src="H13", dst="H1"))
        net.at(0.02, lambda: net.set_receiver_rate("H1", 2e7))
        net.at(0.05, lambda: net.set_receiver_rate("H1", None))
        net.run(0.2)
        from repro.simulator import is_deadlocked

        assert not is_deadlocked(net)
        for flow in (f_bounced, f_plain):
            assert net.metrics.mean_rate(flow.flow_id, 0.15, 0.2) > 1e8

    def test_receiver_recovery(self, testbed):
        net = build_net(testbed)
        flow = net.add_flow(Flow(src="H1", dst="H9"))
        net.set_receiver_rate("H9", 5e7)
        net.at(0.05, lambda: net.set_receiver_rate("H9", None))
        net.run(0.15)
        slow = net.metrics.mean_rate(flow.flow_id, 0.02, 0.05)
        fast = net.metrics.mean_rate(flow.flow_id, 0.1, 0.15)
        assert slow < 1e8
        assert fast == pytest.approx(1e9, rel=0.05)
