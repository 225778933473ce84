"""Tests for the egress-port transmit machinery."""

import pytest

from repro.exceptions import SimulationError
from repro.simulator import SimConfig, Simulator
from repro.simulator.packet import Packet
from repro.simulator.txport import TxPort

from .reference_stack import ReferenceSimulator


def make_port(sim, delivered, sent=None, bandwidth=1e9):
    config = SimConfig(bandwidth_bps=bandwidth, prop_delay=1e-6)
    return TxPort(
        sim,
        config,
        owner="A",
        port=0,
        peer="B",
        receive=lambda packet, _port: delivered.append(packet),
        on_sent=(sent.append if sent is not None else None),
    )


def pkt(size=1000, tag=1):
    return Packet(flow_id=1, src="H1", dst="H2", size=size, tag=tag)


class TestTransmission:
    def test_delivery_after_tx_and_prop(self):
        sim = Simulator()
        delivered, sent = [], []
        port = make_port(sim, delivered, sent)
        packet = pkt(size=1000)
        port.enqueue(packet, 1)
        sim.run()
        assert delivered == [packet]
        assert sent == [packet]
        # 1000 B at 1 Gb/s = 8 us, plus 1 us propagation.
        assert abs(sim.now - 9e-6) < 1e-12

    def test_serialization_one_at_a_time(self):
        sim = Simulator()
        delivered = []
        port = make_port(sim, delivered)
        for _ in range(3):
            port.enqueue(pkt(size=1000), 1)
        sim.run(until=8.5e-6)
        assert port.packets_sent == 1
        sim.run()
        assert len(delivered) == 3

    def test_counters(self):
        sim = Simulator()
        delivered = []
        port = make_port(sim, delivered)
        port.enqueue(pkt(size=500), 1)
        port.enqueue(pkt(size=700), 1)
        sim.run()
        assert port.bytes_sent == 1200
        assert port.packets_sent == 2
        assert port.bytes_queued() == 0


class TestPause:
    def test_paused_queue_does_not_send(self):
        sim = Simulator()
        delivered = []
        port = make_port(sim, delivered)
        port.on_pause(1)
        port.enqueue(pkt(), 1)
        sim.run()
        assert delivered == []
        assert port.blocked_queues() == [1]

    def test_resume_restarts(self):
        sim = Simulator()
        delivered = []
        port = make_port(sim, delivered)
        port.on_pause(1)
        port.enqueue(pkt(), 1)
        sim.run()
        port.on_resume(1)
        sim.run()
        assert len(delivered) == 1

    def test_other_priorities_keep_flowing(self):
        sim = Simulator()
        delivered = []
        port = make_port(sim, delivered)
        port.on_pause(1)
        blocked = pkt(tag=1)
        free = pkt(tag=2)
        port.enqueue(blocked, 1)
        port.enqueue(free, 2)
        sim.run()
        assert delivered == [free]

    def test_lossy_queue_cannot_be_paused(self):
        sim = Simulator()
        delivered = []
        port = make_port(sim, delivered)
        port.on_pause(0)  # ignored: queue 0 is lossy
        port.enqueue(pkt(tag=0), 0)
        sim.run()
        assert len(delivered) == 1

    def test_in_flight_packet_finishes_despite_pause(self):
        sim = Simulator()
        delivered = []
        port = make_port(sim, delivered)
        port.enqueue(pkt(size=1000), 1)
        sim.run(until=1e-6)   # mid-serialization
        port.on_pause(1)
        sim.run()
        assert len(delivered) == 1


class TestScheduling:
    def test_round_robin_among_queues(self):
        sim = Simulator()
        delivered = []
        port = make_port(sim, delivered)
        a1, a2 = pkt(tag=1), pkt(tag=1)
        b1, b2 = pkt(tag=2), pkt(tag=2)
        for packet, queue in ((a1, 1), (a2, 1), (b1, 2), (b2, 2)):
            port.enqueue(packet, queue)
        sim.run()
        order = [p.egress_queue for p in delivered]
        assert order == [1, 2, 1, 2]

    def test_held_packets_visible(self):
        sim = Simulator()
        port = make_port(sim, [])
        port.on_pause(1)
        packet = pkt()
        port.enqueue(packet, 1)
        assert port.held_packets(1) == [packet]
        assert port.depth(1) == 1


class TestFastTxPort:
    def test_refuses_any_simulator_but_the_stock_wheel(self):
        """The port inlines the wheel push, so a look-alike engine is refused."""

        class Subclassed(Simulator):
            pass

        config = SimConfig()
        for sim in (ReferenceSimulator(), Subclassed()):
            with pytest.raises(SimulationError, match="stock Simulator"):
                TxPort(sim, config, "A", 0, "B", receive=lambda p, port: None)

    def test_unbound_port_delivers_through_the_constructor_callback(self):
        """The constructor's ``receive`` gets each packet with ``recv_port``."""
        sim = Simulator()
        delivered = []
        config = SimConfig(bandwidth_bps=1e9, prop_delay=1e-6)
        port = TxPort(
            sim, config, "A", 0, "B",
            receive=lambda packet, in_port: delivered.append((packet, in_port)),
            recv_port=3,
        )
        packets = [pkt(size=1000), pkt(size=1000)]
        for packet in packets:
            port.enqueue(packet, 1)
        sim.run()
        assert delivered == [(packet, 3) for packet in packets]
        assert abs(sim.now - 17e-6) < 1e-12
