"""Unit tests for the core topology model."""

import pytest

from repro.exceptions import TopologyError
from repro.topology import Topology


@pytest.fixture
def two_switches():
    topo = Topology()
    topo.add_switch("A", layer=0)
    topo.add_switch("B", layer=1)
    topo.add_link("A", "B")
    return topo


class TestNodes:
    def test_add_switch_and_host(self):
        topo = Topology()
        sw = topo.add_switch("S", layer=2)
        host = topo.add_host("H")
        assert sw.is_switch and not sw.is_host
        assert host.is_host and host.layer == -1
        assert topo.switches == ["S"]
        assert topo.hosts == ["H"]

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_switch("A")
        with pytest.raises(TopologyError, match="duplicate"):
            topo.add_switch("A")
        with pytest.raises(TopologyError, match="duplicate"):
            topo.add_host("A")

    def test_unknown_kind_rejected(self):
        topo = Topology()
        with pytest.raises(TopologyError, match="kind"):
            topo.add_node("X", "router")

    def test_unknown_node_lookup(self):
        topo = Topology()
        with pytest.raises(TopologyError, match="unknown"):
            topo.node("nope")


class TestLinks:
    def test_ports_auto_assigned_densely(self):
        topo = Topology()
        for name in ("A", "B", "C"):
            topo.add_switch(name)
        link_ab = topo.add_link("A", "B")
        link_ac = topo.add_link("A", "C")
        assert link_ab.port_a == 0
        assert link_ac.port_a == 1
        assert topo.peer_on_port("A", 0) == "B"
        assert topo.peer_on_port("A", 1) == "C"
        assert topo.port_to("B", "A") == 0

    def test_explicit_ports(self):
        topo = Topology()
        topo.add_switch("A")
        topo.add_switch("B")
        link = topo.add_link("A", "B", port_a=5, port_b=7)
        assert link.port_on("A") == 5
        assert link.port_on("B") == 7
        assert link.other("A") == "B"

    def test_port_collision_rejected(self):
        topo = Topology()
        for name in ("A", "B", "C"):
            topo.add_switch(name)
        topo.add_link("A", "B", port_a=0)
        with pytest.raises(TopologyError, match="already in use"):
            topo.add_link("A", "C", port_a=0)

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_switch("A")
        with pytest.raises(TopologyError, match="self-loop"):
            topo.add_link("A", "A")

    def test_duplicate_link_rejected(self, two_switches):
        with pytest.raises(TopologyError, match="duplicate link"):
            two_switches.add_link("B", "A")

    def test_link_lookup_symmetric(self, two_switches):
        assert two_switches.link("A", "B") == two_switches.link("B", "A")
        assert two_switches.has_link("B", "A")
        assert not two_switches.has_link("A", "Z")


class TestFailures:
    def test_fail_and_restore(self, two_switches):
        topo = two_switches
        assert topo.neighbors("A") == ["B"]
        topo.fail_link("A", "B")
        assert topo.is_failed("B", "A")
        assert topo.neighbors("A") == []
        assert topo.neighbors("A", include_failed=True) == ["B"]
        topo.restore_link("B", "A")
        assert topo.neighbors("A") == ["B"]

    def test_fail_unknown_link(self, two_switches):
        with pytest.raises(TopologyError, match="no link"):
            two_switches.fail_link("A", "Z")

    def test_restore_all(self, two_switches):
        two_switches.fail_link("A", "B")
        two_switches.restore_all()
        assert not two_switches.failed_links

    def test_degree_counts(self, two_switches):
        two_switches.fail_link("A", "B")
        assert two_switches.degree("A") == 1
        assert two_switches.degree("A", include_failed=False) == 0


class TestQueries:
    def test_host_tor(self):
        topo = Topology()
        topo.add_switch("T")
        topo.add_host("H")
        topo.add_link("H", "T")
        assert topo.host_tor("H") == "T"
        assert topo.hosts_under("T") == ["H"]

    def test_host_tor_rejects_switch(self, two_switches):
        with pytest.raises(TopologyError, match="not a host"):
            two_switches.host_tor("A")

    def test_layers(self, two_switches):
        assert two_switches.layer_of("A") == 0
        assert two_switches.switches_at_layer(1) == ["B"]

    def test_to_networkx_excludes_failed(self, two_switches):
        two_switches.fail_link("A", "B")
        graph = two_switches.to_networkx()
        assert graph.number_of_edges() == 0

    def test_validate_passes(self, two_switches):
        two_switches.validate()

    def test_iter_links_deterministic(self):
        topo = Topology()
        for name in ("C", "A", "B"):
            topo.add_switch(name)
        topo.add_link("C", "A")
        topo.add_link("B", "C")
        keys = [link.key for link in topo.iter_links()]
        assert keys == sorted(keys)
