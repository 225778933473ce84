"""Tests for the Clos, fat-tree, BCube and Jellyfish builders."""

import pytest

import networkx as nx

from repro.exceptions import TopologyError
from repro.topology import (
    ClosParams,
    bcube,
    bcube_default_route,
    bcube_servers,
    clos3,
    fattree,
    jellyfish,
    leaf_spine,
    pod_of,
    testbed_clos,
    upward_neighbors,
)


class TestClos:
    def test_testbed_shape(self):
        topo = testbed_clos()
        assert len(topo.switches) == 10  # 4 ToR + 4 leaf + 2 spine
        assert len(topo.hosts) == 16
        assert topo.switches_at_layer(0) == ["T1", "T2", "T3", "T4"]
        assert topo.switches_at_layer(1) == ["L1", "L2", "L3", "L4"]
        assert topo.switches_at_layer(2) == ["S1", "S2"]

    def test_testbed_wiring(self):
        topo = testbed_clos()
        # ToRs connect to the leaves of their own pod only.
        assert set(upward_neighbors(topo, "T1")) == {"L1", "L2"}
        assert set(upward_neighbors(topo, "T3")) == {"L3", "L4"}
        # Every leaf connects to every spine.
        for leaf in ("L1", "L2", "L3", "L4"):
            assert set(upward_neighbors(topo, leaf)) == {"S1", "S2"}
        # Spines reach all leaves.
        assert set(topo.neighbors("S1")) == {"L1", "L2", "L3", "L4"}

    def test_hosts_per_tor(self):
        topo = testbed_clos()
        assert topo.hosts_under("T1") == ["H1", "H2", "H3", "H4"]
        assert topo.hosts_under("T4") == ["H13", "H14", "H15", "H16"]

    def test_pod_of(self):
        params = ClosParams()
        topo = clos3(params)
        assert pod_of(topo, "T1", params) == 0
        assert pod_of(topo, "T3", params) == 1
        assert pod_of(topo, "L2", params) == 0
        assert pod_of(topo, "L4", params) == 1
        with pytest.raises(TopologyError):
            pod_of(topo, "S1", params)

    def test_connected(self):
        topo = clos3(ClosParams(num_pods=3, tors_per_pod=3, leaves_per_pod=2))
        assert nx.is_connected(topo.to_networkx())

    def test_bad_params(self):
        with pytest.raises(TopologyError):
            clos3(ClosParams(num_pods=0))
        with pytest.raises(TopologyError):
            clos3(ClosParams(hosts_per_tor=-1))

    def test_leaf_spine(self):
        topo = leaf_spine(4, 2, hosts_per_leaf=1)
        assert len(topo.switches) == 6
        assert len(topo.hosts) == 4
        assert set(upward_neighbors(topo, "T1")) == {"S1", "S2"}


class TestFatTree:
    def test_k4_shape(self):
        topo = fattree(4)
        # 4 core + 4 pods x (2 agg + 2 edge) = 20 switches
        assert len(topo.switches) == 20
        assert len(topo.hosts) == 16  # 8 edges x 2

    def test_core_group_wiring(self):
        topo = fattree(4)
        # Aggregation switch j connects only to core group j.
        assert set(upward_neighbors(topo, "A0_0")) == {"C1", "C2"}
        assert set(upward_neighbors(topo, "A0_1")) == {"C3", "C4"}

    def test_odd_k_rejected(self):
        with pytest.raises(TopologyError):
            fattree(3)

    def test_connected(self):
        assert nx.is_connected(fattree(6).to_networkx())


class TestBCube:
    def test_counts(self):
        topo = bcube(4, 1)
        servers = bcube_servers(topo)
        assert len(servers) == 16  # n^(k+1)
        # (k+1) * n^k = 2 * 4 = 8 switches (plus the 16 server-relays).
        assert len(topo.switches) == 16 + 8

    def test_server_degree(self):
        topo = bcube(4, 1)
        for server in bcube_servers(topo):
            assert topo.degree(server) == 2  # k + 1 ports

    def test_default_route_corrects_digits(self):
        topo = bcube(4, 1)
        path = bcube_default_route(topo, 4, 1, "V00", "V33")
        assert path[0] == "V00" and path[-1] == "V33"
        assert len(path) == 5  # two digit corrections, 2 hops each
        # Same-row route needs a single correction.
        short = bcube_default_route(topo, 4, 1, "V00", "V03")
        assert len(short) == 3

    def test_default_route_identity(self):
        topo = bcube(2, 1)
        assert bcube_default_route(topo, 2, 1, "V00", "V00") == ["V00"]

    def test_bad_params(self):
        with pytest.raises(TopologyError):
            bcube(1, 1)
        with pytest.raises(TopologyError):
            bcube(4, -1)


class TestJellyfish:
    def test_shape_and_regularity(self):
        topo = jellyfish(20, 8, hosts_per_switch=0, seed=3)
        assert len(topo.switches) == 20
        for switch in topo.switches:
            assert topo.degree(switch) == 4  # half of 8 ports

    def test_hosts_attached(self):
        topo = jellyfish(10, 6, seed=1)
        # 3 network ports, 3 hosts per switch.
        assert len(topo.hosts) == 30

    def test_connected_and_seeded(self):
        a = jellyfish(30, 8, hosts_per_switch=0, seed=7)
        b = jellyfish(30, 8, hosts_per_switch=0, seed=7)
        assert nx.is_connected(a.to_networkx())
        assert sorted(link.key for link in a.iter_links()) == sorted(
            link.key for link in b.iter_links()
        )

    def test_parity_rejected(self):
        with pytest.raises(TopologyError):
            jellyfish(5, 6, network_ports=3)  # 5*3 odd

    def test_degree_bound_rejected(self):
        with pytest.raises(TopologyError):
            jellyfish(4, 12, network_ports=6)
