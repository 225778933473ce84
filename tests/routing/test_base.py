"""Tests for path utilities and forwarding tables."""

import pytest

from repro.exceptions import RoutingError
from repro.routing import (
    ForwardingTable,
    count_bounces,
    hops,
    is_loop_free,
    validate_path,
)


class TestPathUtilities:
    def test_hops(self):
        assert list(hops(("A", "B", "C"))) == [("A", "B"), ("B", "C")]
        assert list(hops(("A",))) == []

    def test_validate_path_accepts_real_path(self, testbed):
        path = validate_path(testbed, ["H1", "T1", "L1", "S1"])
        assert path == ("H1", "T1", "L1", "S1")

    def test_validate_path_rejects_gaps(self, testbed):
        with pytest.raises(RoutingError, match="non-existent link"):
            validate_path(testbed, ["T1", "S1"])  # ToR not wired to spine

    def test_validate_path_rejects_unknown_node(self, testbed):
        with pytest.raises(RoutingError, match="unknown node"):
            validate_path(testbed, ["T1", "Lx"])

    def test_validate_path_respects_failures(self, testbed):
        testbed.fail_link("T1", "L1")
        with pytest.raises(RoutingError, match="failed link"):
            validate_path(testbed, ["T1", "L1"])
        assert validate_path(testbed, ["T1", "L1"], allow_failed=True)

    def test_validate_empty_path(self, testbed):
        with pytest.raises(RoutingError, match="empty"):
            validate_path(testbed, [])

    def test_loop_free(self):
        assert is_loop_free(("A", "B", "C"))
        assert not is_loop_free(("A", "B", "A"))


class TestBounceCounting:
    def test_updown_path_has_zero_bounces(self, testbed):
        assert count_bounces(testbed, ("T1", "L1", "S1", "L3", "T3")) == 0
        assert count_bounces(testbed, ("T1", "L1", "T2")) == 0

    def test_one_bounce(self, testbed, bounce_paths):
        green, blue = bounce_paths
        assert count_bounces(testbed, green) == 1
        assert count_bounces(testbed, blue) == 1

    def test_host_endpoints_do_not_bounce(self, testbed):
        # host -> ToR -> leaf -> ToR -> host is a plain up-down trip.
        assert count_bounces(testbed, ("H1", "T1", "L1", "T2", "H5")) == 0

    def test_ping_pong_bounce_count(self, testbed):
        # T1->L1 up, L1->T2 down, T2->L2 up (bounce), L2->T1 down.
        assert count_bounces(testbed, ("T1", "L1", "T2", "L2", "T1")) == 1
        # Two full descents and re-ascents = two bounces.
        assert (
            count_bounces(testbed, ("T1", "L1", "T2", "L2", "T1", "L1"))
            == 2
        )

    def test_unlayered_rejected(self):
        from repro.topology import jellyfish

        topo = jellyfish(10, 4, hosts_per_switch=0, seed=1)
        some = list(topo.switches)[:2]
        with pytest.raises(RoutingError, match="no layer"):
            count_bounces(topo, some)


class TestForwardingTable:
    def test_set_and_lookup(self):
        table = ForwardingTable()
        table.set_next_hops("A", "H", ["B", "C"])
        assert table.next_hops("A", "H") == ["B", "C"]
        # ECMP selection is deterministic per (switch, hash) and covers
        # both members across a small hash range.
        picks = {table.next_hop("A", "H", flow_hash=h) for h in range(8)}
        assert picks == {"B", "C"}
        assert table.next_hop("A", "H", 0) == table.next_hop("A", "H", 0)

    def test_missing_route_raises(self):
        table = ForwardingTable()
        with pytest.raises(RoutingError, match="no route"):
            table.next_hop("A", "H")
        assert not table.has_route("A", "H")

    def test_empty_next_hops_rejected(self):
        table = ForwardingTable()
        with pytest.raises(RoutingError, match="empty"):
            table.set_next_hops("A", "H", [])

    def test_add_next_hop_dedupes(self):
        table = ForwardingTable()
        table.add_next_hop("A", "H", "B")
        table.add_next_hop("A", "H", "B")
        assert table.next_hops("A", "H") == ["B"]

    def test_trace_completes(self, testbed):
        table = ForwardingTable()
        table.set_next_hops("T1", "H9", ["L1"])
        table.set_next_hops("L1", "H9", ["S1"])
        table.set_next_hops("S1", "H9", ["L3"])
        table.set_next_hops("L3", "H9", ["T3"])
        table.set_next_hops("T3", "H9", ["H9"])
        path, done = table.trace("T1", "H9")
        assert done and path == ("T1", "L1", "S1", "L3", "T3", "H9")

    def test_trace_detects_loop(self):
        table = ForwardingTable()
        table.set_next_hops("A", "H", ["B"])
        table.set_next_hops("B", "H", ["A"])
        path, done = table.trace("A", "H", max_hops=10)
        assert not done
        assert len(path) == 11

    def test_from_paths(self, testbed):
        table = ForwardingTable.from_paths(
            testbed,
            [("H1", "T1", "L1", "S1", "L3", "T3", "H9")],
        )
        assert table.next_hops("T1", "H9") == ["L1"]
        assert table.next_hops("T3", "H9") == ["H9"]
        # Host nodes never get entries.
        assert "H1" not in table.entries

    def test_from_paths_merges_ecmp(self, testbed):
        table = ForwardingTable.from_paths(
            testbed,
            [
                ("T1", "L1", "S1", "L3", "T3"),
                ("T1", "L2", "S1", "L3", "T3"),
            ],
        )
        assert table.next_hops("T1", "T3") == ["L1", "L2"]

    def test_remove_route(self):
        table = ForwardingTable()
        table.set_next_hops("A", "H", ["B"])
        table.remove_route("A", "H")
        assert not table.has_route("A", "H")
        table.remove_route("A", "H")  # idempotent
