"""Tests for transient local rerouting (the bounce generator)."""

import pytest

from repro.exceptions import RoutingError
from repro.routing import (
    apply_local_reroute,
    count_bounces,
    shortest_path_tables,
)


class TestLocalReroute:
    def test_requires_failed_link(self, testbed):
        table = shortest_path_tables(testbed)
        with pytest.raises(RoutingError, match="must be failed"):
            apply_local_reroute(testbed, table, ("L1", "T1"))

    def test_ecmp_member_removed_quietly(self, testbed):
        table = shortest_path_tables(testbed)
        # L1 reaches pod-2 hosts via both spines; failing one leaves ECMP.
        assert set(table.next_hops("L1", "H9")) == {"S1", "S2"}
        testbed.fail_link("L1", "S1")
        edits = apply_local_reroute(testbed, table, ("L1", "S1"))
        assert table.next_hops("L1", "H9") == ["S2"]
        # No detour entries needed: ECMP absorbed the failure.
        assert all(switch != "L1" or dst != "H9" for switch, dst, _ in edits)

    def test_detour_creates_bounce(self, testbed):
        """The Fig. 3 mechanism: losing the last downlink forces a bounce."""
        table = shortest_path_tables(testbed)
        assert table.next_hops("L1", "H1") == ["T1"]
        testbed.fail_link("L1", "T1")
        edits = apply_local_reroute(testbed, table, ("L1", "T1"))
        assert ("L1", "H1", "S1") in edits or ("L1", "H1", "S2") in edits
        # Flows that enter L1 now go back UP. The detour points at S1, so
        # a packet arriving from S2 escapes via S1 -> L2 when S1's ECMP
        # picks L2 (per-switch hash seeds make that happen for some flows;
        # flows whose hash re-picks L1 micro-loop until reconvergence —
        # both are real transients).
        bounced = []
        for flow_hash in range(16):
            path, done = table.trace("S2", "H1", flow_hash=flow_hash)
            if done and "L1" in path:
                bounced.append(path)
        assert bounced, "no hash produced a completed bounce path"
        assert any(count_bounces(testbed, p[:-1]) == 1 for p in bounced)

    def test_unreachable_destination_raises(self, testbed):
        table = shortest_path_tables(testbed)
        # Cut H1's ToR off entirely: T1 unreachable from L1 side.
        testbed.fail_link("L1", "T1")
        testbed.fail_link("L2", "T1")
        with pytest.raises(RoutingError, match="no detour"):
            apply_local_reroute(testbed, table, ("L1", "T1"))
            apply_local_reroute(testbed, table, ("L2", "T1"))
