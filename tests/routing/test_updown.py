"""Tests for up-down (valley-free) routing."""

import pytest

from repro.exceptions import RoutingError
from repro.routing import (
    all_updown_paths,
    count_bounces,
    is_up_down,
    updown_paths,
    updown_tables_paths,
    validate_path,
)


class TestUpdownPaths:
    def test_intra_pod_pair(self, testbed):
        paths = updown_paths(testbed, "T1", "T2")
        assert sorted(paths) == [("T1", "L1", "T2"), ("T1", "L2", "T2")]

    def test_inter_pod_pair_counts(self, testbed):
        paths = updown_paths(testbed, "T1", "T3")
        # 2 leaves up x 2 spines x 2 leaves down = 8 shortest paths.
        assert len(paths) == 8
        for path in paths:
            assert is_up_down(testbed, path)
            assert len(path) == 5
            validate_path(testbed, path)

    def test_paths_are_valley_free(self, testbed):
        for path in all_updown_paths(testbed):
            assert count_bounces(testbed, path) == 0

    def test_all_pairs_count(self, testbed):
        paths = all_updown_paths(testbed)
        # 4 intra-pod ordered pairs x 2 + 8 inter-pod ordered pairs x 8.
        assert len(paths) == 4 * 2 + 8 * 8

    def test_trivial_pair(self, testbed):
        assert updown_paths(testbed, "T1", "T1") == [("T1",)]

    def test_respects_failures(self, testbed):
        testbed.fail_link("T1", "L1")
        paths = updown_paths(testbed, "T1", "T2")
        assert paths == [("T1", "L2", "T2")]

    def test_unreachable_raises(self, testbed):
        testbed.fail_link("T1", "L1")
        testbed.fail_link("T1", "L2")
        with pytest.raises(RoutingError, match="no up-down path"):
            updown_paths(testbed, "T1", "T3")

    def test_unlayered_endpoint_rejected(self, testbed):
        with pytest.raises(RoutingError):
            updown_paths(testbed, "H1", "T1")


class TestHostLevelElp:
    def test_host_paths_have_host_endpoints(self, testbed):
        paths = updown_tables_paths(testbed)
        assert paths, "expected host-to-host paths"
        for path in paths:
            assert testbed.node(path[0]).is_host
            assert testbed.node(path[-1]).is_host

    def test_same_tor_pairs_use_tor_only(self, testbed):
        paths = updown_tables_paths(testbed)
        same_tor = [p for p in paths if p[0] == "H1" and p[-1] == "H2"]
        assert same_tor == [("H1", "T1", "H2")]
