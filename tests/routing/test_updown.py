"""Tests for up-down (valley-free) routing."""

import pytest

from repro.core import UpDownElpProvider
from repro.exceptions import RoutingError
from repro.routing import count_bounces, updown_paths, validate_path


class TestUpdownPaths:
    def test_intra_pod_pair(self, testbed):
        paths = updown_paths(testbed, "T1", "T2")
        assert sorted(paths) == [("T1", "L1", "T2"), ("T1", "L2", "T2")]

    def test_inter_pod_pair_counts(self, testbed):
        paths = updown_paths(testbed, "T1", "T3")
        # 2 leaves up x 2 spines x 2 leaves down = 8 shortest paths.
        assert len(paths) == 8
        for path in paths:
            assert count_bounces(testbed, path) == 0
            assert len(path) == 5
            validate_path(testbed, path)

    def test_paths_are_valley_free(self, testbed):
        for path in UpDownElpProvider().build(testbed).paths:
            assert count_bounces(testbed, path) == 0

    def test_all_pairs_count(self, testbed):
        paths = UpDownElpProvider().build(testbed).paths
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

