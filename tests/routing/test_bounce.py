"""Tests for k-bounce path enumeration."""

import pytest

from repro.exceptions import RoutingError
from repro.routing import (
    all_bounce_paths,
    bounce_paths,
    classify_by_bounces,
    count_bounces,
    validate_path,
)


class TestBouncePaths:
    def test_zero_bounce_equals_updown(self, testbed):
        from repro.routing import updown_paths

        zero = bounce_paths(testbed, "T1", "T3", max_bounces=0)
        updown = updown_paths(testbed, "T1", "T3")
        assert set(updown) <= set(zero)
        for path in zero:
            assert count_bounces(testbed, path) == 0

    def test_bounce_budget_respected(self, testbed):
        for k in (0, 1, 2):
            for path in bounce_paths(testbed, "T1", "T3", max_bounces=k):
                assert count_bounces(testbed, path) <= k
                assert len(set(path)) == len(path)
                validate_path(testbed, path)

    def test_budget_grows_path_set(self, testbed):
        zero = set(bounce_paths(testbed, "T1", "T3", max_bounces=0))
        one = set(bounce_paths(testbed, "T1", "T3", max_bounces=1))
        assert zero < one
        assert any(count_bounces(testbed, p) == 1 for p in one)

    def test_fig3_paths_enumerated(self, testbed, bounce_paths_fixture=None):
        # The paper's two bounce paths appear in the 1-bounce enumeration.
        green_core = ("T3", "L3", "S2", "L1", "S1", "L2", "T1")
        blue_core = ("T1", "L1", "S1", "L3", "S2", "L4", "T4")
        one_g = bounce_paths(testbed, "T3", "T1", max_bounces=1)
        one_b = bounce_paths(testbed, "T1", "T4", max_bounces=1)
        assert green_core in one_g
        assert blue_core in one_b

    def test_max_paths_cap(self, testbed):
        capped = bounce_paths(testbed, "T1", "T3", max_bounces=1, max_paths=5)
        assert len(capped) == 5

    def test_max_len_cap(self, testbed):
        short = bounce_paths(testbed, "T1", "T3", max_bounces=1, max_len=5)
        assert all(len(p) <= 5 for p in short)

    def test_negative_budget_rejected(self, testbed):
        with pytest.raises(RoutingError):
            bounce_paths(testbed, "T1", "T3", max_bounces=-1)

    def test_unlayered_rejected(self):
        from repro.topology import jellyfish

        topo = jellyfish(8, 4, hosts_per_switch=0, seed=1)
        switches = sorted(topo.switches)
        with pytest.raises(RoutingError, match="no layer"):
            bounce_paths(topo, switches[0], switches[1], max_bounces=1)

    def test_deterministic(self, testbed):
        a = bounce_paths(testbed, "T1", "T4", max_bounces=1)
        b = bounce_paths(testbed, "T1", "T4", max_bounces=1)
        assert a == b


class TestAllBouncePaths:
    def test_covers_all_tor_pairs(self, testbed):
        paths = all_bounce_paths(testbed, max_bounces=0)
        endpoints = {(p[0], p[-1]) for p in paths}
        assert len(endpoints) == 12

    def test_classify(self, testbed):
        paths = all_bounce_paths(testbed, max_bounces=1, endpoints=["T1", "T3"])
        buckets = classify_by_bounces(testbed, paths)
        assert set(buckets) == {0, 1}
        assert all(count_bounces(testbed, p) == 1 for p in buckets[1])
