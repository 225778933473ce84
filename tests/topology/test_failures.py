"""Tests for the failure sampler and topology deltas."""

import pytest

from repro.exceptions import TopologyError
from repro.topology import RandomLinkFailures, testbed_clos
from repro.topology.failures import (
    TopologyDelta,
    apply_delta,
    random_delta_sequence,
    switch_links,
)


class TestRandomLinkFailures:
    def test_candidates_exclude_host_links(self, testbed):
        sampler = RandomLinkFailures(testbed, prob=0.5, seed=1)
        for a, b in sampler.candidates:
            assert testbed.node(a).is_switch and testbed.node(b).is_switch

    def test_prob_zero_and_one(self, testbed):
        assert RandomLinkFailures(testbed, 0.0, seed=1).sample() == set()
        everything = RandomLinkFailures(testbed, 1.0, seed=1).sample()
        assert len(everything) == 16  # 8 ToR-leaf + 8 leaf-spine links

    def test_apply_sample_clears_previous(self, testbed):
        sampler = RandomLinkFailures(testbed, prob=1.0, seed=1)
        sampler.apply_sample()
        assert len(testbed.failed_links) == 16
        zero = RandomLinkFailures(testbed, prob=0.0, seed=1)
        zero.apply_sample()
        assert not testbed.failed_links

    def test_fail_exactly(self, testbed):
        sampler = RandomLinkFailures(testbed, prob=0.0, seed=42)
        failed = sampler.fail_exactly(3)
        assert len(failed) == 3
        assert testbed.failed_links == failed
        with pytest.raises(TopologyError):
            sampler.fail_exactly(1000)

    def test_bad_probability(self, testbed):
        with pytest.raises(TopologyError):
            RandomLinkFailures(testbed, prob=1.5)

    def test_seeded_reproducibility(self, testbed):
        a = RandomLinkFailures(testbed, 0.3, seed=9).sample()
        b = RandomLinkFailures(testbed, 0.3, seed=9).sample()
        assert a == b


class TestDeltaEdgeCases:
    def test_drain_already_drained_switch_is_idempotent(self, testbed):
        first = apply_delta(testbed, TopologyDelta.drain("L1"))
        before = set(testbed.failed_links)
        second = apply_delta(testbed, TopologyDelta.drain("L1"))
        # The full footprint is reported both times (callers key dirty
        # sets off it) but the topology state does not change again.
        assert second == first
        assert set(testbed.failed_links) == before
        testbed.restore_all()

    def test_restore_never_failed_link_is_a_noop(self, testbed):
        assert testbed.failed_links == set()
        touched = apply_delta(testbed, TopologyDelta.link_up("L1", "S1"))
        assert touched == [("L1", "S1")]
        assert testbed.failed_links == set()

    def test_undrain_never_drained_switch_is_a_noop(self, testbed):
        assert testbed.failed_links == set()
        touched = apply_delta(testbed, TopologyDelta.undrain("L1"))
        assert len(touched) == len(switch_links(testbed, "L1"))
        assert testbed.failed_links == set()

    def test_empty_random_delta_sequence(self, testbed):
        assert random_delta_sequence(testbed, length=0, seed=1) == []

    def test_random_delta_sequence_is_seeded(self, testbed):
        a = random_delta_sequence(testbed, length=12, seed=3)
        b = random_delta_sequence(testbed, length=12, seed=3)
        assert [d.describe() for d in a] == [d.describe() for d in b]
        assert len(a) == 12
