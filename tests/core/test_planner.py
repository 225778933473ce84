"""Tests for the high-level TaggerPlan API."""

import pytest

from repro.core import (
    QueueMap,
    TaggerPlan,
    TrafficClass,
    UpDownElpProvider,
    bruteforce_tagging,
    clos_bounce_elp,
    clos_updown_elp,
    coverage_report,
    rules_from_tagged_graph,
)
from repro.exceptions import CapacityError, TaggingError
from repro.routing import all_bounce_paths
from repro.topology import ClosParams, clos3


class TestForClos:
    def test_k_plus_one_queues(self, testbed):
        for k in (0, 1, 2):
            plan = TaggerPlan.for_clos(testbed, max_bounces=k)
            assert plan.num_lossless_queues == k + 1
            assert plan.verify().deadlock_free

    def test_covers_bounce_elp(self, testbed):
        plan = TaggerPlan.for_clos(testbed, max_bounces=1)
        assert plan.coverage(clos_bounce_elp(testbed, 1)) == 1.0

    def test_demotes_over_budget(self, testbed):
        plan = TaggerPlan.for_clos(testbed, max_bounces=0)
        one_bounce = [
            p
            for p in all_bounce_paths(testbed, 1, endpoints=["T1", "T3"])
            if p not in set(all_bounce_paths(testbed, 0, endpoints=["T1", "T3"]))
        ]
        assert plan.coverage(one_bounce) == 0.0

    def test_pipeline_config(self, testbed):
        plan = TaggerPlan.for_clos(testbed, max_bounces=1)
        config = plan.pipeline_config("L1")
        assert config.decouple_egress
        in_port = testbed.port_to("L1", "S2")
        out_port = testbed.port_to("L1", "S1")
        assert config.rewrite(1, in_port, out_port) == 2

    def test_pipeline_config_for_unknown_switch_is_default_deny(self, testbed):
        plan = TaggerPlan.for_clos(testbed, max_bounces=1)
        config = plan.pipeline_config("nonexistent")
        from repro.core import LOSSY_TAG

        assert config.rewrite(1, 0, 1) == LOSSY_TAG

    def test_summary_mentions_queues(self, testbed):
        plan = TaggerPlan.for_clos(testbed, max_bounces=1)
        assert "2 lossless queue(s)" in plan.summary()


class TestFromElp:
    def test_modes(self, testbed):
        """The one product merge is rule-realizable: 3 queues, full
        coverage. (Algorithm 2's conflicts are pinned by
        ``test_determinize.py::TestPaperGreedyConflicts``.)"""
        elp = clos_bounce_elp(testbed, 1)
        plan = TaggerPlan.from_elp(testbed, elp)
        assert plan.num_lossless_queues == 3
        assert plan.coverage(elp) == 1.0

    def test_capacity_error_when_tags_exceed_queues(self, testbed):
        elp = clos_bounce_elp(testbed, 1)
        with pytest.raises(CapacityError):
            TaggerPlan.from_elp(testbed, elp, max_lossless_queues=2)

    def test_verify_report(self, testbed):
        plan = TaggerPlan.from_elp(testbed, clos_updown_elp(testbed))
        report = plan.verify()
        assert report.deadlock_free and report.num_tags == 1

    def test_coverage_empty_paths_rejected(self, testbed):
        plan = TaggerPlan.from_elp(testbed, clos_updown_elp(testbed))
        with pytest.raises(TaggingError):
            plan.coverage([])


class TestFitToQueues:
    def test_plan_level_fusion(self, testbed):
        # A product plan is already merged (fusion is the identity or
        # refuses), so fuse the unminimized Algorithm-1 tags directly.
        elp = clos_updown_elp(testbed)
        graph = bruteforce_tagging(testbed, elp)
        plan = TaggerPlan(
            topo=testbed,
            graph=graph,
            tables=rules_from_tagged_graph(testbed, graph).tables,
            queue_map=QueueMap.identity(graph.max_tag, 8),
        )
        assert plan.num_lossless_queues == 4
        fused = plan.fit_to_queues(2)
        assert fused.num_lossless_queues == 2
        assert fused.verify().deadlock_free
        assert fused.coverage(elp) == 1.0

    def test_fusion_refuses_impossible_budget(self, testbed):
        from repro.core import clos_bounce_elp

        plan = TaggerPlan.from_elp(testbed, clos_bounce_elp(testbed, 1))
        with pytest.raises(CapacityError):
            plan.fit_to_queues(2)  # the Fig. 6 structural gap


class TestMulticlassPlan:
    def test_m_plus_n_queues(self, testbed):
        plan = TaggerPlan.for_multiclass_clos(
            testbed, [TrafficClass("data", 1), TrafficClass("cnp", 1)]
        )
        assert plan.num_lossless_queues == 3
        assert plan.verify().deadlock_free

    def test_per_class_coverage(self, testbed):
        plan = TaggerPlan.for_multiclass_clos(
            testbed, [TrafficClass("data", 1), TrafficClass("cnp", 1)]
        )
        elp = clos_bounce_elp(testbed, 1)
        assert plan.coverage(elp, initial_tag=1) == 1.0
        assert plan.coverage(elp, initial_tag=2) == 1.0

    def test_host_to_host_paths_stay_lossless_per_class(self, testbed):
        """A class's packets enter at its host's ToR carrying the class's
        initial tag; the ToR's host-ingress rules must keep every hop
        lossless (ToR-to-ToR paths never consult those rules)."""
        classes = [TrafficClass("data", 1), TrafficClass("cnp", 1)]
        plan = TaggerPlan.for_multiclass_clos(testbed, classes)
        host = {
            tor: testbed.hosts_under(tor)[0]
            for tor in testbed.switches
            if testbed.hosts_under(tor)
        }
        paths = [
            (host[path[0]], *path, host[path[-1]])
            for path in clos_bounce_elp(testbed, 1)
        ]
        for initial_tag, cls in enumerate(classes, start=1):
            lossless, total, demoted = coverage_report(
                testbed, plan.tables, paths, initial_tag=initial_tag
            )
            assert total == len(paths)
            assert lossless == total, (cls.name, demoted[:3])


class TestHostTraffic:
    """Host paths on a hosted 16-ToR Clos: one shortest up-down path per
    ordered ToR pair, with each ToR's host at either end (240 paths),
    replayed from the host port through :func:`coverage_report`."""

    @pytest.fixture(scope="class")
    def fabric(self):
        topo = clos3(ClosParams(4, 4, 2, 2, hosts_per_tor=1))
        provider = UpDownElpProvider()
        paths = []
        for src, dst in provider.ordered_pairs(topo):
            path = provider.pair_paths(topo, src, dst)[0]
            paths.append((topo.hosts_under(src)[0], *path, topo.hosts_under(dst)[0]))
        assert len(paths) == 240
        return topo, paths

    def test_for_clos_carries_every_host_path(self, fabric):
        topo, paths = fabric
        lossless, total, demoted = coverage_report(
            topo, TaggerPlan.for_clos(topo, 1).tables, paths
        )
        assert (lossless, total) == (240, 240), demoted[:1]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1b: no host-ingress rules",
    )
    def test_from_provider_carries_every_host_path(self, fabric):
        """Today 0 of 240 stay lossless: the first demotion is
        ``H1 T1 L1 S1 L5 T10 H10`` at hop 1, the ToR's host ingress."""
        topo, paths = fabric
        lossless, total, demoted = coverage_report(
            topo, TaggerPlan.from_provider(topo, UpDownElpProvider()).tables, paths
        )
        assert (lossless, total) == (240, 240), demoted[:1]
