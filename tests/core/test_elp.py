"""Tests for ELP set construction."""

import pytest

import random

import networkx as nx

import repro.core.elp as elp_module
import repro.routing.shortest as shortest_module
from repro.core import (
    ElpSet,
    IncrementalPlanner,
    ShortestPathElpProvider,
    TaggerPlan,
    UpDownElpProvider,
    bcube_elp,
    clos_bounce_elp,
    clos_updown_elp,
    jellyfish_elp,
    shortest_path_elp,
)
from repro.exceptions import TaggingError
from repro.routing import (
    count_bounces,
    is_loop_free,
    pairwise_shortest_paths,
    validate_path,
)
from repro.topology import ClosParams, bcube, clos3, jellyfish


class TestElpSet:
    def test_add_validates(self, testbed):
        elp = ElpSet(testbed)
        elp.add(("T1", "L1", "S1"))
        assert len(elp) == 1
        with pytest.raises(Exception):
            elp.add(("T1", "S1"))  # no such link

    def test_loops_rejected(self, testbed):
        elp = ElpSet(testbed)
        with pytest.raises(TaggingError, match="loop-free"):
            elp.add(("T1", "L1", "T1"))

    def test_dedupe(self, testbed):
        elp = ElpSet(testbed)
        elp.add(("T1", "L1"))
        elp.add(("T1", "L1"))
        elp.dedupe()
        assert len(elp) == 1

    def test_longest_hops(self, testbed):
        elp = ElpSet(testbed)
        elp.add(("T1", "L1"))
        elp.add(("T1", "L1", "S1", "L3"))
        assert elp.longest_hops() == 3
        assert ElpSet(testbed).longest_hops() == 0

    def test_failed_links_allowed(self, testbed):
        """ELP membership is about intent, not current link state."""
        testbed.fail_link("T1", "L1")
        elp = ElpSet(testbed)
        elp.add(("T1", "L1", "S1"))


class TestBuilders:
    def test_clos_updown(self, testbed):
        elp = clos_updown_elp(testbed)
        assert len(elp) == 72
        assert all(count_bounces(testbed, p) == 0 for p in elp)

    def test_clos_bounce(self, testbed):
        elp = clos_bounce_elp(testbed, 1)
        counts = {count_bounces(testbed, p) for p in elp}
        assert counts == {0, 1}

    def test_shortest_path_elp(self):
        topo = jellyfish(12, 6, hosts_per_switch=0, seed=4)
        elp = shortest_path_elp(topo)
        assert len(elp) == 12 * 11
        for path in elp:
            assert is_loop_free(path)

    def test_jellyfish_extra_paths(self):
        topo = jellyfish(12, 6, hosts_per_switch=0, seed=4)
        base = jellyfish_elp(topo)
        extra = jellyfish_elp(topo, extra_random_paths=20)
        assert len(extra) >= len(base)
        assert "random" in extra.description

    def test_bcube_elp_routes(self):
        topo = bcube(3, 1)
        elp = bcube_elp(topo, 3, 1)
        assert len(elp) == 9 * 8
        for path in elp:
            validate_path(topo, path)
            assert is_loop_free(path)


def _fail_some_links(topo, seed, count):
    rng = random.Random(seed)
    links = sorted(
        (link.a, link.b)
        for link in topo.iter_links()
        if topo.node(link.a).is_switch and topo.node(link.b).is_switch
    )
    for a, b in rng.sample(links, count):
        topo.fail_link(a, b)
    return topo


def _fabrics():
    yield jellyfish(14, 6, hosts_per_switch=0, seed=5)
    yield _fail_some_links(jellyfish(16, 6, hosts_per_switch=0, seed=9), 3, 6)
    yield clos3(ClosParams(2, 2, 2, 2, hosts_per_tor=1))
    yield _fail_some_links(clos3(ClosParams(3, 2, 2, 4, hosts_per_tor=0)), 4, 5)


class TestProviderEnumeration:
    """Provider ``build`` == the batch routing form == an independent
    networkx reference, in content *and order*."""

    @pytest.mark.parametrize("per_pair", [1, 2, 3])
    def test_shortest_provider_matches_batch_form_and_reference(self, per_pair):
        for topo in _fabrics():
            names = sorted(topo.switches)
            graph = topo.to_networkx()
            reference = []
            for dst in names:
                for src in names:
                    if src != dst and nx.has_path(graph, src, dst):
                        # DFS over sorted neighbours is lexicographic order.
                        ecmp = sorted(nx.all_shortest_paths(graph, src, dst))
                        reference.extend(tuple(p) for p in ecmp[:per_pair])
            provider = ShortestPathElpProvider(per_pair=per_pair)
            built = provider.build(topo).paths
            assert built == reference
            assert built == pairwise_shortest_paths(topo, names, per_pair)
            assert built == list(provider.iter_paths(topo))
            assert built == [
                path
                for src, dst in provider.ordered_pairs(topo)
                for path in provider.pair_paths(topo, src, dst)
            ]

    def test_updown_provider_matches_batch_form_and_reference(self):
        for topo in _fabrics():
            if any(topo.layer_of(s) is None for s in topo.switches):
                continue
            tors = sorted(topo.switches_at_layer(0))
            graph = topo.to_networkx().subgraph(topo.switches)
            reference = []
            for src in tors:
                for dst in tors:
                    if src == dst:
                        continue
                    valley_free = [
                        tuple(p)
                        for p in nx.all_simple_paths(graph, src, dst, cutoff=6)
                        if count_bounces(topo, p) == 0
                    ]
                    shortest = min(map(len, valley_free), default=0)
                    reference.extend(
                        sorted(p for p in valley_free if len(p) == shortest)
                    )
            built = UpDownElpProvider().build(topo).paths
            assert built == reference
            assert built == list(UpDownElpProvider().iter_paths(topo))

    @pytest.mark.parametrize("per_pair", [1, 3])
    def test_build_does_one_bfs_per_destination(self, monkeypatch, per_pair):
        topo = jellyfish(14, 6, hosts_per_switch=0, seed=5)
        roots = []
        real = shortest_module.bfs_distances

        def counting(topo, root):
            roots.append(root)
            return real(topo, root)

        monkeypatch.setattr(shortest_module, "bfs_distances", counting)
        monkeypatch.setattr(elp_module, "bfs_distances", counting)
        provider = ShortestPathElpProvider(per_pair=per_pair)
        provider.build(topo)
        assert roots == sorted(topo.switches)
        del roots[:]
        list(provider.iter_paths(topo))
        assert roots == sorted(topo.switches)
        del roots[:]
        provider.pair_paths(topo, "J0", "J5")
        assert roots == ["J5"]


class TestUpDownEndpointsFailClosed:
    """Only "no up-down path" is an empty answer. A host or unlayered
    endpoint is a misconfigured ELP and must be refused by name, not
    planned around with its pairs silently left out."""

    @staticmethod
    def _fabric(unlayered=False):
        topo = clos3(ClosParams(2, 2, 2, 2, hosts_per_tor=1))
        if unlayered:
            topo.add_switch("X1")
            topo.add_link("X1", "T1")
        return topo

    @pytest.mark.parametrize("bad", ["H1", "X1"])
    def test_every_entry_point_names_the_endpoint(self, bad):
        topo = self._fabric(unlayered=bad == "X1")
        provider = UpDownElpProvider(explicit_endpoints=["T1", "T2", "T3", bad])
        match = repr(bad)
        with pytest.raises(TaggingError, match=match):
            provider.pair_paths(topo, "T1", bad)
        with pytest.raises(TaggingError, match=match):
            provider.pair_paths(topo, bad, "T2")
        with pytest.raises(TaggingError, match=match):
            TaggerPlan.from_provider(topo, provider)
        with pytest.raises(TaggingError, match=match):
            IncrementalPlanner(topo, provider)

    def test_partitioned_pair_is_still_empty(self):
        topo = self._fabric()
        topo.fail_link("T1", "L1")
        topo.fail_link("T1", "L2")
        provider = UpDownElpProvider()
        assert provider.pair_paths(topo, "T1", "T3") == ()
        plan = TaggerPlan.from_provider(topo, provider)
        assert plan.meta["certified"] is True
        assert plan.meta["elp_paths"] == len(provider.build(topo))
