"""Tests for generic shortest-path routing."""

from repro.routing import (
    bfs_distances,
    pairwise_shortest_paths,
    random_loopfree_paths,
    shortest_path_tables,
    validate_path,
)
from repro.routing.shortest import downhill_paths
from repro.topology import jellyfish


class TestBfs:
    def test_distances(self, testbed):
        dist = bfs_distances(testbed, "H1")
        assert dist["H1"] == 0
        assert dist["T1"] == 1
        assert dist["S1"] == 3
        assert dist["H9"] == 6

    def test_respects_failures(self, testbed):
        testbed.fail_link("T1", "L1")
        dist = bfs_distances(testbed, "H1")
        # L1 lost its 2-hop route (L1-T1-H1); now L1-S-L2-T1-H1.
        assert dist["L1"] == 4


class TestShortestPath:
    """One pair's paths: :func:`downhill_paths` over the destination's BFS."""

    def test_deterministic(self, testbed):
        (a,) = downhill_paths(testbed, bfs_distances(testbed, "T3"), "T1", "T3")
        (b,) = downhill_paths(testbed, bfs_distances(testbed, "T3"), "T1", "T3")
        assert a == b
        assert len(a) == 5

    def test_identity(self, testbed):
        dist = bfs_distances(testbed, "T1")
        assert downhill_paths(testbed, dist, "T1", "T1") == [("T1",)]

    def test_unreachable(self, testbed):
        for leaf in ("L1", "L2"):
            testbed.fail_link("T1", leaf)
        assert downhill_paths(testbed, bfs_distances(testbed, "T3"), "T1", "T3") == []

    def test_all_shortest_paths_ecmp(self, testbed):
        dist = bfs_distances(testbed, "T3")
        paths = downhill_paths(testbed, dist, "T1", "T3", per_pair=100)
        assert len(paths) == 8
        assert all(len(p) == 5 for p in paths)

    def test_all_shortest_paths_limit(self, testbed):
        dist = bfs_distances(testbed, "T3")
        paths = downhill_paths(testbed, dist, "T1", "T3", per_pair=3)
        assert len(paths) == 3


class TestPairwise:
    def test_single_per_pair(self, testbed):
        tors = ["T1", "T2", "T3", "T4"]
        paths = pairwise_shortest_paths(testbed, tors, per_pair=1)
        assert len(paths) == 12  # ordered pairs
        for path in paths:
            validate_path(testbed, path)

    def test_multiple_per_pair(self, testbed):
        paths = pairwise_shortest_paths(testbed, ["T1", "T3"], per_pair=3)
        assert len(paths) == 6


class TestTables:
    def test_tables_route_all_hosts(self, testbed):
        table = shortest_path_tables(testbed)
        for src in testbed.switches:
            for dst in testbed.hosts:
                if dst in testbed.hosts_under(src):
                    continue
                assert table.has_route(src, dst)

    def test_tables_trace_shortest(self, testbed):
        table = shortest_path_tables(testbed)
        path, done = table.trace("T1", "H9")
        assert done
        assert len(path) == 6  # T1 L S L T3 H9

    def test_tables_after_failure_avoid_link(self, testbed):
        testbed.fail_link("T1", "L1")
        table = shortest_path_tables(testbed)
        assert table.next_hops("T1", "H9") == ["L2"]


class TestRandomPaths:
    def test_loop_free_and_valid(self):
        topo = jellyfish(20, 8, hosts_per_switch=0, seed=5)
        paths = random_loopfree_paths(topo, 50, seed=5)
        assert len(paths) == 50
        for path in paths:
            assert len(set(path)) == len(path)
            validate_path(topo, path)

    def test_seeded(self):
        topo = jellyfish(20, 8, hosts_per_switch=0, seed=5)
        assert random_loopfree_paths(topo, 10, seed=2) == random_loopfree_paths(
            topo, 10, seed=2
        )
