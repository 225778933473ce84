"""Tests for multi-class tag sharing (paper §6)."""

import pytest

from repro.core import (
    LOSSY_TAG,
    TrafficClass,
    naive_priority_count,
    staggered_tagger,
    verify_tagged_graph,
)
from repro.exceptions import TaggingError


@pytest.fixture
def two_classes(testbed):
    return staggered_tagger(
        testbed,
        [TrafficClass("data", 1), TrafficClass("cnp", 1)],
    )


class TestTagArithmetic:
    def test_staggered_initial_tags(self, two_classes):
        assert two_classes.initial_tags == (1, 2)

    def test_m_plus_n_tags(self, testbed):
        """N classes with M-bounce budgets need M + N tags, not N(M+1)."""
        for n in (1, 2, 3):
            for m in (0, 1, 2):
                classes = [TrafficClass(f"c{i}", m) for i in range(n)]
                tagger = staggered_tagger(testbed, classes)
                assert tagger.num_lossless_tags == m + n
                assert naive_priority_count(classes) == n * (m + 1)

    def test_guaranteed_bounces_at_least_budget(self, two_classes):
        data, cnp = (
            two_classes.max_lossless_tag - tag for tag in two_classes.initial_tags
        )
        assert data >= 1 and cnp >= 1
        # The first class picks up extra headroom from the shared space.
        assert data == 2

    def test_duplicate_names_rejected(self, testbed):
        with pytest.raises(TaggingError, match="unique"):
            staggered_tagger(
                testbed, [TrafficClass("x", 1), TrafficClass("x", 1)]
            )

    def test_empty_rejected(self, testbed):
        with pytest.raises(TaggingError):
            staggered_tagger(testbed, [])

    def test_negative_budget_rejected(self, testbed):
        with pytest.raises(TaggingError, match="negative"):
            staggered_tagger(
                testbed, [TrafficClass("x", 1), TrafficClass("y", -1)]
            )


class TestPathBehaviour:
    def test_updown_keeps_class_tag(self, testbed, two_classes):
        path = ("H1", "T1", "L1", "S1", "L3", "T3", "H9")
        assert two_classes.tag_along_path(path, initial_tag=1) == [1] * 6
        assert two_classes.tag_along_path(path, initial_tag=2) == [2] * 6

    def test_bounce_increments_within_shared_space(
        self, testbed, two_classes, bounce_paths
    ):
        green, _ = bounce_paths
        data_tags = two_classes.tag_along_path(green, initial_tag=1)
        cnp_tags = two_classes.tag_along_path(green, initial_tag=2)
        assert data_tags[-1] == 2
        assert cnp_tags[-1] == 3
        assert LOSSY_TAG not in data_tags + cnp_tags

    def test_reduced_isolation_is_real(self, testbed, two_classes, bounce_paths):
        """A bounced data packet shares priority 2 with fresh cnp packets."""
        green, _ = bounce_paths
        bounced_data_tag = two_classes.tag_along_path(green, initial_tag=1)[-1]
        assert bounced_data_tag == two_classes.initial_tags[1]

    def test_over_budget_demotes(self, testbed):
        tagger = staggered_tagger(testbed, [TrafficClass("data", 0)])
        one_bounce = ("T3", "L3", "S2", "L1", "S1", "L2", "T1")
        assert not tagger.path_stays_lossless(one_bounce)


class TestSafety:
    def test_tagged_graph_deadlock_free(self, testbed, two_classes):
        report = verify_tagged_graph(two_classes.tagged_graph())
        assert report.deadlock_free
        assert report.num_tags == two_classes.num_lossless_tags

    def test_host_ports_carry_class_tags(self, testbed, two_classes):
        graph = two_classes.tagged_graph()
        host_port = ("T1", testbed.port_to("T1", "H1"))
        assert graph.tags_on_port(host_port) == [1, 2]

    def test_asymmetric_budgets(self, testbed):
        tagger = staggered_tagger(
            testbed,
            [TrafficClass("bulk", 2), TrafficClass("cnp", 0)],
        )
        assert tagger.num_lossless_tags == 3
        assert verify_tagged_graph(tagger.tagged_graph()).deadlock_free
