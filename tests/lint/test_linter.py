"""End-to-end linter runs: clean plans certify, corrupted ones do not."""

import pytest

from repro.core import ClosTagger, RuleTable, TaggerPlan, jellyfish_elp
from repro.exceptions import LintError
from repro.lint import DeploymentArtifact, lint_artifact, lint_plan
from repro.topology import jellyfish


class TestCleanPlans:
    def test_testbed_clos_plan_certifies(self, testbed):
        plan = TaggerPlan.for_clos(testbed, max_bounces=1)
        report = lint_plan(plan)
        assert report.ok, report.render_text()
        assert report.diagnostics == []
        assert report.stats["graph_tags"] == 2
        assert report.stats["dead_rules"] == 0

    def test_jellyfish_plan_certifies(self):
        topo = jellyfish(num_switches=10, ports_per_switch=4, seed=3)
        plan = TaggerPlan.from_elp(topo, jellyfish_elp(topo))
        report = lint_plan(plan)
        assert report.ok, report.render_text()

    def test_report_stats_cover_every_family(self, testbed):
        plan = TaggerPlan.for_clos(testbed, max_bounces=1)
        stats = lint_plan(plan).stats
        for key in (
            "rules",
            "graph_nodes",
            "tcam_entries",
            "reachable_states",
            "live_tags",
        ):
            assert key in stats


class TestArtifactContract:
    def test_policy_backed_tables_rejected(self, testbed):
        rewrite = ClosTagger(testbed, max_bounces=1).rewrite
        tables = {"L1": RuleTable(switch="L1", policy=rewrite)}
        with pytest.raises(LintError, match="policy-backed"):
            DeploymentArtifact(topo=testbed, tables=tables)

    def test_negative_tcam_budget_rejected(self, testbed):
        with pytest.raises(LintError, match="tcam_budget must be >= 0"):
            DeploymentArtifact(topo=testbed, tables={}, tcam_budget=-1)

    def test_lint_ignores_planner_graph(self, testbed):
        """The artifact carries no TaggedGraph: certification is
        re-derived from the tables alone."""
        plan = TaggerPlan.for_clos(testbed, max_bounces=1)
        artifact = DeploymentArtifact.from_plan(plan)
        assert not hasattr(artifact, "graph")
        assert lint_artifact(artifact).ok


class TestLintConfig:
    def test_tcam_budget_enforced(self, testbed):
        plan = TaggerPlan.for_clos(testbed, max_bounces=1)
        artifact = DeploymentArtifact(
            topo=plan.topo, tables=plan.tables, queue_map=plan.queue_map, tcam_budget=1
        )
        report = lint_artifact(artifact)
        assert not report.ok
        assert "B301" in report.codes()
