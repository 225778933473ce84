"""Differential oracle for lint section reuse.

A lint that shares a :class:`LintSections` with earlier lints must
report exactly what a fresh one-shot lint of the same artifact reports
— same diagnostics in the same order, same stats — whatever was linted
through the shared object before.
"""

import pytest

from repro.core import TaggerPlan
from repro.core.pipeline import QueueMap
from repro.core.rules import RuleTable
from repro.exceptions import LintError
from repro.fuzz.faults import FAULT_TABLE
from repro.lint import (
    DeploymentArtifact,
    LintConfig,
    LintSections,
    lint_artifact,
    lint_tables,
)
from repro.topology import testbed_clos

#: The lint-stage rows of the fault table: name -> artifact injector.
LINT_FAULTS = {
    row.name: row.inject for row in FAULT_TABLE if row.stage == "lint"
}


@pytest.fixture
def plan(testbed):
    return TaggerPlan.for_clos(testbed, max_bounces=1)


def assert_reuse_matches_fresh(artifact, sections, config=None):
    shared = lint_artifact(artifact, config, sections).to_dict()
    assert shared == lint_artifact(artifact, config).to_dict()
    return shared


class TestReuseEqualsFresh:
    def test_relint_and_counters(self, plan):
        artifact = DeploymentArtifact.from_plan(plan)
        sections = LintSections(plan.topo)
        assert_reuse_matches_fresh(artifact, sections)
        assert (sections.built, sections.reused) == (len(plan.tables), 0)
        assert_reuse_matches_fresh(artifact, sections)
        assert (sections.built, sections.reused) == (
            len(plan.tables),
            len(plan.tables),
        )

    @pytest.mark.parametrize("fault", sorted(LINT_FAULTS))
    def test_faults_after_the_clean_artifact(self, plan, fault):
        """Explicit programs (tcam-shadow, tcam-drop-safeguard) and
        corrupted rules must not be answered from the clean sections."""
        artifact = DeploymentArtifact.from_plan(plan)
        sections = LintSections(plan.topo)
        assert_reuse_matches_fresh(artifact, sections)
        corrupted = LINT_FAULTS[fault](artifact)
        report = assert_reuse_matches_fresh(corrupted, sections)
        assert not report["ok"]
        # ...and the clean artifact is not answered from the dirty ones.
        assert assert_reuse_matches_fresh(artifact, sections)["ok"]

    def test_every_fault_through_one_object(self, plan):
        artifact = DeploymentArtifact.from_plan(plan)
        sections = LintSections(plan.topo)
        for _ in range(2):
            for fault in sorted(LINT_FAULTS):
                assert_reuse_matches_fresh(
                    LINT_FAULTS[fault](artifact), sections
                )
            assert_reuse_matches_fresh(artifact, sections)

    def test_configs_share_one_object(self, plan):
        artifact = DeploymentArtifact.from_plan(plan, tcam_budget=2)
        sections = LintSections(plan.topo)
        for config in (
            LintConfig(check_tcam=False),
            None,
            LintConfig(check_reach=False),
            LintConfig(tcam_budget=1),
            LintConfig(check_tcam=False, check_reach=False),
        ):
            assert_reuse_matches_fresh(artifact, sections, config)

    def test_program_for_a_switch_without_a_table(self, plan):
        artifact = DeploymentArtifact.from_plan(plan)
        programs = dict(artifact.ensure_programs())
        dropped = sorted(plan.tables)[0]
        tables = {s: t for s, t in plan.tables.items() if s != dropped}
        partial = DeploymentArtifact(
            topo=plan.topo,
            tables=tables,
            programs=programs,
            queue_map=plan.queue_map,
        )
        sections = LintSections(plan.topo)
        assert_reuse_matches_fresh(artifact, sections)
        report = assert_reuse_matches_fresh(partial, sections)
        assert "S104" in report["counts"]["by_code"]
        # Downstream rules went dead (R201) without their sections
        # changing, and come back to life the same way.
        assert "R201" in report["counts"]["by_code"]
        assert assert_reuse_matches_fresh(partial, sections) == report
        assert assert_reuse_matches_fresh(artifact, sections)["ok"]

    def test_malformed_rules(self, plan):
        tables = {
            s: RuleTable(switch=s, rules=dict(t.rules))
            for s, t in plan.tables.items()
        }
        sections = LintSections(plan.topo)
        config = LintConfig(check_tcam=False)  # GHOST has no ports to compile
        lint_tables(plan.topo, tables, plan.queue_map, config, sections)
        victim = tables[sorted(tables)[0]]
        tag, in_port, out_port = sorted(victim.rules)[0]
        victim.rules[(tag, 99, out_port)] = tag  # T004 ingress
        victim.rules[(tag, in_port, 77)] = tag + 1  # T004 egress, still fires
        victim.rules[(-1, in_port, out_port)] = 1  # T003
        victim.rules[(tag + 1, in_port, out_port)] = tag  # T002
        tables["GHOST"] = RuleTable(switch="GHOST", rules={(1, 1, 2): 1})
        shared = lint_tables(
            plan.topo, tables, plan.queue_map, config, sections
        ).to_dict()
        fresh = lint_tables(plan.topo, tables, plan.queue_map, config)
        assert shared == fresh.to_dict()
        assert {"T002", "T003", "T004"} <= set(fresh.codes())


class TestNoStaleHit:
    def test_table_mutated_in_place_between_lints(self, plan):
        """Sections are keyed by rule content: the same ``RuleTable``
        object, edited between two lints of one rollout, is re-derived."""
        tables = {
            s: RuleTable(switch=s, rules=dict(t.rules))
            for s, t in plan.tables.items()
        }
        sections = LintSections(plan.topo)
        before = lint_tables(
            plan.topo, tables, plan.queue_map, sections=sections
        )
        assert before.ok
        victim = tables[sorted(tables)[0]]
        key = next(k for k in sorted(victim.rules) if k[0] > 1)
        victim.rules[key] = 1  # now tag-decreasing
        after = lint_tables(
            plan.topo, tables, plan.queue_map, sections=sections
        )
        assert "T002" in after.codes()
        assert after.to_dict() == lint_tables(
            plan.topo, tables, plan.queue_map
        ).to_dict()
        assert sections.built == len(tables) + 1
        # Editing it back hits the original section again.
        victim.rules[key] = plan.tables[victim.switch].rules[key]
        again = lint_tables(
            plan.topo, tables, plan.queue_map, sections=sections
        )
        assert again.to_dict() == before.to_dict()
        assert sections.built == len(tables) + 1

    def test_program_mutated_in_place_between_lints(self, plan):
        artifact = DeploymentArtifact.from_plan(plan)
        programs = {
            s: list(p) for s, p in artifact.ensure_programs().items()
        }
        explicit = artifact.with_programs(programs)
        sections = LintSections(plan.topo)
        assert assert_reuse_matches_fresh(explicit, sections)["ok"]
        programs[sorted(programs)[0]].pop()  # drop the safeguard in place
        report = assert_reuse_matches_fresh(explicit, sections)
        assert "S105" in report["counts"]["by_code"]

    def test_equal_content_in_a_fresh_object_is_reused(self, plan):
        """What ``_finalize`` relies on: tables read back from the agents
        are new objects with the rules the last boundary already saw."""
        sections = LintSections(plan.topo)
        lint_tables(plan.topo, plan.tables, plan.queue_map, sections=sections)
        readback = {
            s: RuleTable(switch=s, rules=dict(t.rules))
            for s, t in plan.tables.items()
        }
        report = lint_tables(
            plan.topo, readback, plan.queue_map, sections=sections
        )
        assert sections.reused == len(plan.tables)
        assert report.to_dict() == lint_tables(
            plan.topo, plan.tables, plan.queue_map
        ).to_dict()


def test_sections_are_bound_to_their_topology(plan):
    sections = LintSections(testbed_clos())
    with pytest.raises(LintError, match="different topology"):
        lint_artifact(DeploymentArtifact.from_plan(plan), sections=sections)


def test_queue_map_is_not_part_of_a_section(plan):
    """B302 / R202 read the queue map in the fabric-wide stage."""
    sections = LintSections(plan.topo)
    lint_tables(plan.topo, plan.tables, plan.queue_map, sections=sections)
    narrow = QueueMap.identity(1, 8)
    shared = lint_tables(plan.topo, plan.tables, narrow, sections=sections)
    assert shared.to_dict() == lint_tables(
        plan.topo, plan.tables, narrow
    ).to_dict()
    assert "B302" in shared.codes()
