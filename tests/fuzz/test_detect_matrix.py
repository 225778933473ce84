"""The detection head-to-head matrix and the fuzz ``detect`` stage.

The paper's Fig. 10 testbed scenario is the known-answer input: its CBD
pair deadlocks under plain PFC, so the matrix must show detection +
recovery in the ``detect`` cell, silence in both Tagger cells, and
silence in the transient (congestion-tree) control cell.
"""

import pytest

from repro.detect import detection_matrix, false_positive_cells
from repro.fuzz import FuzzConfig, Scenario, run_fuzz
from repro.fuzz.crosscheck import STATIC_INVARIANTS
from repro.fuzz.harness import DYNAMIC_STAGES

from . import ran_checks

GREEN_SWITCH_PATH = ("T3", "L3", "S2", "L1", "S1", "L2", "T1")
BLUE_SWITCH_PATH = ("T1", "L1", "S1", "L3", "S2", "L4", "T4")


def fig10_scenario() -> Scenario:
    return Scenario(
        scenario_id="fig10-testbed",
        kind="clos",
        seed=0,
        topo_params=dict(
            num_pods=2,
            tors_per_pod=2,
            leaves_per_pod=2,
            num_spines=2,
            hosts_per_tor=4,
        ),
        elp_kind="bounce",
        elp_params={"max_bounces": 1, "max_paths_per_pair": 8},
        explicit_paths=[GREEN_SWITCH_PATH, BLUE_SWITCH_PATH],
    )


def cbd_free_scenario() -> Scenario:
    return Scenario(
        scenario_id="updown-clean",
        kind="clos",
        seed=0,
        topo_params=dict(
            num_pods=2,
            tors_per_pod=2,
            leaves_per_pod=2,
            num_spines=2,
            hosts_per_tor=1,
        ),
        elp_kind="updown",
    )


@pytest.fixture(scope="module")
def fig10_outcome():
    return detection_matrix(fig10_scenario(), duration=0.3)


class TestDetectionMatrix:
    def test_detect_cell_detects_and_recovers(self, fig10_outcome):
        outcome = fig10_outcome
        assert outcome.ran, outcome.reason
        cell = outcome.cell("detect")
        # Ground truth: plain PFC deadlocks ...
        assert cell.oracle_deadlocked
        # ... the local detector confirms within the matrix bound ...
        assert cell.confirms >= 1
        assert 0.0 <= cell.detection_latency <= outcome.latency_bound
        # ... and quarantine restores progress without lossless loss.
        assert cell.quarantines >= 1
        assert cell.packets_moved > 0
        assert cell.progress_restored
        assert not cell.oracle_deadlocked_at_end
        assert cell.lossless_drops == 0

    def test_prevention_cells_stay_silent(self, fig10_outcome):
        for name in ("tagger", "both"):
            cell = fig10_outcome.cell(name)
            assert cell is not None
            assert not cell.oracle_deadlocked  # Tagger prevented it
            assert cell.confirms == 0
            assert cell.quarantines == 0
            assert cell.lossless_drops == 0

    def test_transient_cell_is_the_fp_control(self, fig10_outcome):
        cell = fig10_outcome.cell("transient")
        assert cell is not None
        assert not cell.oracle_deadlocked  # one leg cannot close a CBD
        assert cell.suspects == 0
        assert cell.confirms == 0
        fp = {c.name for c in false_positive_cells(fig10_outcome)}
        assert "transient" in fp
        assert "detect" not in fp

    def test_outcome_serializes(self, fig10_outcome):
        blob = fig10_outcome.to_dict()
        assert set(blob["cells"]) == {"detect", "transient", "tagger", "both"}
        detect = blob["cells"]["detect"]
        assert detect["oracle_deadlocked"] is True
        assert detect["detection_latency"] <= blob["latency_bound"]

    def test_cbd_free_elp_skips(self):
        outcome = detection_matrix(cbd_free_scenario(), duration=0.1)
        assert not outcome.ran
        assert "CBD" in outcome.reason


def fuzz_scenarios(monkeypatch, scenarios, **config):
    """Drive ``run_fuzz`` over exactly these scenarios, inline."""
    monkeypatch.setattr(
        "repro.fuzz.harness.ScenarioGenerator", lambda seed: iter(scenarios)
    )
    return run_fuzz(
        FuzzConfig(iterations=len(scenarios), shrink=False, **config)
    )


class TestHarnessStage:
    def test_stage_scores_fig10_clean(self, monkeypatch):
        report = fuzz_scenarios(
            monkeypatch,
            [fig10_scenario(), fig10_scenario()],
            oracle_budget=0,
            detect_budget=1,
            detect_duration=0.3,
        )
        # The first scenario spends the whole budget; the second is not
        # even counted as a skip.
        assert report.detect_runs == 1
        assert report.detect_skips == 0
        assert report.detect_deadlocks == 1
        # Both scenarios' applicable static stages + one detect replay.
        detect = len(dict(DYNAMIC_STAGES)["detect"])
        assert report.invariant_checks == detect + ran_checks(
            [fig10_scenario(), fig10_scenario()]
        )
        assert report.violations == []
        assert report.detect_matrix[0]["scenario_id"] == "fig10-testbed"

    def test_stage_skips_without_consuming_budget(self, monkeypatch):
        report = fuzz_scenarios(
            monkeypatch,
            [cbd_free_scenario(), fig10_scenario()],
            oracle_budget=0,
            detect_budget=1,
            detect_duration=0.3,
        )
        assert report.detect_skips == 1
        assert report.detect_runs == 1
        detect = len(dict(DYNAMIC_STAGES)["detect"])
        assert report.invariant_checks == detect + ran_checks(
            [cbd_free_scenario(), fig10_scenario()]
        )

    def test_both_dynamic_stages_share_one_cbd_pair_search(
        self, monkeypatch, fig10_outcome
    ):
        """Oracle + matrix on one scenario: one ``find_cbd_pairs`` call."""
        from repro.fuzz import oracle

        calls = []
        real = oracle.find_cbd_pairs

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "find_cbd_pairs", counting)
        report = fuzz_scenarios(
            monkeypatch,
            [fig10_scenario()],
            seed=0,  # the matrix's sampler seed; the fixture uses 0 too
            oracle_budget=1,
            detect_budget=1,
            detect_duration=0.3,
        )
        assert len(calls) == 1
        assert report.oracle_runs == 1
        assert report.oracle_control_deadlocks == 1
        assert report.detect_runs == 1
        assert report.violations == []
        # Handed-in triggers change nothing: the harness's matrix is the
        # one a direct ``detection_matrix(scenario)`` call computes.
        summary = dict(report.detect_matrix[0])
        assert summary.pop("scenario_id") == "fig10-testbed"
        assert summary == fig10_outcome.to_dict()

    def test_invariant_names_are_distinct(self):
        dynamic = [name for _, invs in DYNAMIC_STAGES for name, _ in invs]
        assert {"detect-latency", "detect-false-positive"} <= set(dynamic)
        names = [*STATIC_INVARIANTS, *dynamic]
        assert len(names) == len(set(names))

    def test_run_fuzz_reports_detect_block(self):
        config = FuzzConfig(
            seed=7,
            iterations=3,
            oracle_budget=0,
            detect_budget=1,
            detect_duration=0.2,
        )
        report = run_fuzz(config)
        blob = report.to_dict()
        assert "detect" in blob
        assert blob["detect"]["runs"] + blob["detect"]["skips"] >= 1
        assert "detect matrix" in report.summary()
