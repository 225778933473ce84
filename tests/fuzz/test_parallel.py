"""Fuzz sweep: one loop, any worker count, the identical report.

``run_fuzz`` runs the same chunked loop at every worker count: with
``workers=1`` the sweep runs inline, with more it fans scenarios over
the forked pool. The report must agree *field for field* — same
violations in the same order, same oracle/detect budget consumption,
same corpus decisions — modulo only ``elapsed_seconds``.
"""

import multiprocessing

import pytest

from repro.fuzz import FuzzConfig, run_fuzz

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not _HAS_FORK, reason="platform has no fork start method"
)


def _report_dict(config: FuzzConfig) -> dict:
    blob = run_fuzz(config).to_dict()
    del blob["elapsed_seconds"]
    return blob


class TestSerialIdentity:
    @needs_fork
    def test_worker_counts_agree_with_dynamic_stages(self):
        base = dict(
            seed=11,
            iterations=12,
            oracle_budget=2,
            detect_budget=1,
            oracle_duration=0.06,
            detect_duration=0.08,
            shrink=False,
        )
        serial = _report_dict(FuzzConfig(**base, workers=1))
        # The serial report must exercise both dynamic stages, or the
        # identity claim is vacuous.
        assert serial["oracle"]["runs"] >= 1
        assert serial["detect"]["runs"] >= 1
        for workers in (2, 8):
            assert _report_dict(FuzzConfig(**base, workers=workers)) == serial

    @needs_fork
    def test_injected_fault_violations_and_shrinks_identical(self, tmp_path):
        def run(workers, corpus):
            blob = run_fuzz(
                FuzzConfig(
                    seed=7,
                    iterations=12,
                    oracle_budget=0,
                    inject_fault="skip-r2",
                    shrink=True,
                    corpus_dir=str(corpus),
                    workers=workers,
                )
            ).to_dict()
            del blob["elapsed_seconds"]
            # Corpus files land in per-run directories; compare entries
            # by identity and recorded violations, not absolute path.
            blob["corpus_entries"] = [
                {"id": e["id"], "violations": e["violations"]}
                for e in blob["corpus_entries"]
            ]
            return blob

        serial = run(1, tmp_path / "serial")
        assert serial["violations"], "fault must be caught"
        assert serial["corpus_entries"], "fault must be shrunk"
        parallel = run(4, tmp_path / "parallel")
        assert parallel == serial

    @needs_fork
    def test_escaping_exception_is_one_harness_error_everywhere(
        self, monkeypatch
    ):
        """A crash inside ``run_oracle`` is the same violation at any count.

        Patched before the pool forks, so the workers inherit it.
        """

        def boom(scenario, **kwargs):
            raise RuntimeError("oracle exploded")

        monkeypatch.setattr("repro.fuzz.harness.run_oracle", boom)
        # Seed 1's second scenario is the first one the oracle can drive.
        base = dict(seed=1, iterations=4, oracle_budget=1, shrink=False)
        serial = run_fuzz(FuzzConfig(**base, workers=1))
        assert [v["invariant"] for v in serial.violations] == ["harness-error"]
        assert serial.violations[0]["detail"] == (
            "oracle worker-error: RuntimeError: oracle exploded"
        )
        # The failed replay still spent the oracle budget.
        assert serial.oracle_runs == 0 and serial.oracle_skips == 1
        parallel = run_fuzz(FuzzConfig(**base, workers=2))
        assert parallel.violations == serial.violations
        assert parallel.oracle_skips == serial.oracle_skips

    def test_time_budget_is_checked_before_every_scenario_inline(self):
        report = run_fuzz(
            FuzzConfig(
                seed=2,
                iterations=500,
                oracle_budget=0,
                time_budget=0.0,
                workers=1,
                shrink=False,
            )
        )
        assert report.iterations_run <= 1


@needs_fork
class TestParallelMechanics:
    def test_chunked_time_budget_stops_early(self):
        config = FuzzConfig(
            seed=2,
            iterations=500,
            oracle_budget=0,
            time_budget=0.0,  # expires before the first chunk boundary
            workers=2,
            shrink=False,
        )
        report = run_fuzz(config)
        # The first chunk may complete (budget is checked at chunk
        # boundaries), but nothing close to 500 iterations runs.
        assert report.iterations_run <= 2 * 4

    def test_telemetry_counts_match_serial(self):
        from repro.obs.telemetry import Telemetry

        base = dict(
            seed=5, iterations=6, oracle_budget=0, shrink=False
        )
        serial_tel = Telemetry()
        run_fuzz(FuzzConfig(**base, workers=1), telemetry=serial_tel)
        parallel_tel = Telemetry()
        run_fuzz(FuzzConfig(**base, workers=2), telemetry=parallel_tel)
        serial_counts = serial_tel.registry.to_dict()["fuzz_scenarios_total"]
        parallel_counts = parallel_tel.registry.to_dict()[
            "fuzz_scenarios_total"
        ]
        assert parallel_counts == serial_counts
