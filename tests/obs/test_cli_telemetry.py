"""CLI surface of the observability layer.

``--telemetry out.jsonl`` on ``demo`` / ``replan`` / ``fuzz`` /
``deploy`` captures the structured event stream; ``repro-tagger stats``
validates and summarizes it. The chaos test at the bottom is the ISSUE's
acceptance check: a telemetry-enabled ``deploy --chaos`` run must
produce schema-valid JSONL whose retry/rollback counts equal the chaos
report's.
"""

import json

from repro.cli import main
from repro.obs import aggregate_jsonl


def capture_demo(tmp_path, capsys, extra=()):
    stream = tmp_path / "demo.jsonl"
    code = main(
        ["demo", "fig10", "--duration", "0.05", "--telemetry", str(stream)]
        + list(extra)
    )
    capsys.readouterr()
    return code, stream


class TestTelemetryFlag:
    def test_demo_writes_schema_valid_stream(self, tmp_path, capsys):
        code, stream = capture_demo(tmp_path, capsys)
        assert code in (0, 1)  # fig10 without tagger deadlocks by design
        aggregate = aggregate_jsonl(str(stream))
        assert aggregate["events"] > 0
        # The CLI opts in to per-packet events: the file is the record.
        assert "sim.packet.inject" in aggregate["by_kind"]
        assert "sim.packet.deliver" in aggregate["by_kind"]
        assert "sim.pfc.pause" in aggregate["by_kind"]

    def test_demo_prints_event_count(self, tmp_path, capsys):
        stream = tmp_path / "demo.jsonl"
        main(["demo", "fig10", "--tagger", "--duration", "0.05",
              "--telemetry", str(stream)])
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert str(stream) in out

    def test_replan_embeds_snapshot_in_report(self, tmp_path, capsys):
        stream = tmp_path / "replan.jsonl"
        out_file = tmp_path / "plan.json"
        code = main(
            ["replan", "--delta", "down:L1:S1", "--delta", "up:L1:S1",
             "--out", str(out_file), "--telemetry", str(stream)]
        )
        capsys.readouterr()
        assert code == 0
        aggregate = aggregate_jsonl(str(stream))
        assert aggregate["by_kind"]["replan.apply"] == 2
        blob = json.loads(out_file.read_text())
        snapshot = blob["telemetry"]
        assert snapshot["events"]["by_kind"]["replan.apply"] == 2
        metrics = snapshot["metrics"]
        applies = {
            sample["labels"]["mode"]: sample["value"]
            for sample in metrics["replan_applies_total"]["samples"]
        }
        assert sum(applies.values()) == 2
        assert "planner_stage_seconds" in metrics
        assert "planner_rules" in metrics

    def test_fuzz_embeds_snapshot_in_report(self, tmp_path, capsys):
        stream = tmp_path / "fuzz.jsonl"
        report_file = tmp_path / "fuzz.json"
        code = main(
            ["fuzz", "--iterations", "5", "--oracle-budget", "0",
             "--report", str(report_file), "--telemetry", str(stream)]
        )
        capsys.readouterr()
        assert code == 0
        aggregate = aggregate_jsonl(str(stream))
        assert aggregate["by_kind"]["fuzz.scenario"] == 5
        blob = json.loads(report_file.read_text())
        scenarios = blob["telemetry"]["metrics"]["fuzz_scenarios_total"]
        assert sum(s["value"] for s in scenarios["samples"]) == 5

    def test_runs_without_flag_emit_nothing(self, tmp_path, capsys):
        code = main(["demo", "fig10", "--tagger", "--duration", "0.05"])
        assert code == 0
        assert "telemetry:" not in capsys.readouterr().out


class TestStats:
    def test_text_summary(self, tmp_path, capsys):
        _, stream = capture_demo(tmp_path, capsys, extra=["--tagger"])
        assert main(["stats", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "event(s)" in out
        assert "sim.packet.deliver" in out
        assert "timestamp span" in out

    def test_json_aggregate(self, tmp_path, capsys):
        _, stream = capture_demo(tmp_path, capsys, extra=["--tagger"])
        assert main(["stats", str(stream), "--format", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob == aggregate_jsonl(str(stream))

    def test_prometheus_rendering(self, tmp_path, capsys):
        _, stream = capture_demo(tmp_path, capsys, extra=["--tagger"])
        assert main(["stats", str(stream), "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE telemetry_events_total counter" in out
        assert 'telemetry_events_total{kind="sim.packet.inject"}' in out

    def test_schema_violation_exits_1_with_location(self, tmp_path, capsys):
        stream = tmp_path / "bad.jsonl"
        stream.write_text(
            '{"ts":0,"kind":"sim.packet.inject","flow":1}\n'
            '{"ts":0,"kind":"sim.pfc.pause","sender":"A"}\n'
        )
        assert main(["stats", str(stream)]) == 1
        err = capsys.readouterr().err
        assert "bad.jsonl:2" in err
        assert "missing required field" in err

    def test_non_finite_numbers_exit_1_with_location(self, tmp_path, capsys):
        """NaN and Infinity are not JSON (RFC 8259); Python's parser
        accepts them, so the schema check must not."""
        stream = tmp_path / "nan.jsonl"
        stream.write_text('{"ts": NaN, "kind": "sim.packet.inject", "flow": 1}\n')
        assert main(["stats", str(stream)]) == 1
        captured = capsys.readouterr()
        assert "nan.jsonl:1" in captured.err
        assert "'ts' is not a finite number" in captured.err
        assert "timestamp span" not in captured.out
        stream.write_text(
            '{"ts":0,"kind":"sim.packet.inject","flow":1}\n'
            '{"ts":0,"kind":"sim.packet.deliver","flow":1,"size":Infinity}\n'
        )
        assert main(["stats", str(stream), "--format", "json"]) == 1
        err = capsys.readouterr().err
        assert "nan.jsonl:2" in err
        assert "field 'size' is not a finite number (inf)" in err

    def test_missing_file_exits_1_without_traceback(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestChaosReconciliation:
    def test_chaos_stream_matches_report(self, tmp_path, capsys):
        """ISSUE acceptance: `deploy --chaos 3 --telemetry` produces a
        schema-valid stream whose retry/rollback counts equal the chaos
        report's aggregates."""
        stream = tmp_path / "chaos.jsonl"
        report_file = tmp_path / "chaos.json"
        code = main(
            ["deploy", "--delta", "down:L1:S1", "--chaos", "3",
             "--fault-rate", "0.4", "--stuck-prob", "0.1", "--seed", "7",
             "--report", str(report_file), "--telemetry", str(stream)]
        )
        capsys.readouterr()
        assert code == 0

        # Schema-valid JSONL (the same check the CI smoke step runs).
        aggregate = aggregate_jsonl(str(stream))
        report = json.loads(report_file.read_text())
        assert report["runs"] == 3

        # Stream-derived counts equal the report's summed counters.
        assert aggregate["by_kind"].get("deploy.retry", 0) == (
            report["retries"]
        )
        assert aggregate["by_kind"].get("deploy.rollback", 0) == (
            report["rollbacks"]
        )
        assert aggregate["by_kind"].get("deploy.outcome", 0) == 3

        # The embedded snapshot agrees with the stream it sits next to.
        snapshot = report["telemetry"]
        assert snapshot["events"]["by_kind"] == aggregate["by_kind"]
        rpcs = snapshot["metrics"]["deploy_rpcs_total"]["samples"]
        assert sum(s["value"] for s in rpcs) == aggregate["by_kind"].get(
            "deploy.rpc", 0
        )
