"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestPlan:
    def test_clos_plan_prints_summary(self, capsys):
        assert main(["plan", "--topology", "clos", "--bounces", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 lossless queue(s)" in out
        assert "DEADLOCK-FREE" in out

    def test_jellyfish_plan(self, capsys):
        code = main(
            ["plan", "--topology", "jellyfish", "--switches", "20",
             "--ports", "8", "--seed", "3"]
        )
        assert code == 0
        assert "DEADLOCK-FREE" in capsys.readouterr().out

    def test_plan_export_and_verify_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "plan.json"
        assert main(["plan", "--bounces", "1", "--out", str(out_file)]) == 0
        blob = json.loads(out_file.read_text())
        assert blob["num_lossless_queues"] == 2
        assert "L1" in blob["rules"]
        capsys.readouterr()
        assert main(["verify", str(out_file)]) == 0
        assert "DEADLOCK-FREE" in capsys.readouterr().out

    def test_verify_rejects_tampered_plan(self, tmp_path, capsys):
        out_file = tmp_path / "plan.json"
        main(["plan", "--bounces", "1", "--out", str(out_file)])
        blob = json.loads(out_file.read_text())
        # Sabotage: make a rule decrease the tag, i.e. 2 -> 1 somewhere
        # a 1 -> 1 rule exists, creating a monotonicity violation.
        for switch, rules in blob["rules"].items():
            for rule in rules:
                if rule[0] == 2 and rule[3] == 2:
                    rule[3] = 1
        out_file.write_text(json.dumps(blob))
        capsys.readouterr()
        code = main(["verify", str(out_file)])
        captured = capsys.readouterr()
        assert code == 1
        assert "UNSAFE" in captured.err


class TestLint:
    def export_plan(self, tmp_path):
        out_file = tmp_path / "plan.json"
        assert main(["plan", "--bounces", "1", "--out", str(out_file)]) == 0
        return out_file

    def sabotage(self, plan_file):
        """Make one tag-2 rule decrease back to tag 1 (T002)."""
        blob = json.loads(plan_file.read_text())
        for rules in blob["rules"].values():
            for rule in rules:
                if rule[0] == 2 and rule[3] == 2:
                    rule[3] = 1
        plan_file.write_text(json.dumps(blob))

    def test_clean_plan_lints_clean(self, tmp_path, capsys):
        plan_file = self.export_plan(tmp_path)
        capsys.readouterr()
        assert main(["lint", str(plan_file)]) == 0
        out = capsys.readouterr().out
        assert "CLEAN: 0 error(s)" in out

    def test_corrupted_plan_exits_1(self, tmp_path, capsys):
        plan_file = self.export_plan(tmp_path)
        self.sabotage(plan_file)
        capsys.readouterr()
        assert main(["lint", str(plan_file)]) == 1
        out = capsys.readouterr().out
        assert "T002" in out
        assert "DIRTY" in out

    def test_json_report_written(self, tmp_path, capsys):
        plan_file = self.export_plan(tmp_path)
        report_file = tmp_path / "lint-report.json"
        assert main(
            ["lint", str(plan_file), "--json", str(report_file)]
        ) == 0
        blob = json.loads(report_file.read_text())
        assert blob["ok"] is True
        assert blob["counts"]["error"] == 0
        assert blob["stats"]["switches"] > 0

    def test_tcam_budget_flag(self, tmp_path, capsys):
        plan_file = self.export_plan(tmp_path)
        capsys.readouterr()
        assert main(["lint", str(plan_file), "--tcam-budget", "1"]) == 1
        assert "B301" in capsys.readouterr().out

    def test_verify_lint_flag(self, tmp_path, capsys):
        plan_file = self.export_plan(tmp_path)
        capsys.readouterr()
        assert main(["verify", str(plan_file), "--lint"]) == 0
        out = capsys.readouterr().out
        assert "DEADLOCK-FREE" in out
        assert "lint: CLEAN" in out


class TestDemo:
    def test_fig10_both_modes(self, capsys):
        code_plain = main(["demo", "fig10", "--duration", "0.2"])
        out_plain = capsys.readouterr().out
        code_tagged = main(["demo", "fig10", "--tagger", "--duration", "0.2"])
        out_tagged = capsys.readouterr().out
        assert code_plain == 2 and "DEADLOCK" in out_plain
        assert code_tagged == 0 and "no deadlock" in out_tagged

    def test_fig11_without_tagger_reports_deadlock(self, capsys):
        code = main(["demo", "fig11", "--duration", "0.15"])
        out = capsys.readouterr().out
        assert code == 2
        assert "DEADLOCK" in out

    def test_fig11_with_tagger_survives(self, capsys):
        code = main(["demo", "fig11", "--tagger", "--duration", "0.15"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no deadlock" in out


class TestReplan:
    def test_flap_with_scratch_comparison(self, capsys):
        code = main(
            [
                "replan",
                "--topology", "clos",
                "--delta", "down:L1:S1",
                "--delta", "up:L1:S1",
                "--delta", "drain:L2",
                "--delta", "undrain:L2",
                "--compare-scratch",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "initial build:" in out
        assert "link-down L1<->S1: incremental" in out
        assert "link-up L1<->S1: memo" in out
        assert "byte-identical to from-scratch" in out

    def test_jellyfish_replan(self, capsys):
        code = main(
            [
                "replan",
                "--topology", "jellyfish",
                "--switches", "10",
                "--ports", "6",
                "--seed", "3",
                "--compare-scratch",
            ]
        )
        assert code == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_export_lints_clean(self, tmp_path, capsys):
        out_file = tmp_path / "replanned.json"
        code = main(
            [
                "replan",
                "--topology", "clos",
                "--delta", "down:L1:S1",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        blob = json.loads(out_file.read_text())
        assert blob["deltas"] == ["link-down L1<->S1"]
        assert blob["failed_links"] == [["L1", "S1"]]
        capsys.readouterr()
        # Round trip: the export is judged on the fabric it was planned
        # for — L1<->S1 down — not on the pristine one.
        assert main(["lint", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "failed=1" in out.splitlines()[0]
        assert "CLEAN: 0 error(s)" in out
        assert main(["verify", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "failed=1" in out.splitlines()[0]
        assert "DEADLOCK-FREE" in out

    @pytest.mark.parametrize(
        "spec",
        ["down:L1", "sideways:L1:S1", "drain", "add-paths", "up:A:B:C"],
    )
    def test_bad_delta_spec_rejected(self, spec, capsys):
        code = main(["replan", "--topology", "clos", "--delta", spec])
        assert code == 1
        assert "bad delta spec" in capsys.readouterr().err


#: A complete ``generator`` block: the 2-pod Clos.
CLOS_GENERATOR = {
    "topology": "clos", "pods": 2, "tors": 2,
    "leaves": 2, "spines": 2, "hosts": 4,
}


class TestErrors:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_plan_file_exits_1_without_traceback(self, capsys):
        code = main(["verify", "/nonexistent/plan.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_malformed_plan_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text("{not json")
        assert main(["lint", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "plan_blob, argv, names",
        [
            # --stuck with a non-integer send index.
            (
                None,
                ["deploy", "--delta", "down:L1:S1", "--stuck", "S1:abc"],
                ["'S1:abc'"],
            ),
            # A JSON object that is not an exported plan.
            ({"rules": {}}, ["lint", "PLAN"], ["PLAN", "generator"]),
            ({"rules": {}}, ["verify", "PLAN"], ["PLAN", "generator"]),
            # A generator block that cannot rebuild the topology.
            (
                {"generator": {"topology": "clos"}, "rules": {}},
                ["lint", "PLAN"],
                ["PLAN", "generator"],
            ),
            # A rule row that is not [tag, in_port, out_port, new_tag].
            (
                {"generator": CLOS_GENERATOR, "rules": {"L1": [[1, 0, 1]]}},
                ["lint", "PLAN"],
                ["PLAN", "'L1'", "[1, 0, 1]"],
            ),
            # failed_links that is not a list of [a, b] pairs of links
            # of the rebuilt fabric.
            (
                {"generator": CLOS_GENERATOR, "rules": {}, "failed_links": "L1"},
                ["verify", "PLAN"],
                ["PLAN", "failed_links", "'L1'"],
            ),
            (
                {
                    "generator": CLOS_GENERATOR,
                    "rules": {},
                    "failed_links": [["L1", "S1", "S2"]],
                },
                ["lint", "PLAN"],
                ["PLAN", "failed_links", "['L1', 'S1', 'S2']"],
            ),
            (
                {
                    "generator": CLOS_GENERATOR,
                    "rules": {},
                    "failed_links": [["L1", "T9"]],
                },
                ["lint", "PLAN"],
                ["PLAN", "failed_links", "['L1', 'T9']"],
            ),
        ],
    )
    def test_malformed_input_exits_1_with_one_line_diagnosis(
        self, plan_blob, argv, names, tmp_path, capsys
    ):
        plan_file = str(tmp_path / "plan.json")
        if plan_blob is not None:
            (tmp_path / "plan.json").write_text(json.dumps(plan_blob))
        argv = [plan_file if arg == "PLAN" else arg for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        for name in names:
            assert name.replace("PLAN", plan_file) in err


class TestDeploy:
    """Exit-code contract: 0 converged, 2 degraded, 3 rolled back,
    1 refused/failed/usage — consistent with every other subcommand."""

    BASE = ["deploy", "--delta", "down:L1:S1"]

    def test_fault_free_rollout_exits_0(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "outcome: converged" in out
        assert "lint OK" in out

    def test_degraded_rollout_exits_2(self, capsys):
        assert main(self.BASE + ["--stuck", "L1"]) == 2
        assert "quarantined" in capsys.readouterr().out

    def test_rolled_back_rollout_exits_3(self, capsys):
        code = main(
            self.BASE
            + ["--faults", "L1:timeout,timeout", "--max-attempts", "1",
               "--no-quarantine"]
        )
        assert code == 3
        assert "outcome: rolled-back" in capsys.readouterr().out

    def test_failed_rollout_exits_1(self, capsys):
        code = main(self.BASE + ["--stuck", "L1", "--no-quarantine"])
        assert code == 1
        assert "outcome: failed" in capsys.readouterr().out

    def test_missing_delta_is_usage_error(self, capsys):
        assert main(["deploy"]) == 1
        assert "--delta" in capsys.readouterr().err

    def test_bad_fault_spec_rejected(self, capsys):
        assert main(self.BASE + ["--faults", "L1:gremlins"]) == 1
        assert "unknown fault" in capsys.readouterr().err

    def test_report_json_written(self, tmp_path, capsys):
        report_file = tmp_path / "rollout.json"
        assert main(self.BASE + ["--report", str(report_file)]) == 0
        blob = json.loads(report_file.read_text())
        assert blob["outcome"] == "converged"
        assert blob["certificate"]["ok"] is True

    def test_chaos_sweep_exits_0(self, capsys):
        code = main(
            self.BASE
            + ["--chaos", "25", "--fault-rate", "0.4", "--stuck-prob", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos sweep: 25 run(s)" in out
        assert "certified plan" in out


class TestSelfcheck:
    """Exit-code contract: 0 clean, 1 errors/IO, 2 strict warnings,
    3 allowlist integrity — mirroring deploy's 0/1/2/3 discipline."""

    EMPTY_ALLOWLIST = '{"version": 1, "entries": []}'

    def tree(self, tmp_path, files):
        import textwrap

        root = tmp_path / "repro"
        for relative, source in files.items():
            path = root / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        allow = tmp_path / "allow.json"
        allow.write_text(self.EMPTY_ALLOWLIST)
        return ["--root", str(root), "--allowlist", str(allow)]

    CLEAN = {"__init__.py": "", "core/__init__.py": ""}
    DIRTY = {
        "__init__.py": "",
        "core/__init__.py": "",
        "core/engine.py": "import time\n\ndef f():\n    return time.time()\n",
    }
    WARN = {
        "__init__.py": "",
        "core/__init__.py": "",
        "core/t.py": "import time\n\ndef f():\n    return time.perf_counter()\n",
    }

    def test_committed_tree_is_clean(self, capsys):
        assert main(["selfcheck", "--strict"]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_clean_tree_exits_0(self, tmp_path, capsys):
        assert main(["selfcheck", *self.tree(tmp_path, self.CLEAN)]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_errors_exit_1(self, tmp_path, capsys):
        assert main(["selfcheck", *self.tree(tmp_path, self.DIRTY)]) == 1
        out = capsys.readouterr().out
        assert "DIRTY" in out
        assert "DET001" in out

    def test_strict_warnings_exit_2(self, tmp_path, capsys):
        base = self.tree(tmp_path, self.WARN)
        assert main(["selfcheck", *base]) == 0
        capsys.readouterr()
        assert main(["selfcheck", *base, "--strict"]) == 2
        assert "DET005" in capsys.readouterr().out

    def test_stale_allowlist_exits_3(self, tmp_path, capsys):
        base = self.tree(tmp_path, self.CLEAN)
        allow = tmp_path / "allow.json"
        allow.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "code": "DET005",
                            "module": "repro.core.gone",
                            "symbol": None,
                            "justification": "module was deleted long ago",
                        }
                    ],
                }
            )
        )
        assert main(["selfcheck", *base]) == 3
        err = capsys.readouterr().err
        assert "allowlist integrity failure" in err
        assert "stale" in err

    def test_unjustified_allowlist_exits_3(self, tmp_path, capsys):
        base = self.tree(tmp_path, self.WARN)
        allow = tmp_path / "allow.json"
        allow.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "code": "DET005",
                            "module": "repro.core.t",
                            "symbol": "f",
                            "justification": "",
                        }
                    ],
                }
            )
        )
        assert main(["selfcheck", *base]) == 3
        assert "justification" in capsys.readouterr().err

    def test_json_and_out_reports_written(self, tmp_path, capsys):
        base = self.tree(tmp_path, self.WARN)
        json_path = tmp_path / "report.json"
        out_path = tmp_path / "report.txt"
        code = main(
            ["selfcheck", *base, "--json", str(json_path), "--out",
             str(out_path)]
        )
        assert code == 0
        blob = json.loads(json_path.read_text())
        assert blob["ok"] is True
        assert blob["counts"]["warning"] == 1
        assert blob["findings"][0]["code"] == "DET005"
        assert "DET005" in out_path.read_text()

    def test_unwritable_json_exits_1_without_traceback(self, tmp_path, capsys):
        base = self.tree(tmp_path, self.CLEAN)
        code = main(
            ["selfcheck", *base, "--json", str(tmp_path / "no" / "dir.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_missing_allowlist_exits_1(self, tmp_path, capsys):
        root = self.tree(tmp_path, self.CLEAN)[1]
        code = main(
            ["selfcheck", "--root", root, "--allowlist",
             str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_allowlist_exits_1(self, tmp_path, capsys):
        root = self.tree(tmp_path, self.CLEAN)[1]
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["selfcheck", "--root", root, "--allowlist", str(bad)])
        assert code == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_telemetry_stream_written(self, tmp_path, capsys):
        from repro.obs import aggregate_jsonl

        base = self.tree(tmp_path, self.WARN)
        stream = tmp_path / "events.jsonl"
        assert main(["selfcheck", *base, "--telemetry", str(stream)]) == 0
        aggregate = aggregate_jsonl(str(stream))
        assert aggregate["by_kind"]["selfcheck.finding"] == 1
        assert aggregate["by_kind"]["selfcheck.run"] == 1
