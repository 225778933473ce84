"""The self-check diagnostic model: catalog, rendering, report."""

import json
import pathlib
import re

import pytest

from repro.devcheck import (
    CATALOG,
    FAMILIES,
    SelfCheckReport,
    Severity,
    make_finding,
)

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs" / "SELFCHECK.md"


class TestCatalog:
    def test_families_and_format(self):
        for code, info in CATALOG.items():
            assert re.fullmatch(r"(DET|PUR)\d{3}", code)
            assert code[:3] in FAMILIES
            assert info.code == code
            assert info.title and info.summary
            assert info.default_severity in (Severity.ERROR, Severity.WARNING)

    def test_every_family_has_codes(self):
        for family in FAMILIES:
            assert any(code.startswith(family) for code in CATALOG)

    def test_docs_catalog_never_drifts(self):
        """Every code is documented, and nothing undocumented exists."""
        documented = set(
            re.findall(r"^### (\w{3}\d{3})", DOCS.read_text(), re.M)
        )
        assert documented == set(CATALOG)

    def test_codes_disjoint_from_lint_catalog(self):
        from repro.lint import CATALOG as LINT_CATALOG

        assert not set(CATALOG) & set(LINT_CATALOG)


class TestFinding:
    def test_severity_defaults_from_catalog(self):
        finding = make_finding("DET001", "boom", "repro.core.x", 10)
        assert finding.severity is Severity.ERROR
        assert finding.title == "wall-clock-or-entropy-read"
        warn = make_finding("DET005", "tick", "repro.core.x", 11)
        assert warn.severity is Severity.WARNING

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            make_finding("XXX999", "no such family", "repro.core.x", 1)

    def test_render_includes_anchor(self):
        finding = make_finding(
            "DET003", "boom", "repro.deploy.verifier", 78, symbol="mixed_tables"
        )
        assert finding.render() == (
            "error: DET003 unordered-set-iteration "
            "[repro.deploy.verifier:78 in mixed_tables]: boom"
        )

    def test_module_level_anchor_has_no_symbol(self):
        finding = make_finding("DET004", "boom", "repro.core.x", 3)
        assert finding.anchor() == "repro.core.x:3"

    def test_allowlisted_render_suffix(self):
        from dataclasses import replace

        finding = replace(
            make_finding("DET005", "tick", "repro.core.planner", 66),
            allowlisted=True,
        )
        assert finding.render().endswith("(allowlisted)")


class TestSelfCheckReport:
    def test_ok_ignores_warnings(self):
        report = SelfCheckReport()
        report.extend([make_finding("DET005", "tick", "repro.core.x", 9)])
        assert report.ok
        assert report.warnings and not report.errors

    def test_errors_flip_ok(self):
        report = SelfCheckReport()
        report.extend([make_finding("PUR101", "write", "repro.obs.x", 4)])
        assert not report.ok

    def test_allowlisted_findings_do_not_count(self):
        from dataclasses import replace

        report = SelfCheckReport()
        report.extend(
            [
                replace(
                    make_finding("DET001", "clock", "repro.core.x", 2),
                    allowlisted=True,
                )
            ]
        )
        assert report.ok
        assert not report.errors
        assert len(report.allowlisted) == 1
        assert "1 allowlisted" in report.summary()

    def test_summary_counts_by_code(self):
        report = SelfCheckReport()
        report.extend(
            [
                make_finding("DET003", "a", "repro.core.x", 1),
                make_finding("DET003", "b", "repro.core.y", 2),
                make_finding("PUR101", "c", "repro.obs.z", 3),
            ]
        )
        assert report.by_code() == {"DET003": 2, "PUR101": 1}
        assert "DET003x2" in report.summary()
        assert report.summary().startswith("DIRTY")

    def test_clean_summary(self):
        assert SelfCheckReport().summary() == (
            "CLEAN: 0 error(s), 0 warning(s), 0 allowlisted"
        )

    def test_sort_is_stable_by_module_line_code(self):
        report = SelfCheckReport()
        report.extend(
            [
                make_finding("DET004", "z", "repro.core.b", 9),
                make_finding("DET003", "a", "repro.core.a", 9),
                make_finding("DET001", "a", "repro.core.a", 2),
            ]
        )
        report.sort()
        assert [(f.module, f.line) for f in report.findings] == [
            ("repro.core.a", 2),
            ("repro.core.a", 9),
            ("repro.core.b", 9),
        ]

    def test_to_dict_is_json_serializable(self):
        report = SelfCheckReport(stats={"files": 3})
        report.extend(
            [make_finding("DET001", "clock", "repro.core.x", 7, symbol="f")]
        )
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["ok"] is False
        assert blob["counts"]["error"] == 1
        assert blob["counts"]["by_code"] == {"DET001": 1}
        assert blob["stats"]["files"] == 3
        assert blob["findings"][0]["code"] == "DET001"
        assert blob["findings"][0]["symbol"] == "f"
