"""The runner end to end: tree walks, allowlisting, the golden report.

The golden snapshot freezes the self-check verdict for the real
``src/repro`` tree — every finding, counted per ``(code, module,
symbol)``. Any new finding (or a vanished allowlisted one) shows up as
a readable diff in review. Regenerate intentionally with::

    PYTHONPATH=src python -m pytest tests/devcheck --update-golden
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.devcheck import (
    AllowlistError,
    run_selfcheck,
    severity_exit_code,
)

GOLDEN = Path(__file__).parent / "selfcheck-report.json"

EMPTY_ALLOWLIST = '{"version": 1, "entries": []}'


@pytest.fixture
def empty_allowlist(tmp_path):
    path = tmp_path / "empty-allowlist.json"
    path.write_text(EMPTY_ALLOWLIST, encoding="utf-8")
    return path


class TestTreeWalk:
    def test_clean_tree(self, fixture_tree, empty_allowlist):
        root = fixture_tree(
            {
                "__init__.py": "",
                "core/__init__.py": "",
                "core/planner.py": """
                    import random

                    def plan(scenarios, seed):
                        rng = random.Random(seed)
                        return sorted(scenarios, key=lambda s: rng.random())
                    """,
            }
        )
        report = run_selfcheck(root=root, allowlist_path=empty_allowlist)
        assert report.ok
        assert report.findings == []
        assert report.stats["files"] == 3
        assert severity_exit_code(report) == 0

    def test_violations_across_families(self, fixture_tree, empty_allowlist):
        root = fixture_tree(
            {
                "__init__.py": "",
                "core/__init__.py": "",
                "core/engine.py": """
                    import time

                    def stamp():
                        return time.time()
                    """,
                "obs/__init__.py": "",
                "obs/probe.py": """
                    def on_plan(bus, plan):
                        plan.seen = True
                    """,
            }
        )
        report = run_selfcheck(root=root, allowlist_path=empty_allowlist)
        assert not report.ok
        assert report.by_code() == {"DET001": 1, "PUR101": 1}
        assert severity_exit_code(report) == 1
        # Report order is (module, line, code) — deterministic.
        modules = [f.module for f in report.findings]
        assert modules == sorted(modules)

    def test_syntax_error_is_repro_error(self, fixture_tree, empty_allowlist):
        from repro.devcheck import SelfCheckError

        root = fixture_tree({"__init__.py": "", "bad.py": "def broken(:\n"})
        with pytest.raises(SelfCheckError, match="bad.py"):
            run_selfcheck(root=root, allowlist_path=empty_allowlist)


class TestAllowlistIntegration:
    def tree_with_warning(self, fixture_tree):
        return fixture_tree(
            {
                "__init__.py": "",
                "core/__init__.py": "",
                "core/timer.py": """
                    import time

                    def attribute():
                        return time.perf_counter()
                    """,
            }
        )

    def test_matching_entry_silences_warning(self, fixture_tree, tmp_path):
        root = self.tree_with_warning(fixture_tree)
        allow = tmp_path / "allow.json"
        allow.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "code": "DET005",
                            "module": "repro.core.timer",
                            "symbol": "attribute",
                            "justification": "observability-only timing",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        report = run_selfcheck(root=root, allowlist_path=allow)
        assert report.ok
        assert not report.warnings
        assert len(report.allowlisted) == 1
        assert severity_exit_code(report, strict=True) == 0

    def test_stale_entry_fails_integrity(self, fixture_tree, tmp_path):
        root = self.tree_with_warning(fixture_tree)
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
                            "justification": "this module no longer exists",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(AllowlistError, match="stale"):
            run_selfcheck(root=root, allowlist_path=allow)

    def test_unallowlisted_warning_strict_exit(
        self, fixture_tree, empty_allowlist
    ):
        root = self.tree_with_warning(fixture_tree)
        report = run_selfcheck(root=root, allowlist_path=empty_allowlist)
        assert report.ok
        assert len(report.warnings) == 1
        assert severity_exit_code(report, strict=False) == 0
        assert severity_exit_code(report, strict=True) == 2


def golden_view(report):
    """``ok`` plus a ``code module symbol -> count`` map: no line numbers
    or file counts, so edits elsewhere in a file never churn it."""
    counts = Counter(
        f"{f.code} {f.module} {f.symbol}" for f in report.findings
    )
    return {"ok": report.ok, "findings": dict(counts)}


@pytest.fixture(scope="class")
def real_report():
    """The shipped tree, walked once for every test in the class."""
    return run_selfcheck()


class TestRealTree:
    def test_src_repro_is_clean(self, real_report):
        """The acceptance gate: the shipped tree passes its own check."""
        report = real_report
        assert report.ok
        assert not report.active, [f.render() for f in report.active]
        # Every audited exception is visible, none active.
        assert report.allowlisted, "expected audited DET005 exceptions"
        assert severity_exit_code(report, strict=True) == 0

    def test_analyzer_walks_itself(self, real_report):
        assert real_report.stats["files"] > 50

    def test_golden_full_repo_report(self, request, real_report):
        rendered = json.dumps(
            golden_view(real_report), indent=2, sort_keys=True
        )
        rendered += "\n"
        if request.config.getoption("--update-golden"):
            GOLDEN.write_text(rendered)
        assert GOLDEN.exists(), (
            "golden self-check report missing; regenerate with "
            "pytest tests/devcheck --update-golden"
        )
        assert rendered == GOLDEN.read_text(), (
            "self-check report diverged from the committed golden "
            "snapshot; if the new finding/allowlist state is "
            "intentional, rerun with --update-golden"
        )
