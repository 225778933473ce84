"""Deployment linter: static certification of compiled Tagger artifacts.

The analyses here run on what actually ships to switches — per-switch
``(tag, in_port, out_port) -> new_tag`` rule tables, wildcard-compressed
TCAM programs, and tag -> queue maps — and certify deadlock freedom and
deployment hygiene *independently of the planner* that produced them.
See ``docs/LINTING.md`` for the diagnostic code catalog.
"""

from repro.lint.artifact import DeploymentArtifact
from repro.lint.diagnostics import (
    CATALOG,
    CodeInfo,
    Diagnostic,
    LintReport,
    Severity,
    make_diagnostic,
)
from repro.lint.linter import (
    LintSections,
    lint_artifact,
    lint_plan,
    lint_tables,
)

__all__ = [
    "CATALOG",
    "CodeInfo",
    "DeploymentArtifact",
    "Diagnostic",
    "LintReport",
    "LintSections",
    "Severity",
    "lint_artifact",
    "lint_plan",
    "lint_tables",
    "make_diagnostic",
]
