"""The self-check runner: walk ``src/repro/**``, run every family.

:func:`run_selfcheck` is the programmatic entry point behind
``repro-tagger selfcheck``. It discovers the package sources, runs the
two checker families (DET/PUR) over every module, applies the
committed allowlist, and returns a
:class:`~repro.devcheck.diagnostics.SelfCheckReport` whose exit-code
mapping mirrors the deployment linter's.

The analyzer analyzes itself: ``repro.devcheck`` is part of the tree it
walks, so a nondeterministic construct introduced *here* fails CI like
anywhere else.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional, Sequence

import repro
from repro.devcheck.allowlist import (
    DEFAULT_ALLOWLIST,
    AllowlistEntry,
    AllowlistError,
    apply_allowlist,
    load_allowlist,
)
from repro.devcheck.det_checks import check_determinism
from repro.devcheck.diagnostics import Finding, SelfCheckReport, Severity
from repro.devcheck.pur_checks import check_purity
from repro.devcheck.sources import ModuleSource, discover_modules

Checker = Callable[[ModuleSource], List[Finding]]

#: The two families, in catalog order.
CHECKERS: Sequence[Checker] = (check_determinism, check_purity)


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(repro.__file__).resolve().parent


def check_module(unit: ModuleSource) -> List[Finding]:
    """Run every checker family over one parsed module."""
    findings: List[Finding] = []
    for checker in CHECKERS:
        findings.extend(checker(unit))
    return findings


def run_selfcheck(
    root: Optional[Path] = None,
    allowlist_path: Optional[Path] = None,
    package: str = "repro",
) -> SelfCheckReport:
    """Analyze a package tree and apply the allowlist.

    ``allowlist_path=None`` uses the committed default when it exists;
    an explicitly given path must exist (surfacing ``OSError`` to the
    caller). Stale or unjustified allowlist entries raise
    :class:`AllowlistError` — the integrity failure the CLI maps to
    exit 3.
    """
    root = root if root is not None else default_root()
    units = discover_modules(root, package=package)
    findings: List[Finding] = []
    for unit in units:
        findings.extend(check_module(unit))

    entries: List[AllowlistEntry] = []
    if allowlist_path is not None:
        entries = load_allowlist(allowlist_path)
    elif DEFAULT_ALLOWLIST.is_file():
        entries = load_allowlist(DEFAULT_ALLOWLIST)
    findings, stale = apply_allowlist(findings, entries)
    if stale:
        described = "; ".join(entry.describe() for entry in stale)
        raise AllowlistError(
            f"stale allowlist entr{'y' if len(stale) == 1 else 'ies'} "
            f"(no matching finding — delete or fix): {described}"
        )

    report = SelfCheckReport(findings=findings)
    report.sort()
    report.stats["files"] = len(units)
    report.stats["allowlist_entries"] = len(entries)
    report.stats["findings"] = len(findings)
    report.stats["errors"] = len(report.errors)
    report.stats["warnings"] = len(report.warnings)
    report.stats["allowlisted"] = len(report.allowlisted)
    return report


def severity_exit_code(report: SelfCheckReport, strict: bool = False) -> int:
    """Map a report to the CLI exit-code contract (0/1/2)."""
    if not report.ok:
        return 1
    if strict and report.warnings:
        return 2
    return 0


__all__ = [
    "CHECKERS",
    "Severity",
    "check_module",
    "default_root",
    "run_selfcheck",
    "severity_exit_code",
]
