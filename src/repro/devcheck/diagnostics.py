"""Diagnostic model for the repo self-check analyzer.

Mirrors :mod:`repro.lint.diagnostics` deliberately, and shares its
catalog entry (``CodeInfo``) and ``Severity``: every finding
carries a stable code (``DET001``, ``PUR101``, ...), a severity, and a
source location (module + line + enclosing symbol) so tools and humans
consume the same report. :data:`CATALOG` is the single source of truth
for the code space — ``docs/SELFCHECK.md`` documents each entry and the
test suite asserts the two never drift apart.

Where the deployment linter certifies *artifacts* (rule tables, TCAM
programs), the self-check certifies the *codebase*: the determinism
and observer-purity invariants every dynamic test suite in this repo
assumes are enforced here statically, at CI time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.diagnostics import CodeInfo, Severity


#: The complete self-check code space, grouped by family: ``DET``
#: determinism, ``PUR`` observer purity.
CATALOG: Dict[str, CodeInfo] = {
    info.code: info
    for info in (
        CodeInfo(
            "DET001",
            "wall-clock-or-entropy-read",
            Severity.ERROR,
            "Deterministic code (core/simulator/fuzz/deploy) reads the "
            "wall clock or the OS entropy pool (time.time, datetime.now, "
            "os.urandom, uuid4, secrets...). Replans, verdicts and fuzz "
            "repro all assume plan bytes are a pure function of inputs.",
        ),
        CodeInfo(
            "DET002",
            "unseeded-rng",
            Severity.ERROR,
            "Deterministic code draws from the process-global random "
            "module (or numpy.random) instead of an explicitly seeded "
            "random.Random(seed) instance.",
        ),
        CodeInfo(
            "DET003",
            "unordered-set-iteration",
            Severity.ERROR,
            "An unordered set value (set(...) call, set literal, set "
            "union/intersection...) feeds an ordered construct — a for "
            "loop, list()/tuple()/enumerate(), str.join — without an "
            "enclosing sorted(...). Iteration order then depends on "
            "hash seeding and insertion history.",
        ),
        CodeInfo(
            "DET004",
            "builtin-hash-ordering",
            Severity.ERROR,
            "A call to builtin hash(): str/bytes hashes are salted per "
            "process (PYTHONHASHSEED), so any ordering or output derived "
            "from them differs between runs.",
        ),
        CodeInfo(
            "DET005",
            "wall-clock-timing-read",
            Severity.WARNING,
            "Deterministic code reads a monotonic/perf timer. Timing "
            "attribution is observability, not plan input — audited uses "
            "belong in the allowlist with a justification.",
        ),
        CodeInfo(
            "PUR101",
            "observer-mutates-observed",
            Severity.ERROR,
            "Observability code assigns an attribute or item of an "
            "observed object (a parameter other than the bus/registry/"
            "telemetry sinks). Observers must read, never write — the "
            "zero-perturbation guarantee depends on it.",
        ),
        CodeInfo(
            "PUR102",
            "observer-calls-mutator",
            Severity.ERROR,
            "Observability code calls a known mutator (append/add/update/"
            "pop/...) on an observed object. A fabric must run "
            "byte-identically with or without telemetry attached.",
        ),
        CodeInfo(
            "PUR103",
            "observer-writes-module-global",
            Severity.ERROR,
            "Observability code declares `global` to write module state. "
            "Hidden module globals leak across runs and across forked "
            "workers.",
        ),
    )
}

#: Families, in report order.
FAMILIES: Tuple[str, ...] = ("DET", "PUR")


@dataclass(frozen=True)
class Finding:
    """One self-check finding anchored to a source location.

    ``module`` is the dotted module name (``repro.deploy.verifier``),
    ``symbol`` the enclosing class/function qualname (``None`` at
    module level). ``allowlisted`` findings stay in the report for
    auditability but do not count toward the exit code.
    """

    code: str
    severity: Severity
    message: str
    module: str
    line: int
    symbol: Optional[str] = None
    allowlisted: bool = False

    @property
    def title(self) -> str:
        return CATALOG[self.code].title

    def anchor(self) -> str:
        where = f"{self.module}:{self.line}"
        if self.symbol is not None:
            where += f" in {self.symbol}"
        return where

    def render(self) -> str:
        suffix = " (allowlisted)" if self.allowlisted else ""
        return (
            f"{self.severity}: {self.code} {self.title} "
            f"[{self.anchor()}]: {self.message}{suffix}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "title": self.title,
            "severity": str(self.severity),
            "module": self.module,
            "line": self.line,
            "symbol": self.symbol,
            "allowlisted": self.allowlisted,
            "message": self.message,
        }


def make_finding(
    code: str,
    message: str,
    module: str,
    line: int,
    symbol: Optional[str] = None,
) -> Finding:
    """Build a finding with the catalog's severity for ``code``."""
    return Finding(
        code=code,
        severity=CATALOG[code].default_severity,
        message=message,
        module=module,
        line=line,
        symbol=symbol,
    )


@dataclass
class SelfCheckReport:
    """Machine- and human-readable outcome of one self-check run.

    Exit-code semantics (``ok``/``errors``/``warnings``) consider only
    *active* (non-allowlisted) findings; allowlisted ones remain
    visible in the rendered report and the JSON export.
    """

    findings: List[Finding] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Clean for CI purposes: no active error-severity findings."""
        return not self.errors

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if not f.allowlisted]

    @property
    def allowlisted(self) -> List[Finding]:
        return [f for f in self.findings if f.allowlisted]

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.active if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.active if f.severity is Severity.WARNING]

    def by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.active:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))

    def extend(self, findings: List[Finding]) -> None:
        self.findings.extend(findings)

    def sort(self) -> None:
        """Stable report order: module, line, code."""
        self.findings.sort(key=lambda f: (f.module, f.line, f.code))

    def summary(self) -> str:
        verdict = "CLEAN" if self.ok else "DIRTY"
        per_code = ", ".join(
            f"{code}x{count}" for code, count in self.by_code().items()
        )
        suffix = f" [{per_code}]" if per_code else ""
        return (
            f"{verdict}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.allowlisted)} allowlisted" + suffix
        )

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "allowlisted": len(self.allowlisted),
                "by_code": self.by_code(),
            },
            "stats": dict(sorted(self.stats.items())),
            "findings": [f.to_dict() for f in self.findings],
        }
