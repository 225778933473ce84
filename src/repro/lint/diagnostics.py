"""Diagnostic model for the deployment linter.

Every finding carries a stable code (``T001``, ``S101``, ...), a
severity, and a source location (switch + rule/entry key) so tools and
humans can consume the same report. :data:`CATALOG` is the single source
of truth for the code space — ``docs/LINTING.md`` documents each entry
and the test suite asserts the two never drift apart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple


class Severity(enum.Enum):
    """How bad a finding is; ``ERROR`` fails CI."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CodeInfo:
    """Catalog entry for one diagnostic code."""

    code: str
    title: str
    default_severity: Severity
    summary: str


#: The complete diagnostic code space. Codes are grouped by family:
#: ``T`` tagged-graph safety, ``S`` TCAM order semantics, ``R``
#: reachability, ``B`` budgets and queue fit.
CATALOG: Dict[str, CodeInfo] = {
    info.code: info
    for info in (
        CodeInfo(
            "T001",
            "cycle-in-tag-subgraph",
            Severity.ERROR,
            "A same-tag subgraph of the effective tagged graph contains a "
            "directed cycle (requirement R1 of Theorem 5.1 fails).",
        ),
        CodeInfo(
            "T002",
            "tag-decreasing-rule",
            Severity.ERROR,
            "A rule rewrites a packet to a smaller lossless tag "
            "(requirement R2, tag monotonicity, fails).",
        ),
        CodeInfo(
            "T003",
            "invalid-tag",
            Severity.ERROR,
            "A rule matches or produces a tag outside the valid range "
            "(negative, or matching the lossy sentinel).",
        ),
        CodeInfo(
            "T004",
            "unknown-port",
            Severity.ERROR,
            "A rule references a switch or port number that does not "
            "exist in the topology.",
        ),
        CodeInfo(
            "S101",
            "shadowed-entry",
            Severity.ERROR,
            "A TCAM entry is fully covered by a single earlier entry and "
            "can never fire; error when the earlier entry rewrites "
            "differently, warning when it is merely redundant.",
        ),
        CodeInfo(
            "S102",
            "conflicting-overlap",
            Severity.WARNING,
            "Two TCAM entries partially overlap with different rewrites; "
            "first-match order silently decides the winner.",
        ),
        CodeInfo(
            "S103",
            "unreachable-entry",
            Severity.WARNING,
            "A TCAM entry is covered by the union of earlier entries "
            "(though by no single one) and can never fire.",
        ),
        CodeInfo(
            "S104",
            "roundtrip-mismatch",
            Severity.ERROR,
            "The ordered TCAM program's first-match semantics disagree "
            "with the switch's exact-match reference rules.",
        ),
        CodeInfo(
            "S105",
            "missing-safeguard",
            Severity.ERROR,
            "The TCAM program does not end with a catch-all entry that "
            "demotes unmatched packets to the lossy class.",
        ),
        CodeInfo(
            "R201",
            "dead-rule",
            Severity.WARNING,
            "A (tag, ingress-port) match state is unreachable from every "
            "host injection point; every rule under it is dead and can "
            "never fire.",
        ),
        CodeInfo(
            "R202",
            "unreachable-tag",
            Severity.INFO,
            "A tag mentioned by the rules or the queue map is never "
            "carried by any reachable packet state.",
        ),
        CodeInfo(
            "R203",
            "lossy-dead-end",
            Severity.WARNING,
            "A reachable packet state has no lossless continuation and no "
            "local host delivery: packets there can only proceed via "
            "lossy demotion.",
        ),
        CodeInfo(
            "B301",
            "tcam-budget-exceeded",
            Severity.ERROR,
            "A switch's compressed TCAM program exceeds the per-switch "
            "entry budget.",
        ),
        CodeInfo(
            "B302",
            "queue-unfit",
            Severity.ERROR,
            "A live lossless tag is not mapped to a lossless priority "
            "queue; its packets would silently become droppable.",
        ),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding with a stable code and a source location.

    ``switch`` is ``None`` for fabric-wide findings; ``location`` is a
    human-readable anchor (a rule key, a TCAM entry index, a tag...).
    """

    code: str
    severity: Severity
    message: str
    switch: Optional[str] = None
    location: Optional[str] = None

    @property
    def title(self) -> str:
        return CATALOG[self.code].title

    def render(self) -> str:
        where = ""
        if self.switch is not None and self.location is not None:
            where = f" [{self.switch} @ {self.location}]"
        elif self.switch is not None:
            where = f" [{self.switch}]"
        elif self.location is not None:
            where = f" [{self.location}]"
        return f"{self.severity}: {self.code} {self.title}{where}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "title": self.title,
            "severity": str(self.severity),
            "switch": self.switch,
            "location": self.location,
            "message": self.message,
        }


def make_diagnostic(
    code: str,
    message: str,
    switch: Optional[str] = None,
    location: Optional[str] = None,
    severity: Optional[Severity] = None,
) -> Diagnostic:
    """Build a diagnostic, defaulting severity from the catalog."""
    info = CATALOG[code]
    return Diagnostic(
        code=code,
        severity=severity if severity is not None else info.default_severity,
        message=message,
        switch=switch,
        location=location,
    )


#: Stands for the switch's name in a finding built before it is known:
#: one lint section serves every switch that holds its content.
THIS_SWITCH = "<this switch>"


def stamp(diagnostics: Iterable[Diagnostic], switch: str) -> List[Diagnostic]:
    """A section's findings, reported as ``switch``'s own."""
    return [
        replace(
            d,
            switch=switch,
            message=d.message.replace(THIS_SWITCH, repr(switch)),
        )
        for d in diagnostics
    ]


@dataclass
class LintReport:
    """Machine- and human-readable outcome of one lint run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Clean for CI purposes: no error-severity findings."""
        return not self.errors

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.code] = counts.get(diag.code, 0) + 1
        return dict(sorted(counts.items()))

    def codes(self) -> Tuple[str, ...]:
        return tuple(sorted({d.code for d in self.diagnostics}))

    def extend(self, diagnostics: List[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def summary(self) -> str:
        verdict = "CLEAN" if self.ok else "DIRTY"
        per_code = ", ".join(
            f"{code}x{count}" for code, count in self.by_code().items()
        )
        return (
            f"{verdict}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.diagnostics) - len(self.errors) - len(self.warnings)} "
            f"info" + (f" [{per_code}]" if per_code else "")
        )

    def render_text(self) -> str:
        lines = [diag.render() for diag in self.diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "info": len(self.diagnostics)
                - len(self.errors)
                - len(self.warnings),
                "by_code": self.by_code(),
            },
            "stats": dict(sorted(self.stats.items())),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
