"""Repo self-check: static certification of reproducibility invariants.

``repro.devcheck`` is an AST-based analyzer (stdlib ``ast`` only) that
walks ``src/repro/**`` and certifies, at CI time, the invariants the
dynamic suites only sample:

- **DET** — determinism: no wall-clock/entropy reads or unseeded RNG in
  the deterministic packages; no unordered-set iteration feeding
  ordered output; no builtin ``hash()`` ordering;
- **PUR** — observer purity: ``repro.obs`` reads observed objects but
  never mutates them.

Run it as ``repro-tagger selfcheck``; audited exceptions live in
``allowlist.json`` next to this file. The full catalog, and the seeded
faults that justify keeping each family, are documented in
``docs/SELFCHECK.md``.
"""

from repro.devcheck.allowlist import (
    DEFAULT_ALLOWLIST,
    AllowlistEntry,
    AllowlistError,
    apply_allowlist,
    load_allowlist,
)
from repro.devcheck.det_checks import check_determinism
from repro.devcheck.diagnostics import (
    CATALOG,
    FAMILIES,
    CodeInfo,
    Finding,
    SelfCheckReport,
    Severity,
    make_finding,
)
from repro.devcheck.pur_checks import check_purity
from repro.devcheck.runner import (
    check_module,
    default_root,
    run_selfcheck,
    severity_exit_code,
)
from repro.devcheck.sources import (
    ImportMap,
    ModuleSource,
    SelfCheckError,
    discover_modules,
    parse_module,
)

__all__ = [
    "CATALOG",
    "DEFAULT_ALLOWLIST",
    "FAMILIES",
    "AllowlistEntry",
    "AllowlistError",
    "CodeInfo",
    "Finding",
    "ImportMap",
    "ModuleSource",
    "SelfCheckError",
    "SelfCheckReport",
    "Severity",
    "apply_allowlist",
    "check_determinism",
    "check_module",
    "check_purity",
    "default_root",
    "discover_modules",
    "load_allowlist",
    "make_finding",
    "parse_module",
    "run_selfcheck",
    "severity_exit_code",
]
