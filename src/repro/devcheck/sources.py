"""Source discovery and shared AST machinery for the self-check.

The analyzer works on plain :mod:`ast` trees — no imports of the code
under analysis, no new dependencies. :func:`discover_modules` walks a
package directory into :class:`ModuleSource` units; :class:`ImportMap`
resolves local names back to fully-qualified dotted paths so checkers
can recognize ``from time import time as now`` as well as
``time.time``; :class:`BaseChecker` carries the scope bookkeeping
(enclosing class/function qualname) every checker family shares.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.devcheck.diagnostics import Finding, make_finding
from repro.exceptions import ReproError


class SelfCheckError(ReproError):
    """A source file could not be read or parsed."""


@dataclass(frozen=True)
class ModuleSource:
    """One parsed module under analysis."""

    module: str
    path: Path
    tree: ast.Module


def module_name(root: Path, path: Path, package: str) -> str:
    """Dotted module name of ``path`` relative to the package root."""
    relative = path.relative_to(root)
    parts = list(relative.parts)
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join([package, *parts]) if parts else package


def parse_module(root: Path, path: Path, package: str) -> ModuleSource:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        raise SelfCheckError(f"cannot analyze {path}: {exc}") from exc
    return ModuleSource(
        module=module_name(root, path, package), path=path, tree=tree
    )


def discover_modules(root: Path, package: str = "repro") -> List[ModuleSource]:
    """Parse every ``*.py`` under ``root`` into analysis units, sorted.

    ``root`` must be the package directory itself: module names are
    ``package`` plus the path below ``root``, so the checkers' package
    scoping (DET's restricted packages, PUR's ``repro.obs``) would
    silently match nothing under a parent directory.
    """
    if not (root / "__init__.py").is_file():
        raise SelfCheckError(
            f"not a package directory (no __init__.py): {root}"
        )
    return [
        parse_module(root, path, package)
        for path in sorted(root.rglob("*.py"))
    ]


class ImportMap:
    """Local name -> fully-qualified dotted path, from import statements."""

    def __init__(self, tree: ast.Module) -> None:
        self.names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    self.names[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:  # relative import: stays package-local
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Fully-qualified dotted name of an expression, if resolvable.

        ``datetime.now`` with ``from datetime import datetime`` in scope
        resolves to ``datetime.datetime.now``; unresolvable shapes
        (calls, subscripts, locals) return ``None``.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        head = self.names.get(parts[0])
        if head is not None:
            parts[0] = head
        return ".".join(parts)


def root_name(node: ast.expr) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, if any.

    Descending through a :class:`ast.Call` returns ``None``: a call
    result is a fresh object, not an alias of the receiver.
    """
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


class BaseChecker(ast.NodeVisitor):
    """Findings accumulator with enclosing-symbol tracking."""

    def __init__(self, unit: ModuleSource, imports: ImportMap) -> None:
        self.unit = unit
        self.imports = imports
        self.findings: List[Finding] = []
        self._scope: List[str] = []

    # ------------------------------------------------------------------
    # Scope bookkeeping
    # ------------------------------------------------------------------
    @property
    def symbol(self) -> Optional[str]:
        return ".".join(self._scope) if self._scope else None

    def _visit_scoped(self, node: ast.AST, name: str) -> None:
        self._scope.append(name)
        try:
            self.generic_visit(node)
        finally:
            self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scoped(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scoped(node, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scoped(node, node.name)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def add(self, code: str, message: str, node: ast.AST) -> None:
        self.findings.append(
            make_finding(
                code,
                message,
                module=self.unit.module,
                line=getattr(node, "lineno", 0),
                symbol=self.symbol,
            )
        )

    def run(self) -> List[Finding]:
        self.visit(self.unit.tree)
        return self.findings
