#!/usr/bin/env python3
"""Generate docs/API.md — a one-line-per-symbol public API reference.

Walks every ``repro`` subpackage, collects the public names each module's
``__all__`` (or underscore convention) exposes, and emits their signature
plus the first docstring line. Run from the repository root::

    python tools/gen_api_docs.py

``tests/perf/test_bench_layout.py`` fails while ``render()`` differs
from the committed file.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

PACKAGES = [
    "repro",
    "repro.core",
    "repro.topology",
    "repro.routing",
    "repro.simulator",
    "repro.analysis",
    "repro.measurement",
    "repro.workloads",
    "repro.potential",
    "repro.replay",
    "repro.cli",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n")[0] if doc else ""


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def describe(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    rows = []
    for name in sorted(set(names)):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        kind = (
            "class"
            if inspect.isclass(obj)
            else "function"
            if callable(obj)
            else "constant"
        )
        sig = signature_of(obj) if kind == "function" else ""
        rows.append((name, kind, sig, first_line(obj)))
    return rows


def render() -> str:
    out = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by hand.",
        "",
    ]
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        out.append(f"## `{package_name}`")
        out.append("")
        doc = first_line(module)
        if doc:
            out.append(doc)
            out.append("")
        for name, kind, sig, summary in describe(module):
            rendered = f"- **`{name}{sig}`** ({kind})"
            if summary:
                rendered += f" — {summary}"
            out.append(rendered)
        out.append("")
    return "\n".join(out) + "\n"


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    # Document the checkout's own source, installed or not.
    source = str(root / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    path = root / "docs" / "API.md"
    text = render()
    path.write_text(text)
    print(f"wrote {path} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
