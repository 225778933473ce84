"""Structure of the fast simulator stack: one implementation per behaviour.

The wheel stack used to carry three to five hand-inlined copies of
start-transmit, egress enqueue and ingress charge/release, each reaching
into another object's ``_private`` fields. These AST checks keep the
copies from growing back: a foreign ``_private`` access is how an
inlined transcription of someone else's method shows up in the source.
"""

import ast
from pathlib import Path

SIM_DIR = Path(__file__).parents[2] / "src" / "repro" / "simulator"
STACK_FILES = ("switch.py", "txport.py", "host.py", "network.py")

#: The one inlining that measurably pays: ``WheelSimulator.schedule``
#: written out at the two sites that book a transmit completion and a
#: delivery (docs/PERFORMANCE.md has the per-inlining cost table).
WHEEL_PUSH_SITES = {"FastTxPort._try_send", "FastTxPort._complete_tx"}


def _foreign_private_accesses(path):
    """``(scope, receiver, attr)`` for every ``<not-self>._attr`` access."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            found.append((scope, ast.unparse(node.value), node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def _allowed(filename, scope, receiver, attr):
    if filename == "switch.py":
        return receiver == "net" and attr in ("_pinned", "_pinned_version")
    if filename == "txport.py":
        return receiver == "wsim" and scope in WHEEL_PUSH_SITES
    return False


def test_no_foreign_private_access_in_the_stack():
    offenders = [
        f"{filename}:{scope}: {receiver}.{attr}"
        for filename in STACK_FILES
        for scope, receiver, attr in _foreign_private_accesses(SIM_DIR / filename)
        if not _allowed(filename, scope, receiver, attr)
    ]
    assert not offenders, "\n".join(offenders)


def _names_used(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_scheduler_primitives_stay_in_engine_and_txport():
    for path in sorted(SIM_DIR.glob("*.py")):
        if path.name in ("engine.py", "txport.py"):
            continue
        leaked = _names_used(path) & {"insort", "heappush"}
        assert not leaked, f"{path.name} uses {sorted(leaked)}"


def test_wheel_push_is_inlined_exactly_twice():
    pushes = [
        scope
        for scope, receiver, attr in _foreign_private_accesses(SIM_DIR / "txport.py")
        if receiver == "wsim" and attr == "_overflow"
    ]
    assert sorted(pushes) == sorted(WHEEL_PUSH_SITES)
