"""Structure of the simulator stack: one class per concept, said once.

``repro.simulator`` used to ship every concept twice — a reference class
and a ``Fast*`` subclass of it, picked by an ``engine=`` string — and,
before that, three to five hand-inlined copies of each hot-path step.
These AST checks keep both from growing back: no class in the package
inherits from another one in it, nothing selects an engine, a foreign
``_private`` access (how an inlined transcription of someone else's
method shows up in the source) needs an entry here, and the reference
stack the equivalence suite runs (``reference_stack.py``) stays a set of
hot-path overrides rather than a second hierarchy.
"""

import ast
from pathlib import Path

from repro.simulator.buffers import IngressAccounting
from repro.simulator.host import SimHost
from repro.simulator.network import SimNetwork
from repro.simulator.switch import SimSwitch
from repro.simulator.txport import TxPort

from . import reference_stack

SRC_DIR = Path(__file__).parents[2] / "src" / "repro"
SIM_DIR = SRC_DIR / "simulator"
REFERENCE_PATH = Path(reference_stack.__file__)
STACK_FILES = ("switch.py", "txport.py", "host.py", "network.py")

#: The one inlining that measurably pays: ``Simulator.schedule`` written
#: out at the two sites that book a transmit completion and a delivery
#: (docs/PERFORMANCE.md has the per-inlining cost table).
WHEEL_PUSH_SITES = {"TxPort._try_send", "TxPort._complete_tx"}

#: Names the one-stack fold deleted; none may come back under src/repro.
DELETED_NAMES = {
    "make_simulator", "SCHEDULERS", "WheelSimulator", "FastSimSwitch",
    "FastTxPort", "FastSimHost", "VectorAccounting",
}

#: What each reference class may redefine of its production base: the
#: hot-path methods, the constructor where the fields differ, and the
#: accessors of state whose representation differs. Everything else must
#: be inherited, so the two stacks cannot drift apart there.
REFERENCE_OVERRIDES = {
    "ReferenceAccounting": (IngressAccounting, {
        "__init__", "charge", "release", "occupancy_of", "total_bytes",
        "paused_accounts",
    }),
    "ReferenceTxPort": (TxPort, {"__init__", "enqueue", "_try_send"}),
    "ReferenceSwitch": (SimSwitch, {"__init__", "receive", "on_sent"}),
    "ReferenceHost": (SimHost, {"_inject", "on_sent", "receive"}),
    "ReferenceSimNetwork": (SimNetwork, {
        "engine_cls", "switch_cls", "host_cls", "port_cls",
    }),
}


def _trees(directory):
    return [
        (path, ast.parse(path.read_text()))
        for path in sorted(directory.rglob("*.py"))
    ]


def _identifiers(tree):
    """Every name a module binds, reads, imports or lists in ``__all__``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update((node.name, node.asname))
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)  # ``__all__`` entries
    return found


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


def _is_exempt(node):
    """Dataclasses and exception types may extend one another."""
    decorators = {ast.unparse(d).split("(")[0] for d in node.decorator_list}
    bases = {ast.unparse(b) for b in node.bases}
    return bool(
        decorators & {"dataclass", "dataclasses.dataclass"}
        or any(b.endswith(("Error", "Exception")) for b in bases)
    )


def test_no_class_in_the_package_extends_another():
    trees = _trees(SIM_DIR)
    local = {
        node.name
        for _, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    offenders = [
        f"{path.name}: class {node.name}({ast.unparse(base)})"
        for path, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and not _is_exempt(node)
        for base in node.bases
        if ast.unparse(base).rpartition(".")[2] in local
    ]
    assert not offenders, "\n".join(offenders)


def test_nothing_selects_an_engine():
    selectors = [
        f"{path.name}: {node.name}({arg.arg})"
        for path, tree in _trees(SIM_DIR)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.Lambda))
        for arg in node.args.args + node.args.kwonlyargs
        if arg.arg in ("engine", "scheduler")
    ]
    assert not selectors, "\n".join(selectors)
    for path, tree in _trees(SRC_DIR):
        back = _identifiers(tree) & DELETED_NAMES
        assert not back, f"{path.relative_to(SRC_DIR)} names {sorted(back)}"


def test_no_foreign_private_access_in_the_stack():
    offenders = [
        f"{filename}:{scope}: {receiver}.{attr}"
        for filename in STACK_FILES
        for scope, receiver, attr in _foreign_private_accesses(SIM_DIR / filename)
        if not _allowed(filename, scope, receiver, attr)
    ]
    assert not offenders, "\n".join(offenders)


def test_scheduler_primitives_stay_in_engine_and_txport():
    for path, tree in _trees(SIM_DIR):
        if path.name in ("engine.py", "txport.py"):
            continue
        leaked = _identifiers(tree) & {"insort", "heappush"}
        assert not leaked, f"{path.name} uses {sorted(leaked)}"


def test_wheel_push_is_inlined_exactly_twice():
    pushes = [
        scope
        for scope, receiver, attr in _foreign_private_accesses(SIM_DIR / "txport.py")
        if receiver == "wsim" and attr == "_overflow"
    ]
    assert sorted(pushes) == sorted(WHEEL_PUSH_SITES)


def test_reference_stack_is_hot_path_overrides_only():
    # Reading another object's private state (the engine's above all) is
    # how the reference would start depending on production internals.
    assert _foreign_private_accesses(REFERENCE_PATH) == []
    subclasses = {
        name
        for name, value in vars(reference_stack).items()
        if isinstance(value, type)
        and value.__module__ == reference_stack.__name__
        and value.__bases__ != (object,)
    }
    assert subclasses == set(REFERENCE_OVERRIDES)
    for name, (base, allowed) in REFERENCE_OVERRIDES.items():
        cls = getattr(reference_stack, name)
        assert cls.__bases__ == (base,)
        overridden = {
            attr
            for attr in vars(cls)
            if hasattr(base, attr)
            and (attr == "__init__" or not attr.startswith("__"))
        }
        assert overridden <= allowed, f"{name} overrides {sorted(overridden - allowed)}"
