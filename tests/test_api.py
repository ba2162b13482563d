"""The public surface: the package's re-export list, a guard that every
public function, class and method in ``src/wassinc`` has a caller in the
package or its scripts, and guards that private names and the unchecked
constructors stay inside the module that defines them."""

import ast
import dataclasses
import pathlib

import wassinc
from wassinc import config

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wassinc"


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from wassinc import *", namespace)
    assert len(wassinc.__all__) == len(set(wassinc.__all__))
    for name in wassinc.__all__:
        assert namespace[name] is getattr(wassinc, name)


def public_definitions(tree):
    """(label, member) of the public top-level functions and classes, and of
    the public methods and properties of top-level classes (members)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", True


def referenced_names(tree):
    """(name, attribute) of every name read as a variable (False) or as an attribute (True)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, True


def test_every_public_definition_has_a_caller():
    # __init__.py only re-exports, and what it re-exports is public API even
    # where the package itself has no call (the one-pair W_p: the package
    # reads its curves as stacks); catalog's *_field / *_family builders are
    # reached by label through config.  A method or property counts as
    # called only where it is read as an attribute: a local variable of the
    # same name is no caller.
    exported = {f"{getattr(wassinc, name).__module__.rsplit('.', 1)[-1]}.{name}" for name in wassinc.__all__}
    modules = sorted(f for f in PACKAGE.glob("*.py") if f.name != "__init__.py")
    names, attributes = set(), set()
    for path in modules + sorted((ROOT / "scripts").glob("*.py")):
        for name, attribute in referenced_names(ast.parse(path.read_text())):
            (attributes if attribute else names).add(name)
    uncalled = [
        f"{path.stem}.{label}"
        for path in modules
        for label, member in public_definitions(ast.parse(path.read_text()))
        if label.rsplit(".", 1)[-1] not in (attributes if member else names | attributes)
        and not (path.name == "catalog.py" and label.endswith(("_field", "_family")))
        and f"{path.stem}.{label}" not in exported
    ]
    assert uncalled == []


def module_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def private(name):
    return name.startswith("_") and not name.endswith("__")


def imported_modules(tree):
    """The names a module binds to wassinc modules: ``from . import bounds``,
    ``from wassinc import bounds as b``, ``import wassinc.bounds as b``."""
    stems = {path.stem for path in PACKAGE.glob("*.py")}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module is None if node.level else node.module == "wassinc"):
            yield from (alias.asname or alias.name for alias in node.names if alias.name in stems)
        elif isinstance(node, ast.Import):
            yield from (alias.asname for alias in node.names if alias.name.startswith("wassinc.") and alias.asname)


def test_no_module_imports_a_private_name_of_another():
    # by import (from .measure import _root) or as an attribute of an imported module (bounds._exp)
    trees = module_trees()
    imports = [
        f"{name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("wassinc"))
        for alias in node.names
        if private(alias.name)
    ]
    reads = [
        f"{name}:{node.lineno}: {node.value.id}.{node.attr}"
        for name, tree in trees.items()
        for modules in [set(imported_modules(tree))]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and private(node.attr)
    ]
    assert imports + reads == []


def test_only_dynamics_builds_unchecked_curves():
    # Trajectory._freeze skips the finite check: only the module that checks
    # every node (``dynamics.march``) may reach it
    users = {
        name
        for name, tree in module_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_freeze"
    }
    assert users == {"dynamics.py"}


def test_a_family_has_exactly_one_velocity_callable():
    # one rule reads one node or a block of nodes: no second form of it beside it on any
    # catalog entry, signal field or convexified family, and no method that picks between forms
    rates = {"m": 1.0, "l": 1.0, "L": 1.0}
    params = {"constant": {"vector": [1.0, 0.0]}, "mean_attraction": {"kappa": 1.0},
              "constants": {"controls": [[1.0, 0.0]]}, "gain": {"controls": [1.0]}, "mean_gain": {"controls": [1.0]}}
    built = [config.build_field({"label": label, **params.get(label, {}), "rates": rates}, 1.0, 2)
             for label in config.FIELDS]
    built += [config.build_family({"label": label, **params[label], "rates": rates}, 1.0, 2)
              for label in config.FAMILIES]
    signal = wassinc.ControlSignal(grid=[0.0, 1.0], indices=[0])
    built += [wassinc.signal_field(built[-1], signal), wassinc.convexify(built[-1], [wassinc.ChatteringControl((0,), (1,), 1)])]
    for family in built:
        assert [f.name for f in dataclasses.fields(family) if callable(getattr(family, f.name))] == ["rule"]
    methods = [name for name, member in vars(wassinc.ControlledFamily).items()
               if callable(member) and not name.startswith("_")]
    assert methods == ["gaps"]
