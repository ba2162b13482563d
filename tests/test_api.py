"""The public surface: the package's re-export list, a guard that every
public function, class and method in ``src/wassinc`` has a caller in the
package or its scripts, and guards that private names and the unchecked
constructors stay inside the module that defines them."""

import ast
import pathlib

import wassinc

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wassinc"


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from wassinc import *", namespace)
    assert len(wassinc.__all__) == len(set(wassinc.__all__))
    for name in wassinc.__all__:
        assert namespace[name] is getattr(wassinc, name)


def public_definitions(tree):
    """Names of the public top-level functions and classes and of the
    public methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name


def referenced_names(tree):
    """Every name read as a variable or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_definition_has_a_caller():
    # __init__.py only re-exports; catalog's *_field / *_family builders
    # are reached by label through config
    modules = sorted(f for f in PACKAGE.glob("*.py") if f.name != "__init__.py")
    used = set()
    for path in modules + sorted((ROOT / "scripts").glob("*.py")):
        used.update(referenced_names(ast.parse(path.read_text())))
    uncalled = [
        f"{path.stem}.{name}"
        for path in modules
        for name in public_definitions(ast.parse(path.read_text()))
        if name not in used and not (path.name == "catalog.py" and name.endswith(("_field", "_family")))
    ]
    assert uncalled == []


def module_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_module_imports_a_private_name_of_another():
    private = [
        f"{name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for name, tree in module_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("wassinc"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_only_measure_and_dynamics_build_unchecked_curves():
    # ParticleCloud._view and Trajectory._freeze skip the finite check: only
    # the modules that check every node (``dynamics.march``) may reach them
    users = {
        name
        for name, tree in module_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("_view", "_freeze")
    }
    assert users <= {"measure.py", "dynamics.py"}
