"""The public surface: the package's re-export list, a guard that every
public function, class and method in ``src/wassinc`` has a caller in the
package or its scripts, and guards that private names and the unchecked
constructors stay inside the module that defines them."""

import ast
import dataclasses
import importlib
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


def callers(callee, trees):
    """The innermost enclosing function of every call of ``callee`` (by name or as an
    attribute) in ``trees``, a module name -> tree dict, as sorted ``module:function``."""
    caller = {}  # each call -> its innermost enclosing function (ast.walk visits outer ones first)
    for name, tree in trees.items():
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.Lambda)):
                for node in ast.walk(function):
                    target = getattr(node, "func", None)
                    if getattr(target, "id", getattr(target, "attr", None)) == callee:
                        caller[id(node)] = f"{name}:{getattr(function, 'name', 'lambda')}"
    return sorted(caller.values())


def test_one_function_calls_the_assignment_solver():
    # every W_p goes through one block solver, so no second solve path can creep back
    assert callers("linear_sum_assignment", module_trees()) == ["measure.py:_solve_block"]


def test_each_power_rule_is_written_once():
    # the formulas a large-p rescaling must change: a W_p's root is taken by the identity
    # coupling's kernel, the solver and the power means alone, and C_p' x^p by one function
    trees = module_trees()
    assert sorted(set(callers("_root", {"measure.py": trees["measure.py"]}))) == [
        "measure.py:_identity_costs", "measure.py:_power_means", "measure.py:_solve_block"]
    assert sorted(set(callers("_power", {"bounds.py": trees["bounds.py"]}))) == [
        "bounds.py:C_p_prime", "bounds.py:_scaled_power"]


def test_one_function_takes_every_exact_sum():
    # every W_p total, power-mean sum and rate integral is one exactly rounded sum, so its
    # overflow rule (inf, which the W_p entry points raise as infeasible) is written once
    assert callers("fsum", module_trees()) == ["measure.py:exact_sums"]


def test_one_function_looks_up_every_time():
    # a curve's node, a signal's control, a rate's segment, peano's delayed node and relax's
    # equal-mass segment are all the node at or before a time: one rule, with no bisection beside it
    trees = module_trees()
    assert callers("searchsorted", trees) == ["dynamics.py:snapped_index"]
    imports = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name == "bisect" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "bisect"
    ]
    assert imports == []


def test_no_numeric_rule_is_called_per_entry():
    # roots, scaled powers and exps each take a whole array: a call per entry, in a comprehension
    # or through map, is a second, slower form of the rule
    rules = {"_root", "_scaled_power", "saturating_exp"}
    trees = module_trees()
    per_entry = [
        f"{name}:{node.lineno}"
        for name in ("bounds.py", "measure.py")
        for loop in ast.walk(trees[name])
        if isinstance(loop, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
        or (isinstance(loop, ast.Call) and getattr(loop.func, "id", None) == "map")
        for node in ast.walk(loop)
        if getattr(node, "id", getattr(node, "attr", None)) in rules
    ]
    assert per_entry == []


def test_each_catalog_rule_is_written_once():
    # a field whose law is a family's control is built from that family, so no field
    # grows back its own copy of a family's rule
    owner = {}  # each rule -> its innermost enclosing function (ast.walk visits outer ones first)
    for function in ast.walk(module_trees()["catalog.py"]):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.FunctionDef) and node is not function and node.name == "rule":
                    owner[id(node)] = function.name
    assert sorted(owner.values()) == ["bounded_kernel_field", "constants_family", "gain_family", "mean_gain_family",
                                      "rotation_field"]


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


def test_every_curve_is_an_euler_curve():
    # the step loop ``march`` is run by the stepped Euler curve and by peano's scheme alone,
    # and ``integrate`` takes no integrator to pick: no scheme beside Euler's can come back
    trees = module_trees()
    assert callers("march", trees) == ["dynamics.py:euler_curve", "inclusion.py:peano_solve"]
    integrate = next(node for node in trees["dynamics.py"].body
                     if isinstance(node, ast.FunctionDef) and node.name == "integrate")
    args = integrate.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["field", "start", "grid"]
    assert args.vararg is None and args.kwarg is None


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
    built += [wassinc.signal_field(built[-1], signal), wassinc.convexify(built[-1], [wassinc.ChatteringControl((0,), (1,))])]
    for family in built:
        assert [f.name for f in dataclasses.fields(family) if callable(getattr(family, f.name))] == ["rule"]
    methods = [name for name, member in vars(wassinc.ControlledFamily).items()
               if callable(member) and not name.startswith("_")]
    assert methods == ["gaps"]


def test_each_localisation_decision_has_one_owner():
    # the tracking envelope (C, C_T) is built in one function, relax reads every threshold's
    # tail in one pass, and both stability kinds are one check reading R = inf as global
    kinds = importlib.import_module("wassinc.verify")._KINDS  # the package's ``verify`` is the function
    trees = module_trees()
    assert callers("uniform_moment", trees) == ["bounds.py:tracking_envelope"]
    assert callers("tracking_envelope", trees) == ["filippov.py:compute_bound", "relax.py:relax_approximate"]
    assert callers("tail_norm", {"relax.py": trees["relax.py"]}) == []
    assert callers("tail_norms", {"relax.py": trees["relax.py"]}) == ["relax.py:_tail_radius"]
    assert kinds["gronwall_global"] is kinds["gronwall_local"]


def test_the_lattice_cell_count_is_written_once():
    # filippov's probe lattice and config's ceiling on its mesh read one constant, so no
    # R / 8 or 17^d is written beside it (the other 17 is MAX_NODES = 2**17)
    trees = module_trees()
    written = sorted(
        f"{name}:{getattr(statement, 'name', None) or ast.unparse(getattr(statement, 'targets', [statement])[0])}"
        for name, tree in trees.items()
        for statement in tree.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value in (8, 17)
    )
    assert written == ["config.py:MAX_NODES", "filippov.py:LATTICE_CELLS"]
    readers = {
        f"{name}:{function.name}"
        for name, tree in trees.items()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id == "LATTICE_CELLS"
    }
    assert readers == {"config.py:_check_sizes", "filippov.py:filippov_track"}
