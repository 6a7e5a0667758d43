"""The package's lazy exports: same names, same objects, no eager imports."""

import ast
import os
import subprocess
import sys

import pytest

import tiledorder

# The public names in the order of __all__: the error classes, then the
# names of orders, gorenstein, conjugation and tilting, as _EXPORTS lists them.
# Each is reached by some CLI command (test_every_export_is_reached_by_the_cli).
PUBLIC = [
    "AmbiguousNakayamaError", "DimensionMismatchError", "DomainError",
    "EquivarianceViolationError", "InputFileError", "NegativeCycleError",
    "NonSquareError", "NonzeroDiagonalError", "NotBijectiveError",
    "NotCyclicError", "NotGorensteinError", "NotNGradedError",
    "PositiveParameterError", "TooLargeError", "TriangleViolationError",
    "ZeroWeightsError", "ExponentMatrix", "OrderReport", "Permutation",
    "morita_shift", "validate_order", "GorensteinData", "cyclic_order",
    "detect_gorenstein", "shifted_parameters", "EquivariantData",
    "conjugate_data", "equivariant_data", "find_negative_cycle",
    "floor_align", "normalize_equivariant", "order_equivariant_data",
    "Quiver", "TiltingPoset", "cyclic_hasse_oracle", "grothendieck_rank",
    "hasse_quiver", "tilting_poset", "tilting_summands",
    "__version__",
]


def test_all_is_unchanged():
    assert tiledorder.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC[:-1])
def test_export_is_the_defining_modules_object(name):
    obj = getattr(tiledorder, name)
    module = sys.modules[obj.__module__]
    assert module.__name__.startswith("tiledorder.")
    assert getattr(module, name) is obj


def test_star_import_and_dir():
    namespace = {}
    exec("from tiledorder import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(tiledorder, name)
    assert set(PUBLIC) <= set(dir(tiledorder))
    assert tiledorder.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tiledorder.no_such_name
    with pytest.raises(ImportError):
        exec("from tiledorder import no_such_name", {})


def test_import_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(tiledorder.__file__))
    code = "import sys, tiledorder; print(sorted(sys.modules))"
    res = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    loaded = ast.literal_eval(res.stdout)
    assert [m for m in loaded if m.startswith("tiledorder")] == ["tiledorder"]


def package_trees():
    """(module, AST) of each module of the package, by file name."""
    package = os.path.dirname(tiledorder.__file__)
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as f:
                yield filename[:-3], ast.parse(f.read())


def cli_reach():
    """(module, name) of each top-level definition of the package that
    `cli.COMMANDS` or `cli.main` reaches.

    A static scan of the package source: a definition reaches every
    top-level name it mentions, in its own module or imported from a sibling
    (function-level imports included), and every `module.name` of a sibling
    module it imports.  A reached class reaches all its methods.
    """
    defs, imported = {}, {}
    for module, tree in package_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defs[module, target.id] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    # `from .m import x` gives (m, x), `from . import m` (m, None)
                    if node.module:
                        source = (node.module, alias.name)
                    else:
                        source = (alias.name, None)
                    imported[module, alias.asname or alias.name] = source
    reached, todo = set(), [("cli", "COMMANDS"), ("cli", "main")]
    while todo:
        key = todo.pop()
        if key in reached or key not in defs:
            continue
        reached.add(key)
        module = key[0]
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                own = (module, node.id)
                todo.append(own if own in defs else imported.get(own, own))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                source, name = imported.get((module, node.value.id), (None, ""))
                if name is None:  # an attribute of a sibling module
                    todo.append((source, node.attr))
    return reached


def test_every_export_is_reached_by_the_cli():
    # the package is what the CLI runs: an export no command reaches belongs
    # in the tests' oracles, not in tiledorder.__all__
    reached = cli_reach()
    unreached = [
        name
        for name in tiledorder.__all__
        if name != "__version__"
        and (getattr(tiledorder, name).__module__.rpartition(".")[2], name)
        not in reached
    ]
    assert not unreached, f"exports that no CLI command reaches: {unreached}"


def test_packed_layout_is_named_only_in_orders():
    # orders._packing owns the packed-integer layout (rows and columns, read
    # through orders._defects); no other module packs a matrix itself
    layout = {"_packed", "_packed_rows"}
    naming = set()
    for module, tree in package_trees():
        for node in ast.walk(tree):
            names = {
                getattr(node, field, None)
                for field in ("id", "attr", "name", "asname")
            }
            if names & layout:
                naming.add(module)
    assert naming == {"orders"}
