"""The package's lazy exports: same names, same objects, no eager imports."""

import ast
import os
import subprocess
import sys

import pytest

import tiledorder

# The public names in the order of __all__: the error classes, then the
# names of orders, gorenstein, conjugation and tilting, as _EXPORTS lists them.
PUBLIC = [
    "AmbiguousNakayamaError", "DimensionMismatchError", "DomainError",
    "EquivarianceViolationError", "IndexOutOfRangeError", "InputFileError",
    "InvalidLatticeError", "NegativeCycleError", "NegativeDiagonalError",
    "NonSquareError", "NonzeroDiagonalError", "NotBijectiveError",
    "NotCyclicError", "NotGorensteinError", "NotNGradedError",
    "PositiveParameterError", "TooLargeError", "TriangleViolationError",
    "ZeroWeightsError", "ExponentMatrix", "OrderReport", "Permutation",
    "morita_shift", "validate_order", "GorensteinData", "cyclic_order",
    "detect_gorenstein", "shifted_parameters", "EquivariantData",
    "conjugate_data", "conjugate_matrix", "cycle_sum", "equivariant_data",
    "find_negative_cycle", "floor_align", "nonneg_conjugate",
    "normalize_equivariant", "order_equivariant_data", "Quiver",
    "TiltingPoset", "cyclic_hasse_oracle", "endo_block_dim",
    "grothendieck_rank", "hasse_quiver", "hom_dim", "is_lattice_vector",
    "tilde_index_sets", "tilting_poset", "tilting_summands", "truncate_shift",
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
