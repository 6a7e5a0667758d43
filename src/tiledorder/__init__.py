"""Exact-integer computations with graded Gorenstein tiled orders.

The public names below are loaded lazily (PEP 562): ``import tiledorder``
imports no submodule, and the first use of ``tiledorder.X`` imports the
module that defines X and binds its X here, as an eager import would have.
"""

from importlib import import_module as _import_module

# Each public name, in the order of __all__, with the submodule defining it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "AmbiguousNakayamaError",
            "DimensionMismatchError",
            "DomainError",
            "EquivarianceViolationError",
            "InputFileError",
            "NegativeCycleError",
            "NonSquareError",
            "NonzeroDiagonalError",
            "NotBijectiveError",
            "NotCyclicError",
            "NotGorensteinError",
            "NotNGradedError",
            "PositiveParameterError",
            "TooLargeError",
            "TriangleViolationError",
            "ZeroWeightsError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "ExponentMatrix",
            "OrderReport",
            "Permutation",
            "morita_shift",
            "validate_order",
        ),
        "orders",
    ),
    **dict.fromkeys(
        (
            "GorensteinData",
            "cyclic_order",
            "detect_gorenstein",
            "shifted_parameters",
        ),
        "gorenstein",
    ),
    **dict.fromkeys(
        (
            "EquivariantData",
            "conjugate_data",
            "equivariant_data",
            "find_negative_cycle",
            "floor_align",
            "normalize_equivariant",
            "order_equivariant_data",
        ),
        "conjugation",
    ),
    **dict.fromkeys(
        (
            "Quiver",
            "TiltingPoset",
            "cyclic_hasse_oracle",
            "grothendieck_rank",
            "hasse_quiver",
            "tilting_poset",
            "tilting_summands",
        ),
        "tilting",
    ),
}

__version__ = "0.1.0"
__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
