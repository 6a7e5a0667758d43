"""Exact-integer computations with graded Gorenstein tiled orders."""

from types import ModuleType as _ModuleType

from .errors import (
    AmbiguousNakayamaError,
    DimensionMismatchError,
    DomainError,
    EquivarianceViolationError,
    IndexOutOfRangeError,
    InputFileError,
    InvalidLatticeError,
    NegativeCycleError,
    NegativeDiagonalError,
    NonSquareError,
    NonzeroDiagonalError,
    NotBijectiveError,
    NotCyclicError,
    NotFloorTypeError,
    NotGorensteinError,
    NotIntegralSumError,
    NotNGradedError,
    PositiveParameterError,
    TooLargeError,
    TriangleViolationError,
    ZeroWeightsError,
)
from .orders import (
    ExponentMatrix,
    OrderReport,
    Permutation,
    morita_shift,
    validate_order,
)
from .gorenstein import (
    GorensteinData,
    cyclic_order,
    detect_gorenstein,
    shifted_parameters,
)
from .conjugation import (
    EquivariantData,
    OrbitFold,
    conjugate_data,
    conjugate_matrix,
    cycle_sum,
    equivariant_data,
    find_negative_cycle,
    floor_align,
    floor_profile,
    fold_orbits,
    is_floor_aligned,
    nonneg_conjugate,
    normalize_equivariant,
    order_equivariant_data,
)
from .tilting import (
    Quiver,
    TiltingPoset,
    cyclic_hasse_oracle,
    endo_block_dim,
    grothendieck_rank,
    hasse_quiver,
    hom_dim,
    is_lattice_vector,
    tilde_index_sets,
    tilting_poset,
    tilting_summands,
    truncate_shift,
)

__version__ = "0.1.0"

# Everything imported above, without the submodules themselves.
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
