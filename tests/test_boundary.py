"""Public functions freeze and check outside data once, at their boundary.

Inside the package, functions pass the tuples they already hold, so a public
entry point is the only place where a list becomes a tuple, a float entry is
refused and a length is checked.  Each case calls one entry point with valid
tuple data, the same data as lists, a float entry and a wrong shape.  The
test oracles `cycle_sum`, `nonneg_conjugate`, `conjugate_matrix`,
`is_lattice_vector`, `hom_dim` and `truncate_shift` freeze and check their
arguments the same way, and are pinned here too.
"""

import pytest

from tiledorder import (
    DimensionMismatchError,
    conjugate_data,
    cyclic_order,
    equivariant_data,
    find_negative_cycle,
    morita_shift,
    order_equivariant_data,
    shifted_parameters,
)

from cycle_oracles import conjugate_matrix, cycle_sum, nonneg_conjugate
from hasse_oracle import hom_dim, is_lattice_vector, truncate_shift

M4, G4 = cyclic_order((1, 1, 1, 1))
ED4 = order_equivariant_data(M4, G4)
ROWS = ((0, -1, 2), (3, 0, -1), (2, 2, 0))  # every cycle sum >= 0
NON_SQUARE = ((0, 1), (1, 0), (2, 2))
SHIFT = (0, 1, 0, 1)
V, W = M4.row(1), M4.row(2)

# (function, valid arguments, arguments of a wrong shape, the error they raise)
CASES = [
    (cycle_sum, (ROWS, (0, 1, 2)), (NON_SQUARE, (0, 1)), DimensionMismatchError),
    (find_negative_cycle, (ROWS,), (NON_SQUARE,), DimensionMismatchError),
    (nonneg_conjugate, (ROWS,), (NON_SQUARE,), DimensionMismatchError),
    (conjugate_matrix, (ROWS, (4, 0, -2)), (ROWS, SHIFT), DimensionMismatchError),
    (
        equivariant_data,
        (ED4.matrix, ED4.twist, ED4.perm),
        (ED4.matrix, ED4.twist[:3], ED4.perm),
        DimensionMismatchError,
    ),
    (conjugate_data, (ED4, SHIFT), (ED4, SHIFT[:3]), DimensionMismatchError),
    (morita_shift, (M4, SHIFT), (M4, SHIFT + (0,)), DimensionMismatchError),
    (shifted_parameters, (G4, SHIFT), (G4, SHIFT[:3]), DimensionMismatchError),
    (is_lattice_vector, (M4, V), (M4, V[:3]), DimensionMismatchError),
    (hom_dim, (M4, V, W, 0), (M4, V, W[:3], 0), DimensionMismatchError),
    (truncate_shift, (V, 1), None, None),  # any length is a valid vector
    (cyclic_order, ((1, 2, 0),), ((),), ValueError),
]


def listed(x):
    """Every tuple in x, nested ones included, turned into a list."""
    return [listed(y) for y in x] if isinstance(x, tuple) else x


def with_float(args):
    """args with the first entry of the first tuple argument made a float."""

    def first_float(x):
        return (first_float(x[0]),) + x[1:] if isinstance(x, tuple) else float(x)

    k = next(k for k, arg in enumerate(args) if isinstance(arg, tuple))
    return args[:k] + (first_float(args[k]),) + args[k + 1 :]


@pytest.mark.parametrize(
    "fn, args, bad_args, error", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_boundary_freezes_and_checks(fn, args, bad_args, error):
    result = fn(*args)
    assert fn(*map(listed, args)) == result
    with pytest.raises(TypeError):
        fn(*with_float(args))
    if bad_args is not None:
        with pytest.raises(error):
            fn(*bad_args)
