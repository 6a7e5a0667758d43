"""The cubic matrix-layer computations, kept as independent test oracles.

These are the direct definitions the package used before its fast versions:
the triple-loop triangle scan (also behind the structural checks, in
`from_rows`), the basicness test that adds row i to column i beyond the
diagonal, Gorenstein detection that tries every row against every
column, the row/column pattern matcher keyed by tuples, the orbit fold that sums g permuted copies of the matrix, and the
staged normalize pipeline that tested the whole matrix for a negative cycle
and built the aligned data and its full fold.
`tiledorder.orders.first_triangle_violation`, `tiledorder.orders._is_basic`,
`ExponentMatrix.from_rows`,
`tiledorder.detect_gorenstein`, `tiledorder.orders._nakayama_fits`, the closed-form fold kernel of
`tiledorder.conjugation` (see `helpers.kernel_fold`) and
`tiledorder.normalize_equivariant` must agree with them exactly: same
witnesses, same exceptions and messages (but for `from_rows`' messages),
same data.  The staged pipeline folds with the power sum below, so it
shares no fold code with the package path it checks.  `cyclic_rows` is
`tiledorder.cyclic_order`'s first row builder, one conditional per entry;
the sliced rows must equal it.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from itertools import accumulate
from typing import Optional

from tiledorder.conjugation import (
    EquivariantData,
    conjugate_data,
    find_negative_cycle,
    floor_align,
)
from tiledorder.errors import (
    AmbiguousNakayamaError,
    NegativeCycleError,
    NonSquareError,
    NonzeroDiagonalError,
    NotGorensteinError,
    TriangleViolationError,
)
from tiledorder.gorenstein import GorensteinData
from tiledorder.orders import ExponentMatrix, Permutation, Rows, Vector

from cycle_oracles import nonneg_conjugate
from helpers import Fold, power_images


def cyclic_rows(weights) -> Rows:
    """m(i,j) = prefix[j] - prefix[i], plus sum(w) when j < i: the forward
    path i -> i+1 -> ... -> j around the cycle."""
    n, total = len(weights), sum(weights)
    prefix = list(accumulate(weights, initial=0))
    return tuple(
        tuple(prefix[j] - prefix[i] + (total if j < i else 0) for j in range(n))
        for i in range(n)
    )


def first_triangle_violation(rows: Rows) -> Optional[tuple[int, int, int]]:
    """First (i, j, k) with m(i,j) + m(j,k) < m(i,k), scanning lexicographically."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] + rows[j][k] < rows[i][k]:
                    return (i, j, k)
    return None


def is_basic(rows: Rows) -> bool:
    """m(i,j) + m(j,i) > 0 for all i < j: row i against column i beyond the diagonal."""
    return all(
        min(map(operator.add, row[i + 1 :], col[i + 1 :]), default=1) > 0
        for i, (row, col) in enumerate(zip(rows, zip(*rows)))
    )


def from_rows(rows) -> Rows:
    """Rows that pass every check of an exponent matrix, scanning all of them.

    NonSquareError, then NonzeroDiagonalError, then TriangleViolationError
    with the triple loop's witness: the full scan that `from_rows` skips
    when a Nakayama permutation fits.
    """
    rows = tuple(tuple(row) for row in rows)
    n = len(rows)
    if n == 0:
        raise NonSquareError("matrix must be non-empty and square")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NonSquareError(f"row {i} is not of length {n}", witness=i)
    for i in range(n):
        if rows[i][i] != 0:
            raise NonzeroDiagonalError(f"entry ({i},{i}) is not 0", witness=i)
    violation = first_triangle_violation(rows)
    if violation is not None:
        raise TriangleViolationError("triangle inequality fails", witness=violation)
    return rows


def nakayama_fits(rows: Rows) -> Iterator[list[int]]:
    """For each column i in turn, the rows u with m(u,x) + m(x,i) constant in x.

    Those whose pattern (m(u,x) - m(u,0))_x is i's (m(0,i) - m(x,i))_x, the
    constant being m(u,0) + m(0,i): one hash per row and one lookup per column.
    """
    fitting: dict[Vector, list[int]] = {}
    for u, row in enumerate(rows):
        r0 = row[0]
        fitting.setdefault(tuple([x - r0 for x in row]), []).append(u)
    for col in zip(*rows):
        c0 = col[0]
        yield fitting.get(tuple([c0 - x for x in col]), [])


def detect_gorenstein(m: ExponentMatrix) -> GorensteinData:
    """Find the unique (nu, ell) certifying the Gorenstein condition.

    Raises NotGorensteinError(i) when no candidate row works for index i, and
    AmbiguousNakayamaError(i) when several do.  A detected order is basic:
    rows u, u' with m(u,u') + m(u',u) = 0 differ by a constant (triangle
    inequality), so both or neither fit each column, and nu is onto.

    The relation forces the rest: j = i gives ell_i = m(nu(i), i), and the
    relation for i at nu(j) and for j at i give m(nu i, nu j) = ell_i -
    m(nu j, i) = m(i,j) + p_j - p_i.  Applying that L times, L the order of
    nu, gives (L / |x|) * sum_x(p) = (L / |y|) * sum_y(p) for any orbits x, y,
    so every orbit has parameter average p_av.
    """
    n = m.n
    images = []
    ells = []
    for i in range(n):
        candidates = []
        for u in range(n):
            sums = {m.entry(u, j) + m.entry(j, i) for j in range(n)}
            if len(sums) == 1:
                candidates.append((u, sums.pop()))
        if not candidates:
            raise NotGorensteinError(
                f"no row is constant against column {i}", witness=i
            )
        if len(candidates) > 1:
            raise AmbiguousNakayamaError(
                f"several rows are constant against column {i}",
                witness=(i, [u for u, _ in candidates]),
            )
        u, ell = candidates[0]
        images.append(u)
        ells.append(ell)
    nu = Permutation(tuple(images))  # raises NotBijectiveError if degenerate
    p = tuple(1 - e for e in ells)
    return GorensteinData(nu=nu, p=p)


def fold_orbits(ed: EquivariantData) -> Fold:
    """Sum the matrix over g = period perm powers and minimize over orbit blocks.

    The definition, on any data.  On floor-aligned data the matrix is
    invariant under perm^g: g steps of the equivariance relation change
    m(i,j) by A(j) - A(i), A(i) the sum of g consecutive twists along the
    orbit of i.  A floor profile has period g and any g consecutive terms sum
    to r, so A is constant.  So summed is then invariant under (i,j) ->
    (perm i, perm j), which trades its term m(i,j) for the equal
    m(perm^g i, perm^g j).
    """
    n = ed.n
    g = ed.period
    powers = [power_images(ed.perm, k) for k in range(g)]
    summed = tuple(
        tuple(
            sum(ed.matrix[powers[k][i]][powers[k][j]] for k in range(g))
            for j in range(n)
        )
        for i in range(n)
    )
    block_min = tuple(
        tuple(
            min(summed[i][j] for i in ox for j in oy)
            for oy in ed.orbits
        )
        for ox in ed.orbits
    )
    return Fold(summed, block_min)


def staged_normalize(ed: EquivariantData) -> Vector:
    """Total shift conjugating the data into normalized position.

    Pipeline: floor-align, fold orbits, find a non-negative conjugate sbar of
    the folded block minima, and lift it back through the floor
    identification.  Requires every cycle sum of the matrix to be
    non-negative (NegativeCycleError with a witness on the original indices
    otherwise; a negative diagonal entry appears as a singleton cycle).

    The output needs no check: with r/g = twist_avg (reduced) and a(i) =
    pos * r - sbar(x) for i at position pos of orbit x, its twist at i is
    floor((a(i) + r)/g) - floor(a(i)/g), a rotation of the floor profile as
    r is prime to g: floor-aligned and within 1 of r/g.  As sum_{k<g}
    floor((a + k * r)/g) = a + (r - 1)(g - 1)/2, its fold is fold.summed(i,j)
    + sbar(x) - sbar(y) >= 0, and g * m'(i,j) is that plus (a(i) mod g) -
    (a(j) mod g) > -g, so the matrix m' is entrywise non-negative.
    """
    witness = find_negative_cycle(ed.matrix)
    if witness is not None:
        raise NegativeCycleError(
            f"matrix has negative cycle {witness}", witness=witness
        )
    s1 = floor_align(ed)
    aligned = conjugate_data(ed, s1)
    fold = fold_orbits(aligned)
    sbar = nonneg_conjugate(fold.block_min)
    r = ed.twist_avg.numerator
    g = ed.twist_avg.denominator
    s2 = [0] * ed.n
    for x, orbit in enumerate(ed.orbits):
        for pos, i in enumerate(orbit):
            s2[i] = (pos * r) // g - (pos * r - sbar[x]) // g
    return tuple(s1[i] + s2[i] for i in range(ed.n))
