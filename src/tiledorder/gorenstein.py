"""Gorenstein detection and graded parameters for tiled orders.

A basic tiled order is graded Gorenstein exactly when there is a (unique)
permutation nu and integers ell_i with

    m(nu(i), j) + m(j, i) = ell_i   for all j.

The Gorenstein parameters are p_i = 1 - ell_i; their mean p_av is an exact
rational and is invariant under conjugation by shift vectors.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import (
    AmbiguousNakayamaError,
    NotGorensteinError,
    ZeroWeightsError,
)
from .orders import ExponentMatrix, Permutation, Record, Vector
from .orders import _nakayama_fits, _packing, check_shift, freeze_vector


class GorensteinData(Record):
    """Permutation nu and the parameters p; the constants ell and p_av follow."""

    nu: Permutation
    p: Vector

    @property
    def n(self) -> int:
        return self.nu.n

    @property
    def ell(self) -> Vector:
        """The constants ell_i = 1 - p_i of the Gorenstein relation."""
        return tuple([1 - x for x in self.p])

    @property
    def p_av(self) -> Fraction:
        """The mean of p, exact; ``fractions`` is imported only when it is read."""
        from fractions import Fraction

        return Fraction(sum(self.p), self.n)


def detect_gorenstein(
    m: ExponentMatrix, *, _fits: list[list[int]] | None = None
) -> GorensteinData:
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

    The fits come from ``orders._nakayama_fits``, the one pattern matcher:
    ``_fits`` when the rows were matched while validated (``orders._validated``
    in ``files.order_pair``), else matched here on the rows' ``_packing``.

    The images form a bijection, so Permutation never raises here; this
    needs no triangle inequality.  Once every column fits exactly one row,
    two columns i != i' on one row differ by a constant, m(i,i') = m(x,i') -
    m(x,i) for all x, and the relation for any column j, fitting row v, at x
    = i and x = i' gives m(i,j) - m(i',j) = m(v,i') - m(v,i) = m(i,i'): rows
    i and i' differ by a constant too, so neither is hit.  So the columns
    indexed by the hit rows sit alone on their rows and use up every hit
    row, leaving none for a shared column.
    """
    rows = m.rows
    fits = _nakayama_fits(rows, _packing(rows)) if _fits is None else _fits
    images = []
    for i, candidates in enumerate(fits):
        if not candidates:
            raise NotGorensteinError(
                f"no row is constant against column {i}", witness=i
            )
        if len(candidates) > 1:
            raise AmbiguousNakayamaError(
                f"several rows are constant against column {i}",
                witness=(i, list(candidates)),
            )
        images.append(candidates[0])
    p = tuple([1 - rows[u][0] - rows[0][i] for i, u in enumerate(images)])
    return GorensteinData(nu=Permutation(images), p=p)


def shifted_parameters(g: GorensteinData, s: Sequence[int]) -> Vector:
    """Parameters after conjugating with shift s: p'_i = p_i - s(i) + s(nu(i)).

    This is the transform matching ``morita_shift(m, [-x for x in s])``; the
    two sign conventions are exercised against each other in the tests.
    """
    shift = check_shift(s, g.n)
    return tuple(g.p[i] - shift[i] + shift[g.nu(i)] for i in range(g.n))


def cyclic_order(weights: Sequence[int]) -> tuple[ExponentMatrix, GorensteinData]:
    """The cyclic tiled order attached to non-negative weights w_0..w_{n-1}.

    m(i,j) is the weight of the forward path i -> i+1 -> ... -> j around the
    cycle; nu is i -> i+1 (mod n) and p_i = 1 + w_i - sum(w).  Requires
    sum(w) >= 1 (ZeroWeightsError otherwise).

    No validation is needed: m(i,i) = 0, and the forward paths i -> j -> k
    cover i -> k plus whole laps of weight >= 0, so m(i,j) + m(j,k) >= m(i,k).
    The order is also basic, m(i,j) + m(j,i) = sum(w) >= 1 for i != j, and
    N-graded, every entry a sum of weights (``tiledorder validate`` relies
    on all three).  Rows by slicing: with P_j = w_0 + ... + w_{j-1} (j < n)
    and ext = P + [x + sum(w) for x in P], m(i,j) = ext[j + n] - P_i for
    j < i and ext[j] - P_i for j >= i, so row i is ext[n:n+i] + ext[i:n]
    less P_i.
    """
    w = freeze_vector(weights)
    if any(x < 0 for x in w):
        raise ValueError("weights must be non-negative")
    n = len(w)
    if n == 0:
        raise ValueError("weights must be non-empty")
    total = sum(w)
    if total == 0:
        raise ZeroWeightsError("weights must not all be zero")
    prefix = list(accumulate(w[:-1], initial=0))  # P_0, ..., P_{n-1}
    ext = prefix + [x + total for x in prefix]
    rows = [tuple([x - a for x in ext[n : n + i] + ext[i:n]]) for i, a in enumerate(prefix)]
    m = ExponentMatrix(tuple(rows))
    p = tuple([1 + x - total for x in w])
    return m, GorensteinData(nu=Permutation.cycle(n), p=p)
