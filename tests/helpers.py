"""Small conveniences that only the tests use.

The package itself never needs the identity permutation, the images of a
permutation power, the boolean form of the negative-cycle test, floor
profiles, the floor-alignment test or product orders, so they live here,
built on the package's public API.  Two exceptions run the private kernels
of `tiledorder.conjugation`: `kernel_fold` builds the full fold of any data
from the package's closed-form `_fold_shift`, which tests compare with the
power-sum fold of `matrix_oracles`, and takes its block minima over every
row with `_fold_rows` and `_block_min`; `base_minima` runs the package's
one-row-per-orbit kernel on floor-aligned data, which tests compare with
those every-row minima.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from tiledorder import (
    EquivariantData,
    ExponentMatrix,
    Permutation,
    cyclic_order,
    find_negative_cycle,
    morita_shift,
)
from tiledorder import conjugation
from tiledorder.orders import Rows, Vector


def identity(n: int) -> Permutation:
    """The identity permutation of {0, ..., n-1}."""
    return Permutation(tuple(range(n)))


def power_images(perm: Permutation, k: int) -> tuple[int, ...]:
    """Images of the k-th power of perm (k >= 0)."""
    out = list(range(perm.n))
    for _ in range(k):
        out = [perm.images[i] for i in out]
    return tuple(out)


def is_cycle_nonneg(matrix: Sequence[Sequence[int]]) -> bool:
    """True when every directed cycle sum (diagonal included) is non-negative."""
    return find_negative_cycle(matrix) is None


def floor_profile(r: int, g: int, n: int) -> Vector:
    """The difference sequence floor((i+1)r/g) - floor(ir/g) for i = 0..n-1.

    Floors are toward minus infinity.  The sum telescopes to n*r/g, so g must
    divide r*n (ValueError otherwise).  All values lie in {c, c+1} where
    c = floor(r/g).
    """
    if g < 1 or n < 1 or (r * n) % g != 0:
        raise ValueError(f"need g >= 1, n >= 1 and g | r*n, got {r, g, n}")
    return tuple((i + 1) * r // g - i * r // g for i in range(n))


def is_floor_aligned(ed: EquivariantData) -> bool:
    """True when every orbit's twist is a rotation of its floor profile.

    Rotations must be allowed: each orbit may be identified with Z/n_x from
    any of its points, not only the smallest one.
    """
    r = ed.twist_avg.numerator
    g = ed.twist_avg.denominator
    for orbit in ed.orbits:
        nx = len(orbit)
        profile = tuple(ed.twist[i] for i in orbit)
        target = floor_profile(r, g, nx)
        if not any(profile == target[t:] + target[:t] for t in range(nx)):
            return False
    return True


def product_order(
    w1: Sequence[int],
    w2: Sequence[int],
    labels: Sequence[int] | None = None,
    shift: Sequence[int] | None = None,
) -> ExponentMatrix:
    """The product of the cyclic orders of weights w1 and w2, relabelled and shifted.

    On pairs, m((a,b),(c,d)) = m1(a,c) + m2(b,d).  Pair (a, b) is number
    a * len(w2) + b, index x carries pair number labels[x] (identity by
    default), and the result is morita_shift by shift (zero by default).
    Every property adds termwise, so the unshifted product is basic
    Gorenstein with nu = nu1 x nu2 and p = p1 + p2 - 1 on pairs; cyclic
    factors of lengths a and b give gcd(a, b) orbits of length lcm(a, b).
    """
    m1, _ = cyclic_order(w1)
    m2, _ = cyclic_order(w2)
    n = m1.n * m2.n
    pairs = [divmod(x, m2.n) for x in (range(n) if labels is None else labels)]
    rows = [[m1.entry(a, c) + m2.entry(b, d) for c, d in pairs] for a, b in pairs]
    return morita_shift(ExponentMatrix.from_rows(rows), shift or (0,) * n)


class Fold(NamedTuple):
    """The fold summed(i,j) = sum_{k<g} m(perm^k i, perm^k j) and its
    orbit-by-orbit minima, orbits in base-point order."""

    summed: Rows
    block_min: Rows


def _fold_rows(matrix: Rows, c: Sequence[int], g: int) -> Iterator[Vector]:
    """The rows g * m(i,j) + c(i) - c(j) of the fold, one at a time."""
    for row, ci in zip(matrix, c):
        yield tuple([g * x + ci - cj for x, cj in zip(row, c)])


def _block_min(rows: Iterable[Vector], orbits: tuple[Vector, ...]) -> Rows:
    """Orbit-by-orbit minima of rows given in index order, in one pass."""
    orbit_of = {i: x for x, orbit in enumerate(orbits) for i in orbit}
    best: list[list[int] | None] = [None] * len(orbits)
    for i, row in enumerate(rows):
        x = orbit_of[i]
        mins = [min([row[j] for j in oy]) for oy in orbits]
        best[x] = mins if best[x] is None else list(map(min, best[x], mins))
    return tuple(map(tuple, best))


def kernel_fold(ed: EquivariantData) -> Fold:
    """The closed-form fold g * m(i,j) + c(i) - c(j) of any data, every row."""
    g = ed.period
    c = conjugation._fold_shift(ed.twist, ed.orbits, g)
    summed = tuple(_fold_rows(ed.matrix, c, g))
    return Fold(summed, _block_min(summed, ed.orbits))


def base_minima(ed: EquivariantData) -> Rows:
    """The package's block minima of the fold of floor-aligned data, from the
    base point's row of each orbit."""
    g = ed.period
    c = conjugation._fold_shift(ed.twist, ed.orbits, g)
    return conjugation._base_minima(ed.matrix, c, g, ed.orbits)
