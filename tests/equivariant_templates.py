"""Shared symbolic template for two-orbit equivariant data.

The index set is Z/4 + Z/6 (indices 0..3 and 4..9), the permutation advances
each orbit by one, and the twist is the floor profile of average 1/2 on each
orbit.  Every assignment of integers to the fourteen block symbols yields
valid equivariant data; cell "x" means value[x], cell "x1" means value[x]+1.

A second grid transcribes the expected two-power fold of the same template
(cell "x" meaning 2*value[x], "x1" meaning 2*value[x]+1), so tests can check
the fold against an independent rendering instead of re-running the sum.
"""

from tiledorder import ExponentMatrix, Permutation, equivariant_data

from helpers import floor_profile

SYMBOLS = "bcdefghijklmnp"

_CELLS = """
b  c  d  e  f  g  f  g  f  g
e1 b  c1 d  g1 f  g1 f  g1 f
d  e  b  c  f  g  f  g  f  g
c1 d  e1 b  g1 f  g1 f  g1 f
h  i  h  i  j  k  l  m  n  p
i1 h  i1 h  p1 j  k1 l  m1 n
h  i  h  i  n  p  j  k  l  m
i1 h  i1 h  m1 n  p1 j  k1 l
h  i  h  i  l  m  n  p  j  k
i1 h  i1 h  k1 l  m1 n  p1 j
"""

_SUMMED_CELLS = """
b  c1 d  e1 f  g1 f  g1 f  g1
e1 b  c1 d  g1 f  g1 f  g1 f
d  e1 b  c1 f  g1 f  g1 f  g1
c1 d  e1 b  g1 f  g1 f  g1 f
h  i1 h  i1 j  k1 l  m1 n  p1
i1 h  i1 h  p1 j  k1 l  m1 n
h  i1 h  i1 n  p1 j  k1 l  m1
i1 h  i1 h  m1 n  p1 j  k1 l
h  i1 h  i1 l  m1 n  p1 j  k1
i1 h  i1 h  k1 l  m1 n  p1 j
"""


def _parse(table):
    grid = []
    for line in table.strip().splitlines():
        row = []
        for cell in line.split():
            if cell.endswith("1"):
                row.append((cell[0], 1))
            else:
                row.append((cell, 0))
        grid.append(tuple(row))
    assert len(grid) == 10 and all(len(r) == 10 for r in grid)
    return tuple(grid)


TEMPLATE_CELLS = _parse(_CELLS)
SUMMED_CELLS = _parse(_SUMMED_CELLS)

TWO_ORBIT_TWIST = floor_profile(1, 2, 4) + floor_profile(1, 2, 6)
TWO_ORBIT_PERM = Permutation((1, 2, 3, 0, 5, 6, 7, 8, 9, 4))


def two_orbit_rows(values):
    """Matrix of the template at the given symbol assignment."""
    return tuple(
        tuple(values[sym] + off for sym, off in row) for row in TEMPLATE_CELLS
    )


def two_orbit_data(values):
    return equivariant_data(
        two_orbit_rows(values), TWO_ORBIT_TWIST, TWO_ORBIT_PERM
    )


def two_orbit_summed(values):
    """Expected fold of the template, from the transcribed doubled layout."""
    return tuple(
        tuple(2 * values[sym] + off for sym, off in row)
        for row in SUMMED_CELLS
    )


def two_orbit_block_min(values):
    v = values
    return (
        (
            min(2 * v["b"], 2 * v["c"] + 1, 2 * v["d"], 2 * v["e"] + 1),
            min(2 * v["f"], 2 * v["g"] + 1),
        ),
        (
            min(2 * v["h"], 2 * v["i"] + 1),
            min(
                2 * v["j"],
                2 * v["k"] + 1,
                2 * v["l"],
                2 * v["m"] + 1,
                2 * v["n"],
                2 * v["p"] + 1,
            ),
        ),
    )


# An assignment at which the transposed template is a basic, N-graded
# Gorenstein order: Nakayama permutation TWO_ORBIT_PERM, p = -3 - twist.
GORENSTEIN_VALUES = dict(
    b=0, c=4, d=2, e=2, f=3, g=3, h=1, i=1, j=0, k=4, l=1, m=3, n=1, p=3
)


def two_orbit_order():
    """The two-orbit Gorenstein order at GORENSTEIN_VALUES (validated)."""
    return ExponentMatrix.from_rows(tuple(zip(*two_orbit_rows(GORENSTEIN_VALUES))))
