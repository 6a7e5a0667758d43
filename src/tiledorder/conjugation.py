"""The negative-cycle test and equivariant conjugation of integer matrices.

This module works with plain square integer matrices (no zero-diagonal or
triangle requirements).  Conjugating by a shift vector s sends m(i,j) to
m(i,j) + s(i) - s(j); all cycle sums are invariant, and a matrix admits a
non-negative conjugate exactly when every directed cycle sum is >= 0.  On top
of that sit the permutation-equivariant data (matrix, twist, perm) and the
normalization pipeline that conjugates such data into floor-aligned,
entrywise non-negative position.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import (
    DimensionMismatchError,
    EquivarianceViolationError,
    NegativeCycleError,
)
from .orders import ExponentMatrix, Permutation, Record, Rows, Vector
from .orders import _relaxer, check_shift, conjugate_rows, freeze_rows, lowest_terms


# _bellman_ford packs the rows (orders._relaxer) before pass SCALAR_PASSES
# of a matrix of n >= PACKED_FROM: packing costs several scalar passes, and
# a packed pass saves little below n = 32 (measured on CPython 3.11).
SCALAR_PASSES, PACKED_FROM = 8, 32


def _square(matrix: Sequence[Sequence[int]]) -> Rows:
    rows = freeze_rows(matrix)
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise DimensionMismatchError("matrix must be non-empty and square")
    return rows


def _bellman_ford(rows: Rows) -> tuple[list[int], tuple[int, ...] | None]:
    """Shortest-path potentials from a virtual zero-weight source.

    Returns (dist, None) when no negative cycle exists, in which case
    m(i,j) + dist(i) - dist(j) >= 0 for all i != j.  Otherwise returns
    (_, cycle), a deterministic simple cycle of negative sum in forward
    order, smallest index first; a negative diagonal entry is reported as a
    singleton before any relaxation.

    Relaxing j through i sets pred[j] = i, after which dist(j) >= dist(i) +
    m(i,j), as dist(i) only decreases; the relaxation closing a cycle of
    pred is strict, so every such cycle is negative (Cherkassky and Goldberg,
    Math. Programming 85, 1999).  Without a negative cycle n - 1 passes
    settle dist.  Let x be relaxed in pass n + 1: had its pred chain ended at
    an unrelaxed vertex after a simple path P, dist(x) >= m(P), though
    dist(x) <= m(P) held before that relaxation.  So n steps back from x lie
    on a cycle of pred.

    A row whose dist has not dropped since it was last scanned relaxes
    nothing, as dist(j) <= dist(i) + m(i,j) after that scan and dist only
    decreases; only the other, stale rows are scanned.  Without a negative
    entry nothing relaxes at all.  The passes from SCALAR_PASSES on, for n
    >= PACKED_FROM, test a row with one masked sum (``orders._relaxer``).
    Each shortcut keeps every relaxation, in the same order.
    """
    n = len(rows)
    if min(map(min, rows)) >= 0:  # dist = 0 relaxes nothing
        return [0] * n, None
    for i in range(n):
        if rows[i][i] < 0:
            return [], (i,)
    dist, pred, stale, relaxations = [0] * n, [-1] * n, [True] * n, None
    for p in range(n + 1):
        if p == SCALAR_PASSES and n >= PACKED_FROM:
            relaxations = _relaxer(rows, dist, stale)
        last = -1
        if relaxations is None:
            for i, row in enumerate(rows):
                if stale[i]:
                    stale[i] = False
                    di = dist[i]
                    for j, x in enumerate(row):
                        if di + x < dist[j]:
                            dist[j] = di + x
                            pred[j] = i
                            stale[j] = True
                            last = j
        else:
            for i, last in relaxations():
                pred[last] = i
        if last < 0:
            return dist, None
    for _ in range(n):
        last = pred[last]
    cycle = [last]
    v = pred[last]
    while v != last:
        cycle.append(v)
        v = pred[v]
    cycle.reverse()
    start = cycle.index(min(cycle))
    return [], tuple(cycle[start:] + cycle[:start])


def find_negative_cycle(
    matrix: Sequence[Sequence[int]],
) -> tuple[int, ...] | None:
    """A directed cycle with negative sum, or None.  Singletons cover the diagonal."""
    return _bellman_ford(_square(matrix))[1]


class EquivariantData(Record):
    """A square integer matrix with permutation-equivariance data.

    The twist vector controls how the matrix changes along the permutation:
    matrix(perm(i), perm(j)) = matrix(i,j) - twist(i) + twist(j).  Every orbit
    of the permutation has the same average twist r/g, kept as the int pair
    avg = (r, g) in lowest terms, g > 0.  Construct through equivariant_data(),
    which checks both conditions; order_equivariant_data and conjugate_data
    derive data that provably keeps them.
    """

    matrix: Rows
    twist: Vector
    perm: Permutation
    avg: tuple[int, int]
    orbits: tuple[Vector, ...]

    @property
    def n(self) -> int:
        return len(self.twist)

    @property
    def period(self) -> int:
        """Denominator g of the average twist; divides every orbit length."""
        return self.avg[1]

    @property
    def twist_avg(self) -> Fraction:
        """The average twist r/g, exact; ``fractions`` is imported when it is read."""
        from fractions import Fraction

        return Fraction(*self.avg)


def equivariant_data(
    matrix: Sequence[Sequence[int]],
    twist: Sequence[int],
    perm: Permutation,
) -> EquivariantData:
    """Validate and package (matrix, twist, perm) as equivariant data.

    Equal orbit averages follow: L steps of the relation, L the order of
    perm, give (L / |x|) * sum_x(twist) = (L / |y|) * sum_y(twist).
    """
    rows = _square(matrix)
    n = len(rows)
    tw = check_shift(twist, n)
    if perm.n != n:
        raise DimensionMismatchError(
            f"permutation acts on {perm.n} indices, matrix has {n}"
        )
    images = perm.images
    for i, (row, moved, ti) in enumerate(zip(rows, [rows[k] for k in images], tw)):
        got = [moved[k] for k in images]
        expected = [x - ti + t for x, t in zip(row, tw)]
        if got != expected:
            j = next(j for j, (a, b) in enumerate(zip(got, expected)) if a != b)
            raise EquivarianceViolationError(
                f"matrix(perm({i}), perm({j})) != matrix({i},{j}) "
                f"- twist({i}) + twist({j})",
                witness=(i, j),
            )
    orbits = perm.orbits()
    avg = lowest_terms(sum(tw[i] for i in orbits[0]), len(orbits[0]))
    return EquivariantData(matrix=rows, twist=tw, perm=perm, avg=avg, orbits=orbits)


def conjugate_data(ed: EquivariantData, s: Sequence[int]) -> EquivariantData:
    """Conjugate matrix and twist by s: m(i,j) + s(i) - s(j), a(i) + s(i) - s(perm i).

    No re-check is needed: in the equivariance relation the s terms cancel,
    and s(i) - s(perm i) sums to zero over each orbit, so the average twist
    and the orbits are unchanged.
    """
    shift = check_shift(s, ed.n)
    twist = _conjugate_twist(ed, shift)
    matrix = conjugate_rows(ed.matrix, shift)
    return EquivariantData(matrix, twist, ed.perm, ed.avg, ed.orbits)


def _conjugate_twist(ed: EquivariantData, shift: Vector) -> Vector:
    """The twist after conjugating by a frozen shift: a(i) + s(i) - s(perm i)."""
    return tuple([t + s - shift[k] for t, s, k in zip(ed.twist, shift, ed.perm.images)])


def order_equivariant_data(m: ExponentMatrix, g: GorensteinData) -> EquivariantData:
    """Equivariant data of a Gorenstein tiled order.

    The equivariance relation holds for the transposed exponent matrix (entry
    (i,j) records degrees of maps from projective j into projective i) with
    twist = -p; conjugating here by s matches morita_shift(m, -s) on the order
    side.  Requires the pair of ``files.order_pair``, g = detect_gorenstein(m),
    and then checks nothing: m(nu i, nu j) = m(i,j) + p_j - p_i transposes to
    the relation for twist -p, and every nu-orbit has parameter average p_av.
    """
    return EquivariantData(
        matrix=m.transpose(),
        twist=tuple(-x for x in g.p),
        perm=g.nu,
        avg=lowest_terms(-sum(g.p), g.n),
        orbits=g.nu.orbits(),
    )


def floor_align(ed: EquivariantData) -> Vector:
    """Shift making each orbit's twist equal the floor profile of the average.

    Walking an orbit (base point first), s(i) = (partial twist sum up to i)
    - floor(position * r / g), (r, g) = avg; the conjugated twist at position
    pos then equals floor((pos + 1) * r / g) - floor(pos * r / g), the floor
    profile of the average twist r/g, starting at the base point.
    """
    r, g = ed.avg
    s = [0] * ed.n
    for orbit in ed.orbits:
        run = 0
        for pos, i in enumerate(orbit):
            s[i] = run - (pos * r) // g
            run += ed.twist[i]
    return tuple(s)


def _fold_shift(twist: Vector, orbits: tuple[Vector, ...], g: int) -> list[int]:
    """c = -B, B(i) = sum_{k<g} A_k(i), A_k(i) = sum_{t<k} twist(perm^t i).

    The fold of equivariant data with this twist is g * m(i,j) + c(i) - c(j)
    (see normalize_equivariant).  Along an orbit from its base point, with P
    the prefix sums of the twist and Q those of P, A_k at position pos is
    P[pos + k] - P[pos], so B is Q[pos + g] - Q[pos] - g * P[pos]: O(n), as
    g divides every orbit length and one extra lap of g terms covers the wrap.
    """
    c = [0] * len(twist)
    for orbit in orbits:
        lap = [twist[i] for i in orbit]
        p = list(accumulate(lap + lap[:g], initial=0))
        q = list(accumulate(p, initial=0))
        for i, pi, q0, qg in zip(orbit, p, q, q[g:]):
            c[i] = g * pi - (qg - q0)
    return c


def _base_minima(
    matrix: Rows, c: Sequence[int], g: int, orbits: tuple[Vector, ...]
) -> Rows:
    """Block minima of a perm-invariant fold g * m(i,j) + c(i) - c(j), by base rows."""
    best = []
    for orbit in orbits:
        b = orbit[0]
        row = [g * x - cj for x, cj in zip(matrix[b], c)]
        best.append(tuple([min([row[j] for j in oy]) + c[b] for oy in orbits]))
    return tuple(best)


def normalize_equivariant(ed: EquivariantData) -> Vector:
    """Total shift conjugating the data into normalized position.

    Pipeline: floor-align by s1, take the orbit-block minima of the fold of
    the aligned data, find a non-negative conjugate sbar of those minima, and
    lift it back through the floor identification.  Requires every cycle sum
    of the matrix to be non-negative (NegativeCycleError with a witness on
    the original indices otherwise; a negative diagonal entry appears as a
    singleton cycle).

    The fold of data (m, twist, perm) of period g is summed(i,j) = sum_{k<g}
    m(perm^k i, perm^k j).  k steps of the equivariance relation give
    m(perm^k i, perm^k j) = m(i,j) - A_k(i) + A_k(j), A_k(i) = sum_{t<k}
    twist(perm^t i), so on any data summed(i,j) = g * m(i,j) - B(i) + B(j),
    B(i) = sum_{k<g} A_k(i).  Floor-aligned twists are floor profiles, of
    period g with any g consecutive terms summing to r, so A_g is constant,
    m is invariant under perm^g, and summed under perm: a shift by one power
    trades its term m(i,j) for the equal m(perm^g i, perm^g j).

    The aligned data are never built.  Conjugating by s1 turns the twist
    into the floor profile of each orbit from its base point, so the fold of
    the aligned data is g * m(i,j) + c(i) - c(j) with c = g * s1 - B, B
    computed from the aligned twist.  Being invariant under perm, it has
    F(perm^k b, j) = F(b, perm^-k j), and perm^-k maps each orbit onto
    itself, so the row of the base point b of orbit x holds the block
    minima of x: r rows of m are read, O(n + r * n + r^3) in all.

    Bellman-Ford on the r x r block minima (r orbits) decides the cycle test
    for m itself: the block minima have a negative cycle if and only if m
    has one.  The fold's cycle sums are g times those of m.  So a negative
    cycle of m maps to a closed walk of orbits whose block minima sum no
    higher, and a negative closed walk contains a negative cycle.
    Conversely the aligned fold is invariant under perm: take a pair
    (i, j) attaining the minimum of each edge x -> y of a negative quotient
    cycle, translate each next pair by the power of perm that maps its start
    onto the previous end, and after at most L rounds (L the order of perm)
    the chain closes into a walk of the fold with negative sum.  Only then
    is m searched for the witness.

    The output needs no check: with (r, g) = avg (r/g reduced) and a(i) =
    pos * r - sbar(x) for i at position pos of orbit x, its twist at i is
    floor((a(i) + r)/g) - floor(a(i)/g), a rotation of the floor profile as
    r is prime to g: floor-aligned and within 1 of r/g.  As sum_{k<g}
    floor((a + k * r)/g) = a + (r - 1)(g - 1)/2, its fold is summed(i,j) +
    sbar(x) - sbar(y) >= 0, and g * m'(i,j) is that plus (a(i) mod g) -
    (a(j) mod g) > -g, so the matrix m' is entrywise non-negative.
    """
    r, g = ed.avg
    s1 = floor_align(ed)
    minus_b = _fold_shift(_conjugate_twist(ed, s1), ed.orbits, g)
    c = [g * si + ci for si, ci in zip(s1, minus_b)]
    sbar, cycle = _bellman_ford(_base_minima(ed.matrix, c, g, ed.orbits))
    if cycle is not None:
        witness = find_negative_cycle(ed.matrix)
        raise NegativeCycleError(
            f"matrix has negative cycle {witness}", witness=witness
        )
    s2 = [0] * ed.n
    for x, orbit in enumerate(ed.orbits):
        for pos, i in enumerate(orbit):
            s2[i] = (pos * r) // g - (pos * r - sbar[x]) // g
    return tuple(s1[i] + s2[i] for i in range(ed.n))
