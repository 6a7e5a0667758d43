"""Rank-one lattices, the tilting poset, and its Hasse quiver.

A rank-one lattice over a tiled order is recorded by its exponent vector v,
valid when v(j) <= min_i (v(i) + m(i,j)).  For a Gorenstein order with all
parameters p_i <= 0, truncating the shifted projectives gives the finite
poset of basic tilting summands: the vectors truncate_shift(row nu(i), j) for
1 <= j <= -p_i together with the zero vector, ordered componentwise.  The
Hasse quiver points from larger to smaller, so the zero vector is the unique
sink.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import groupby
from operator import add

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidLatticeError,
    NotNGradedError,
    PositiveParameterError,
    TooLargeError,
)
from .gorenstein import GorensteinData, cyclic_order
from .orders import ExponentMatrix, Record, Vector, first_negative, freeze_vector

# Largest poset hasse_quiver accepts.  Its bitsets take k * k / 8 bytes, about
# 50 MB at this size.
HASSE_LIMIT = 20_000
# Largest k * n, summands times their length, that tilting_summands builds.
# At this size `tiledorder tilting` peaks at about 235 MB of RSS for n = 2,
# where each summand's own objects dominate, and at 26 MB for n = 100.
TILTING_LIMIT = 1_000_000


def _lattice_vector(m: ExponentMatrix, v: Sequence[int]) -> tuple[Vector, bool]:
    """v frozen, and whether it is the exponent vector of a rank-one lattice."""
    vec = freeze_vector(v)
    if len(vec) != m.n:
        raise DimensionMismatchError(
            f"vector has length {len(vec)}, expected {m.n}"
        )
    return vec, all(x <= min(map(add, vec, col)) for x, col in zip(vec, m.transpose()))


def is_lattice_vector(m: ExponentMatrix, v: Sequence[int]) -> bool:
    """Whether v is the exponent vector of a rank-one lattice over m."""
    return _lattice_vector(m, v)[1]


def _truncate(vec: Vector, j: int) -> Vector:
    # max(x - j, 0) for every x; a list comprehension with no max call is
    # the cheapest form, and _truncate runs once per tilting summand.
    return tuple([x - j if x > j else 0 for x in vec])


def truncate_shift(v: Sequence[int], j: int) -> Vector:
    """Shift down by j and truncate at zero: max(v_i - j, 0) componentwise."""
    return _truncate(freeze_vector(v), j)


def hom_dim(m: ExponentMatrix, v: Sequence[int], w: Sequence[int], t: int) -> int:
    """dim Hom in degree t between the lattices of v and w: 1 iff t >= max(w - v)."""
    frozen = []
    for vec in (v, w):
        vec, ok = _lattice_vector(m, vec)
        if not ok:
            raise InvalidLatticeError(
                "vector is not a valid rank-one lattice", witness=list(vec)
            )
        frozen.append(vec)
    vv, ww = frozen
    return 1 if t >= max(b - a for a, b in zip(vv, ww)) else 0


def _check_nonpositive(g: GorensteinData) -> None:
    for i, pi in enumerate(g.p):
        if pi > 0:
            raise PositiveParameterError(
                f"parameter p_{i} = {pi} > 0; the tilting poset is infinite",
                witness=i,
            )


def _check_n_graded(m: ExponentMatrix) -> None:
    negative = first_negative(m.rows)
    if negative is not None:
        i, j = negative
        raise NotNGradedError(
            f"entry m({i},{j}) = {m.entry(i, j)} < 0; the order is not N-graded",
            witness=negative,
        )


def tilting_summands(
    m: ExponentMatrix, g: GorensteinData
) -> list[tuple[tuple[tuple[int, int], ...], Vector]]:
    """Distinct tilting summand vectors with their (i, j) labels.

    Enumerates truncate_shift(row nu(i), j) for 1 <= j <= -p_i + 1 in label
    order; j = -p_i + 1 is the first truncation that collapses to zero, so the
    zero vector appears once, carrying one label per index.  Nonzero vectors
    are pairwise distinct lattice vectors, one label each: k = 1 - sum(p) in
    all.  Requires all p_i <= 0, then k * n <= TILTING_LIMIT (TooLargeError,
    witness k * n, before any summand is built), then an N-graded m
    (NotNGradedError with the first negative entry in row-major order
    otherwise), and g = detect_gorenstein(m) or cyclic_order's pair.  Why
    none of the rest needs a check:
    - m(nu(s), j) = ell_s - m(j, s) <= ell_s = 1 - p_s, equal at j = s.
    - (s, j) != (t, k) give different vectors: coordinate s differs if
      s = t; else equal coordinates s and t give m(s,t) + m(t,s) = 0, but a
      detected order is basic (see detect_gorenstein).
    - Rows of m, their shifts and (m being N-graded) zero are lattice
      vectors, and so is the componentwise max of two lattice vectors.
    """
    n = m.n
    k = grothendieck_rank(g)  # PositiveParameterError first
    if k * n > TILTING_LIMIT:
        raise TooLargeError(
            f"{k} summands of length {n} exceed the tilting limit of "
            f"{TILTING_LIMIT} entries",
            witness=k * n,
        )
    _check_n_graded(m)
    found: dict[Vector, list[tuple[int, int]]] = {}
    order: list[Vector] = []
    for s in range(n):
        row = m.row(g.nu(s))
        for j in range(1, -g.p[s] + 2):
            vec = _truncate(row, j)
            if vec not in found:
                found[vec] = []
                order.append(vec)
            found[vec].append((s, j))
    return [(tuple(found[vec]), vec) for vec in order]


class TiltingPoset(Record):
    """The tilting summand vectors under the componentwise order."""

    elements: tuple[Vector, ...]  # sorted lexicographically, zero first
    labels: Mapping[Vector, tuple[tuple[int, int], ...]]


def tilting_poset(m: ExponentMatrix, g: GorensteinData) -> TiltingPoset:
    """The poset of tilting_summands' 1 - sum(p) vectors >= 0, least element 0."""
    summands = tilting_summands(m, g)
    elements = tuple(sorted(vec for _, vec in summands))
    labels = {vec: labs for labs, vec in summands}
    return TiltingPoset(elements=elements, labels=labels)


class Quiver(Record):
    """A finite quiver: sorted vertices, sorted distinct arrows, else ValueError."""

    vertices: tuple
    arrows: tuple

    def __init__(self, vertices: tuple, arrows: tuple):
        ends = {v for arrow in arrows for v in arrow}
        if len(set(arrows)) < len(arrows) or ends - set(vertices):
            raise ValueError("arrows must be distinct pairs of vertices")
        super().__init__(vertices, arrows)


def check_hasse_size(k: int) -> None:
    """Raise TooLargeError, witness k, for a poset of k > HASSE_LIMIT elements."""
    if k > HASSE_LIMIT:
        raise TooLargeError(
            f"poset has {k} elements, exceeds Hasse limit {HASSE_LIMIT}", witness=k
        )


def hasse_quiver(poset: TiltingPoset) -> Quiver:
    """Cover arrows of the poset, drawn from larger to smaller element.

    below[i] is the bitset of the elements u <= els[i], i itself included: the
    AND over coordinates c of {u : u_c <= els[i]_c}, where one sort per
    coordinate gives every such prefix set.  The elements are sorted
    lexicographically, and the lexicographic order extends the componentwise
    one, so the highest bit j of below[i] minus i is maximal below els[i]:
    i -> j is a cover.  Clearing below[j] and repeating finds every cover of i
    and nothing else, a transitive reduction (Aho, Garey and Ullman, 1972).
    That is O(k * n + arrows) big-int operations on k-bit integers and k * k / 8
    bytes of bitsets; posets above HASSE_LIMIT elements raise TooLargeError.
    """
    els = poset.elements
    k = len(els)
    check_hasse_size(k)
    below = [-1] * k
    for column in zip(*els):
        mask = 0
        by_value = sorted(range(k), key=column.__getitem__)
        for _, group in groupby(by_value, key=column.__getitem__):
            group = list(group)
            for j in group:
                mask |= 1 << j
            for j in group:
                below[j] &= mask
    arrows = []
    for i, v in enumerate(els):
        covers = []
        cand = below[i] ^ (1 << i)
        while cand:
            j = cand.bit_length() - 1
            covers.append((v, els[j]))
            cand &= ~below[j]
        arrows.extend(reversed(covers))  # ascending (i, j) is the sorted order
    return Quiver(vertices=els, arrows=tuple(arrows))


def grothendieck_rank(g: GorensteinData) -> int:
    """Number of tilting summands, 1 - sum(p); requires all p_i <= 0."""
    _check_nonpositive(g)
    return 1 - sum(g.p)


def tilde_index_sets(
    g: GorensteinData,
) -> tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]:
    """Index pairs of the endomorphism blocks: proper truncations and zero slots."""
    proper = frozenset(
        (s, i) for s in range(g.n) for i in range(1, -g.p[s] + 1)
    )
    zero_slots = frozenset((s, -g.p[s] + 1) for s in range(g.n))
    return proper, zero_slots


def endo_block_dim(
    m: ExponentMatrix,
    g: GorensteinData,
    source: tuple[int, int],
    target: tuple[int, int],
) -> int:
    """Dimension of the endomorphism-algebra block between two summand slots.

    For slots (s,i) and (t,j) of proper truncations the dimension is
    [j - i >= m(nu(t), nu(s))]; maps out of a zero slot into a proper one
    vanish; maps into a zero slot are one-dimensional.  Raises as
    tilting_summands does.  With g = detect_gorenstein(m) this is
    hom_dim(m, v, w, 0) = [w <= v] for the truncations v, w of rows nu(s),
    nu(t) at i, j (zero exactly at zero slots): if j - i >= m(nu t, nu s),
    w <= v by the triangle inequality; if w <= v, coordinate t gives
    ell_t - j <= m(nu s, t) - i, and ell_t - m(nu s, t) = m(nu t, nu s).
    """
    _check_nonpositive(g)
    _check_n_graded(m)
    proper, zero_slots = tilde_index_sets(g)
    for slot in (source, target):
        if slot not in proper and slot not in zero_slots:
            raise IndexOutOfRangeError(
                f"slot {slot} is outside the summand index set", witness=list(slot)
            )
    s, i = source
    t, j = target
    if target in zero_slots:
        return 1
    if source in zero_slots:
        return 0
    return 1 if j - i >= m.entry(g.nu(t), g.nu(s)) else 0


def cyclic_hasse_oracle(weights: Sequence[int]) -> Quiver:
    """The Hasse quiver of a cyclic order, built from the closed-form rules.

    Vertices are (rho, j) pairs plus zero.  The line at row rho holds
    -p[(rho-1) mod n] vertices, p <= 0 the parameters of
    cyclic_order(weights).  Arrows:
      (a) (rho, j) -> (rho, j+1) when the target exists;
      (b) (rho, j) -> ((rho-1) mod n, j + w[(rho-1) mod n]) for
          1 <= j <= -p[(rho-2) mod n] - w[(rho-1) mod n];
      (c) the last vertex of each line points to zero.

    Independent of the cover computation: the rules name vertices by (rho, j),
    and each vertex is translated once, to the truncation of row rho at j;
    the arrows are mapped through that table, so the whole quiver costs k +
    arrows tuple operations of length n.  Line rho holds the proper tilting
    summands of index rho - 1, so the translated vertices are distinct (see
    tilting_summands).
    """
    m, g = cyclic_order(weights)
    _check_nonpositive(g)
    w, n = tuple(weights), m.n
    line = [-g.p[(rho - 1) % n] for rho in range(n)]
    vector = {
        (rho, j): _truncate(m.row(rho), j)
        for rho in range(n)
        for j in range(1, line[rho] + 1)
    }
    zero = (0,) * n
    arrows = []
    for (rho, j), v in vector.items():
        prev = (rho - 1) % n
        arrows.append((v, vector[rho, j + 1] if j < line[rho] else zero))  # (a), (c)
        if j <= line[prev] - w[prev]:  # (b)
            arrows.append((v, vector[prev, j + w[prev]]))
    vertices = tuple(sorted([zero, *vector.values()]))
    return Quiver(vertices=vertices, arrows=tuple(sorted(arrows)))
