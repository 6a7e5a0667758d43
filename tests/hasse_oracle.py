"""Two Hasse cover computations, kept as independent test oracles.

`pairwise_hasse_quiver` is the direct O(k^2 * n) definition: test every
ordered pair with the componentwise order, record the strict down-set of
each element, and keep i -> j when nothing lies strictly between.
`bitset_hasse_quiver` compares the vectors too, one coordinate at a time,
with k-bit sets.  `tiledorder.hasse_quiver` reads the covers off the summand
labels instead and must agree with both arrow for arrow on every poset,
including cyclic orders with zero weights, where `cyclic_hasse_oracle` does
not describe the covers.

`lines_oracle` is `tiledorder.tilting._lines` as first written, one
`_truncate` call per summand after the same checks; the column-wise slices
that build the lines now must agree with it, errors included.

Beside them sit the lattice and endomorphism-block definitions that no
command of the package needs: `is_lattice_vector`, `truncate_shift`,
`hom_dim`, `tilde_index_sets` and `endo_block_dim`.  The tests check the
summands against them, and the order rule of `tiledorder.TiltingPoset`
against `leq`.  Only `hom_dim` raises `InvalidLatticeError`.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import groupby
from operator import add

from tiledorder import (
    DimensionMismatchError,
    DomainError,
    ExponentMatrix,
    GorensteinData,
    Quiver,
    TiltingPoset,
    TooLargeError,
    grothendieck_rank,
    tilting,
)
from tiledorder.orders import Vector, freeze_vector
from tiledorder.tilting import Slot, _check_n_graded, _truncate, _zero_labels

from cycle_oracles import IndexOutOfRangeError


class InvalidLatticeError(DomainError):
    code = "InvalidLattice"


def leq(v, w) -> bool:
    """Componentwise order on exponent vectors."""
    return all(a <= b for a, b in zip(v, w))


def pairwise_hasse_quiver(poset: TiltingPoset) -> Quiver:
    """Cover arrows of the poset, drawn from larger to smaller element."""
    els = poset.elements
    k = len(els)
    below = [0] * k  # bit j set when els[j] < els[i]
    for i in range(k):
        for j in range(k):
            if i != j and leq(els[j], els[i]):
                below[i] |= 1 << j
    above = [0] * k
    for i in range(k):
        mask = below[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            above[j] |= 1 << i
    arrows = []
    for i in range(k):
        mask = below[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if not below[i] & above[j]:  # nothing strictly between
                arrows.append((els[i], els[j]))
    return Quiver(vertices=els, arrows=tuple(sorted(arrows)))


def bitset_hasse_quiver(poset: TiltingPoset) -> Quiver:
    """Cover arrows of the poset, drawn from larger to smaller element.

    below[i] is the bitset of the elements u <= els[i], i itself included: the
    AND over coordinates c of {u : u_c <= els[i]_c}, where one sort per
    coordinate gives every such prefix set.  The elements are sorted
    lexicographically, and the lexicographic order extends the componentwise
    one, so the highest bit j of below[i] minus i is maximal below els[i]:
    i -> j is a cover.  Clearing below[j] and repeating finds every cover of i
    and nothing else, a transitive reduction (Aho, Garey and Ullman, 1972).
    That is O(k * n + arrows) big-int operations on k-bit integers and k * k / 8
    bytes of bitsets, with no size check: callers keep k small.
    """
    els = poset.elements
    k = len(els)
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


def lines_oracle(m: ExponentMatrix, g: GorensteinData) -> list[list[Vector]]:
    """lines[s][i - 1] = row nu(s) truncated at 1 <= i <= -p_s, one
    `_truncate` per summand, after PositiveParameter, TooLarge (against
    `tilting.TILTING_LIMIT` as it reads now) and NotNGraded checks."""
    k = grothendieck_rank(g)
    if k * m.n > tilting.TILTING_LIMIT:
        raise TooLargeError(
            f"{k} summands of length {m.n} exceed the tilting limit of "
            f"{tilting.TILTING_LIMIT} entries",
            witness=k * m.n,
        )
    _check_n_graded(m)
    rows = [m.row(i) for i in g.nu.images]
    return [[_truncate(r, i) for i in range(1, 1 - p)] for r, p in zip(rows, g.p)]


def _lattice_vector(m: ExponentMatrix, v: Sequence[int]) -> tuple[Vector, bool]:
    """v frozen, and whether it is the exponent vector of a rank-one lattice."""
    vec = freeze_vector(v)
    if len(vec) != m.n:
        raise DimensionMismatchError(f"vector has length {len(vec)}, expected {m.n}")
    return vec, all(x <= min(map(add, vec, col)) for x, col in zip(vec, m.transpose()))


def is_lattice_vector(m: ExponentMatrix, v: Sequence[int]) -> bool:
    """Whether v is the exponent vector of a rank-one lattice over m."""
    return _lattice_vector(m, v)[1]


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


def tilde_index_sets(g: GorensteinData) -> tuple[frozenset[Slot], frozenset[Slot]]:
    """Index pairs of the endomorphism blocks: proper truncations and zero slots."""
    proper = frozenset((s, i) for s in range(g.n) for i in range(1, -g.p[s] + 1))
    return proper, frozenset(_zero_labels(g))


def endo_block_dim(
    m: ExponentMatrix, g: GorensteinData, source: Slot, target: Slot
) -> int:
    """Dimension of the endomorphism-algebra block between two summand slots.

    For slots (s,i) and (t,j) of proper truncations the dimension is
    [j - i >= m(nu(t), nu(s))]; maps out of a zero slot into a proper one
    vanish; maps into a zero slot are one-dimensional.  Raises as
    tilting_summands does.  With g = detect_gorenstein(m) this is
    hom_dim(m, v, w, 0) = [w <= v] for the truncations v, w of rows nu(s),
    nu(t) at i, j (zero exactly at zero slots), by the order rule of
    tiledorder.TiltingPoset.
    """
    grothendieck_rank(g)  # PositiveParameterError
    _check_n_graded(m)
    proper, zero_slots = tilde_index_sets(g)
    for slot in (source, target):
        if slot not in proper and slot not in zero_slots:
            raise IndexOutOfRangeError(
                f"slot {slot} is outside the summand index set", witness=list(slot)
            )
    (s, i), (t, j) = source, target
    if target in zero_slots or source in zero_slots:
        return int(target in zero_slots)
    return int(j - i >= m.entry(g.nu(t), g.nu(s)))
