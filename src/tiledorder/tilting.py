"""The tilting poset of a Gorenstein tiled order, and its Hasse quiver.

For a Gorenstein order with all parameters p_i <= 0, truncating the shifted
projectives gives the finite poset of basic tilting summands: the vectors
row nu(i) truncated at j, max(m(nu i, x) - j, 0), for 1 <= j <= -p_i, and
the zero vector, ordered componentwise.  The Hasse quiver points from larger
to smaller, so zero is the unique sink.  Both are built only after one size
check, k * n <= TILTING_LIMIT (see _lines).
"""

from __future__ import annotations

from operator import add

from .errors import NotNGradedError, PositiveParameterError, TooLargeError, str_limit
from .gorenstein import GorensteinData, cyclic_order
from .orders import ExponentMatrix, Record, Vector, _defects, _packing, first_negative

# The one size budget of `tiledorder tilting` and `tiledorder quiver`: the
# largest k * n, summands times their length, that _lines builds.  At k * n
# near 10**6 `tilting` peaks at 171, 52 and 27 MB of RSS for n = 2, 10 and 50
# (each summand's own objects dominate at n = 2), and `quiver --dot`, which
# writes its DOT lines as they come, at 139, 53 and 30 MB (child processes,
# Python 3.11, shared 2-vCPU Linux host).
TILTING_LIMIT = 1_000_000

Slot = tuple[int, int]  # (s, i): row nu(s) truncated at i
Labels = tuple[Slot, ...]


def _truncate(vec: Vector, j: int) -> Vector:
    # max(x - j, 0) for every x, in the cheapest form: it runs once per summand
    return tuple([x - j if x > j else 0 for x in vec])


def _check_n_graded(m: ExponentMatrix) -> None:
    negative = first_negative(m.rows)
    if negative is not None:
        i, j = negative
        raise NotNGradedError(
            f"entry m({i},{j}) = {m.entry(i, j)} < 0; the order is not N-graded",
            witness=negative,
        )


def _lines(m: ExponentMatrix, g: GorensteinData) -> list[list[Vector]]:
    """lines[s][i - 1] = T(s, i), row nu(s) truncated at 1 <= i <= L = -p_s,
    built after tilting_summands' checks, in its order.  With g =
    detect_gorenstein(m), 0 <= r_x = m(nu s, x) <= L + 1 (see tilting_summands),
    so for d = [L, ..., 1] + [0] * (L + 1), max(r_x - i, 0) for i = 1..L is the
    slice d[L + 1 - r_x : 2L + 1 - r_x]: the line is the n slices zipped."""
    k = grothendieck_rank(g)  # PositiveParameterError first
    if k * m.n > TILTING_LIMIT:
        raise TooLargeError(
            f"{_decimal(k)[0]} summands of length {m.n} exceed the tilting "
            f"limit of {TILTING_LIMIT} entries",
            witness=_decimal(k * m.n)[1],
        )
    _check_n_graded(m)
    lines = []
    for i, p in zip(g.nu.images, g.p):
        d = list(range(-p, 0, -1)) + [0] * (1 - p)
        lines.append(list(zip(*[d[1 - p - r : 1 - 2 * p - r] for r in m.rows[i]])))
    return lines


def tilting_summands(
    m: ExponentMatrix, g: GorensteinData
) -> list[tuple[Labels, Vector]]:
    """Distinct tilting summand vectors with their (i, j) labels.

    Lists row nu(i) truncated at j, 1 <= j <= -p_i, in label order, and
    after line 0 the zero vector with its n labels (i, -p_i + 1): k = 1 -
    sum(p) vectors.  Requires all p_i <= 0, then k * n <= TILTING_LIMIT
    (TooLargeError, witness k * n as _decimal gives it, before any summand
    is built), then an N-graded m (NotNGradedError, witness the first negative entry in
    row-major order), and g = detect_gorenstein(m), as ``files.order_pair`` gives.
    Why none of the rest needs a check:
    - m(nu(s), j) = ell_s - m(j, s) <= ell_s = 1 - p_s, equal at j = s.
    - (s, j) != (t, k) give different vectors: coordinate s differs if
      s = t; else equal coordinates s and t give m(s,t) + m(t,s) = 0, but a
      detected order is basic (see detect_gorenstein).
    """
    lines = _lines(m, g)
    out = [(((s, i),), v) for s, vs in enumerate(lines) for i, v in enumerate(vs, 1)]
    out.insert(len(lines[0]), (_zero_labels(g), (0,) * m.n))
    return out


def _zero_labels(g: GorensteinData) -> Labels:
    return tuple((s, 1 - p) for s, p in enumerate(g.p))


class TiltingPoset(Record):
    """The tilting summand vectors under the componentwise order.

    Slot (s, i), 1 <= i <= lengths[s] = -p_s, holds T(s, i), row nu(s)
    truncated at i, which is elements[ranks[s][i - 1]]; zero has rank 0.
    steps[t][s] = M(t, s) = m(nu t, nu s).  The order rule: T(t, j) <=
    T(s, i) exactly when j - i >= M(t, s).  If j - i >= M(t, s), then
    m(nu t, x) - j <= m(nu s, x) - i for every x by the triangle inequality.
    Conversely, coordinate t of T(t, j) is ell_t - j > 0, as m(nu t, t) =
    ell_t = 1 - p_t (see tilting_summands), so T(t, j) <= T(s, i) gives
    ell_t - j <= m(nu s, t) - i, and ell_t - m(nu s, t) = m(nu t, nu s) by
    the Gorenstein relation (see detect_gorenstein).
    """

    elements: tuple[Vector, ...]  # sorted lexicographically, zero first
    lengths: Vector
    steps: tuple[Vector, ...]
    ranks: tuple[Vector, ...]


def tilting_poset(m: ExponentMatrix, g: GorensteinData) -> TiltingPoset:
    """The poset of tilting_summands' 1 - sum(p) vectors >= 0, least element 0."""
    lines = _lines(m, g)
    vecs = [(0,) * m.n] + [v for vs in lines for v in vs]  # distinct, slot order
    order = sorted(range(len(vecs)), key=vecs.__getitem__)
    # the ranks of vecs[1:] in turn: order[0] = 0, so order's inverse on 1..k-1
    rank = iter(sorted(range(1, len(vecs)), key=order.__getitem__))
    nu = g.nu.images
    return TiltingPoset(
        elements=tuple([vecs[j] for j in order]),
        lengths=tuple([-p for p in g.p]),
        steps=tuple(tuple([m.rows[t][s] for s in nu]) for t in nu),
        ranks=tuple(tuple(next(rank) for _ in line) for line in lines),
    )


class Quiver(Record):
    """A finite quiver: distinct arrows whose ends are vertices, else ValueError.

    Stored as the vertices and, per arrow a -> b, the rank code
    rank(a) * k + rank(b), k = len(vertices), where rank(v) is the last
    position of v in vertices.  ``arrows`` rebuilds the pairs from the codes,
    so each end is the vertex object itself, and files.quiver_dot labels an
    end by its rank.  Equality and hash compare (vertices, codes): for equal
    vertex tuples the codes are a function of the arrows and the arrows a
    function of the codes (vertices[c // k], vertices[c % k]), so equal codes
    mean equal arrows and back, as comparing (vertices, arrows) would give.
    """

    vertices: tuple
    codes: tuple

    def __init__(self, vertices: tuple, arrows: tuple):
        k = len(vertices)
        rank = {v: r for r, v in enumerate(vertices)}
        try:
            codes = tuple([rank[a] * k + rank[b] for a, b in arrows])
            distinct = len(set(codes)) == len(codes)
        except KeyError:  # an end that is not a vertex
            distinct = False
        if not distinct:
            raise ValueError("arrows must be distinct pairs of vertices")
        super().__init__(vertices, codes)

    @property
    def arrows(self) -> tuple:
        v, k = self.vertices, len(self.vertices)
        return tuple([(v[c // k], v[c % k]) for c in self.codes])

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), (self.vertices, self.arrows)

    @classmethod
    def _built(cls, vertices: tuple, codes: tuple) -> Quiver:
        """The quiver without __init__'s check, for distinct vertices and rank
        codes that the caller proves distinct and in [0, k * k), k =
        len(vertices)."""
        q = cls.__new__(cls)
        Record.__init__(q, vertices, codes)
        return q


def _decimal(k: int) -> tuple[str, int | None]:
    """(str(k), k) for a size k > 0 in an error, or ("10**D or more", None)
    when str refuses k's digits (``errors.str_limit``)."""
    digits = str_limit(k)
    if digits:
        return f"10**{digits} or more", None
    return str(k), k


def hasse_quiver(poset: TiltingPoset) -> Quiver:
    """Cover arrows of the poset, drawn from larger to smaller element.

    Read off the slot labels (notation of TiltingPoset, L_s = lengths[s]).
    By the order rule proved there, the largest slot of line t below (s, i) is
    c_t = (t, i + M(t, s)), or (s, i + 1) for t = s, if i <= E_s(t) =
    L_t - M(t, s), or L_s - 1 for t = s; zero lies below all.  So (s, i)
    covers the maximal c_t, or zero if i > max_t E_s(t).  For all i and
    distinct t, u, s: c_t <= c_u iff M(t, u) + M(u, s) = M(t, s) (>= by the
    triangle inequality), say u dominates t; c_t <= c_s needs -1 >= 0; c_s <=
    c_u iff M(s, u) + M(u, s) = 1 (>= 1 as m is basic), say u dominates s.
    As m(nu t, nu s) = m(t, s) + p_s - p_t (detect_gorenstein), E_s(t) =
    L_s - m(t, s) <= L_s for t != s, and a u dominating t has m(u, s) <=
    m(t, s), or m(u, s) <= 1 if t = s, so E_s(u) >= E_s(t).  Hence line t
    gives a cover of every (s, i) with i <= E_s(t) if nothing dominates t,
    else none.  For t != s, X_u = M(t, u) + M(u, s) - M(t, s) >= 0 (triangle
    inequality) is 0 at u = s, t, so nothing dominates t iff n - 2 top bits,
    one per X_u >= 1, are set in the c = 1 sum (t, s) of orders._defects (on
    M packed by orders._packing).  Quiver's check cannot fail, so it is
    skipped: line t gives (s, i) at most one target, slots on different lines
    hold different elements (see tilting_summands) and zero is none of them,
    so the rank codes are distinct; every rank lies in [0, k), and the
    elements are distinct, so the codes are the Quiver's own.  Cost: O(n^2)
    packed operations on n-field ints, not O(n^3) small-int ones, one rank
    slice and one C-level map(add) of the line's heads a * k per line pair
    that gives covers, one sort of the codes (the arrows' order, as the
    elements are sorted), and no vector pair or hashing of vectors.  There
    is no size check here: a poset from tilting_poset has k * n <=
    TILTING_LIMIT, so the k vertices and at most k * n arrows (one per line,
    or zero, below each vertex) stay within that budget.
    """
    els = poset.elements
    k = len(els)
    lengths, steps, ranks = poset.lengths, poset.steps, poset.ranks
    codes = []  # arrow a -> b of ranks as a * k + b, which sorts as the pair
    packing = _packing(steps)
    top = packing[2]
    sums = list(_defects(steps, packing, 1, range(len(steps))))
    for s, (size, here, col) in enumerate(zip(lengths, ranks, zip(*steps))):
        heads = [a * k for a in here]
        if 1 not in map(add, steps[s], col):  # nothing dominates s
            codes += map(add, heads, here[1:])
        ends = [x - y for x, y in zip(lengths, col)]  # E_s(t)
        ends[s] = 0  # line s is done above
        for t, end in enumerate(ends):
            if end > 0 and (sums[t][s] & top).bit_count() == len(col) - 2:
                codes += map(add, heads, ranks[t][col[t]:end + col[t]])  # end <= size
        if max(ends) < size:  # as E_s(s) = L_s - 1, only (s, L_s) can cover zero
            codes.append(heads[-1])
    codes.sort()
    return Quiver._built(els, tuple(codes))


def grothendieck_rank(g: GorensteinData) -> int:
    """Number of tilting summands, 1 - sum(p); requires all p_i <= 0."""
    for i, pi in enumerate(g.p):
        if pi > 0:
            raise PositiveParameterError(
                f"parameter p_{i} = {pi} > 0; the tilting poset is infinite", witness=i
            )
    return 1 - sum(g.p)


def cyclic_hasse_oracle(weights: Sequence[int]) -> Quiver:
    """The Hasse quiver of a cyclic order, built from the closed-form rules.

    Vertices are zero and the pairs (rho, j), 1 <= j <= -p[(rho-1) mod n], p
    <= 0 the parameters of cyclic_order(weights).  Arrows:
      (a) (rho, j) -> (rho, j+1) when the target exists;
      (b) (rho, j) -> ((rho-1) mod n, j + w[(rho-1) mod n]) for
          1 <= j <= -p[(rho-2) mod n] - w[(rho-1) mod n];
      (c) the last vertex of each line points to zero.
    Independent of the cover computation, each (rho, j) is translated once,
    to row rho truncated at j (the proper summand (rho - 1, j), so they are
    distinct), and the arrows are mapped through that table: k + arrows
    tuple operations of length n.
    """
    m, g = cyclic_order(weights)
    grothendieck_rank(g)  # PositiveParameterError
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
