"""Exponent matrices of tiled orders, with exact integer arithmetic.

A tiled order over a discrete valuation ring is recorded by its n x n integer
exponent matrix m with zero diagonal and the triangle inequality
m(i,j) + m(j,k) >= m(i,k).  Everything downstream (Gorenstein detection,
conjugation, tilting posets) works on these values; no floats anywhere.
Indices are 0-based throughout.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import repeat

from .errors import (
    DimensionMismatchError,
    NonSquareError,
    NonzeroDiagonalError,
    NotBijectiveError,
    TriangleViolationError,
)

Vector = tuple[int, ...]
Rows = tuple[Vector, ...]
Packing = tuple[int, int, int, list[int], list[int]]  # see _packing
TABLE_PAIRS = 1024  # see _broadcasts


class _RecordType(type):
    """Makes a class's annotated names its __slots__, and their values defaults."""

    def __new__(mcs, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        return super().__new__(mcs, name, bases, {**ns, "__slots__": fields})


class Record(metaclass=_RecordType):
    """Frozen record of the subclass's annotated fields, equal only within a class."""

    def __init__(self, *args, **kwargs):
        values = {**self._defaults, **dict(zip(self.__slots__, args)), **kwargs}
        if len(args) > len(self.__slots__) or values.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._key()


def freeze_vector(values: Iterable[int]) -> Vector:
    return tuple(map(operator.index, values))


def freeze_rows(rows: Iterable[Sequence[int]]) -> Rows:
    return tuple(map(freeze_vector, rows))


def lowest_terms(num: int, den: int) -> tuple[int, int]:
    """(num, den) divided by their gcd, for den > 0: the fraction num/den reduced.

    Euclid's loop, as ``math`` and ``fractions`` cost more to import than a
    CLI run spends here.
    """
    g, r = den, num % den
    while r:
        g, r = r, g % r
    return num // g, den // g


def _packed(row: Vector, lo: int, size: int) -> int:
    """The int whose little-endian field k of size bytes holds row[k] - lo >= 0."""
    shifted = map(operator.sub, row, repeat(lo))
    fields = map(int.to_bytes, shifted, repeat(size), repeat("little"))
    return int.from_bytes(b"".join(fields), "little")


def _packed_rows(rows: Sequence[Vector], size: int, top: int) -> list[int]:
    """``_packed(row, -half, size)`` for each row, half = 2**(8*size-1).

    A field of 1, 2, 4 or 8 bytes is a signed little-endian struct item, x
    mod 2**(8*size), and flipping its top bit (set in ``top``) gives x + half.
    Wider fields take ``_packed``.
    """
    if size > 8:
        return [_packed(row, -(1 << (8 * size - 1)), size) for row in rows]
    import struct

    pack = struct.Struct("<%d%s" % (len(rows[0]), "bhiq"[size.bit_length() - 1])).pack
    return [int.from_bytes(pack(*row), "little") ^ top for row in rows]


def _packing(rows: Rows) -> Packing:
    """(size, ones, top, packed, cols): square rows and columns packed into ints.

    Field k (w = 8 * size bits, size 1, 2, 4, 8 or more bytes) of packed[j]
    and of cols[j] holds m(j,k) + half and m(k,j) + half, half = 2**(w-1) >
    span = 2 * (hi - lo), hi = max(0, max m), lo = min(0, min m).  ``ones``
    has 1 in each of the n fields and ``top`` = half * ones.  ``_defects``
    sums packed[t] + cols[s] - top - (m(t,s) + c) * ONES: with X_u = m(t,u) +
    m(u,s) - m(t,s), its field u is X_u + half - c, and 2 * lo - hi <= X_u <=
    2 * hi - lo gives |X_u| <= span < half, so for c in {0, 1} no field
    borrows and the top bit is set iff X_u >= c.  It takes about twice the
    memory of the input.
    """
    span = 2 * (max(0, *map(max, rows)) - min(0, *map(min, rows)))
    size = span.bit_length() // 8 + 1
    if size <= 8:
        size = 1 << (size - 1).bit_length()  # a struct item: 1, 2, 4 or 8 bytes
    ones = int.from_bytes(b"\1".ljust(size, b"\0") * len(rows), "little")
    top = ones << (8 * size - 1)
    cols = _packed_rows(list(zip(*rows)), size, top)
    return size, ones, top, _packed_rows(rows, size, top), cols


def _broadcast(size: int, ones: int, n: int) -> Callable[[int], int]:
    """x -> x * ONES for |x| < 2**(8 * size), ONES having 1 in n fields of size bytes.

    Up to 8 bytes this is the product.  Wider, |x|'s size bytes are repeated
    n times: linear in the length, where the product of a wide x by ONES is
    not.
    """
    if size <= 8:
        return ones.__mul__

    def repeated(x: int) -> int:
        y = int.from_bytes(abs(x).to_bytes(size, "little") * n, "little")
        return -y if x < 0 else y

    return repeated


class _PerPair(dict):
    """An empty table x -> spread(x): each read makes its entry afresh."""

    def __init__(self, spread: Callable[[int], int]):
        self.spread = spread

    def __missing__(self, x: int) -> int:
        return self.spread(x)


def _broadcasts(rows: Rows, packing: Packing, scanned: Sequence[int]) -> dict | None:
    """x -> x * ONES (``_broadcast``) for the values x of the scanned rows, or None.

    A table of every value, when the scan covers TABLE_PAIRS (row, column)
    pairs or more and its rows hold at most 2n values: as many ints as
    ``_packing`` holds (the count stops at 2n + 1).  A smaller scan does not
    repay the table's entries.  Otherwise None for fields of up to 8 bytes,
    where ``_defects`` takes the product per pair, and for wider fields a
    ``_PerPair`` table, whose reads repeat bytes.
    """
    size, n = packing[0], len(rows)
    if len(scanned) * n >= TABLE_PAIRS:
        values: set[int] = set()
        for t in scanned:
            values.update(rows[t])
            if len(values) > 2 * n:
                break
        else:
            return dict(zip(values, map(_broadcast(size, packing[1], n), values)))
    return _PerPair(_broadcast(size, packing[1], n)) if size > 8 else None


def _defects(rows: Rows, packing: Packing, c: int, scanned: Iterable[int]):
    """Per t in scanned, per s: packed[t] + cols[s] - top - (m(t,s) + c) * ONES.

    Field u of sum s has its top bit set iff X_u >= c (_packing); the other
    bits are not masked off.  x * ONES is read from ``_broadcasts``' table
    when there is one (a dict lookup, no new int), else it is the product.
    """
    _, ones, top, packed, cols = packing
    scanned = list(scanned)
    table = _broadcasts(rows, packing, scanned)
    for t in scanned:
        base = packed[t] - top - c * ones
        yield [
            base + q - (x * ones if table is None else table[x])
            for q, x in zip(cols, rows[t])
        ]


def first_triangle_violation(
    rows: Rows, scanned: Iterable[int] | None, packing: Packing
) -> tuple[int, int, int] | None:
    """First (i, j, k) with m(i,j) + m(j,k) < m(i,k), scanning lexicographically.

    Only rows i in ``scanned`` (any increasing iterable; all when None) are
    scanned: with a Nakayama permutation its orbits' least points suffice
    (see _validated).  Each row is read through ``_defects`` at c = 0 on the
    rows' ``_packing``: field j of sum k has its top bit clear iff m(i,j) +
    m(j,k) < m(i,k).  One AND of the row's sums tests the row; only the
    first failing row is masked sum by sum.  As its first violating j is the
    least j_k, the first clear field of sum k, the least (i, j_k, k) is the
    first.
    """
    top, n = packing[2], len(rows)
    scanned = range(n) if scanned is None else list(scanned)
    for i, sums in zip(scanned, _defects(rows, packing, 0, scanned)):
        if reduce(operator.and_, sums) & top != top:
            row = rows[i]
            return min(
                (i, next(j for j in range(n) if row[j] + rows[j][k] < row[k]), k)
                for k, x in enumerate(sums) if x & top != top
            )
    return None


def _square(rows: Iterable[Sequence[int]]) -> Rows:
    """Frozen rows; NonSquareError / NonzeroDiagonalError on structural defects."""
    frozen = freeze_rows(rows)
    n = len(frozen)
    if n == 0:
        raise NonSquareError("matrix must be non-empty and square")
    for i, row in enumerate(frozen):
        if len(row) != n:
            raise NonSquareError(
                f"row {i} has length {len(row)}, expected {n}", witness=i
            )
    for i in range(n):
        if frozen[i][i] != 0:
            raise NonzeroDiagonalError(
                f"diagonal entry ({i},{i}) is {frozen[i][i]}, expected 0", witness=i
            )
    return frozen


def _nakayama_fits(rows: Rows, packing: Packing) -> Iterator[list[int]]:
    """For each column i in turn, the rows u with m(u,x) + m(x,i) constant in x.

    Those whose pattern (m(u,x) - m(u,0))_x is i's (m(0,i) - m(x,i))_x, the
    constant being m(u,0) + m(0,i): one hash per row and one lookup per column.
    A pattern is keyed by one int in ``_packing``'s layout: row u by
    packed[u] - m(u,0) * ONES, column i by (m(0,i) + 2 * half) * ONES -
    cols[i].  Field x of the two keys is m(u,x) - m(u,0) + half and
    m(0,i) - m(x,i) + half; each difference lies within hi - lo <
    half of 0, so each field lies in (0, 2**w), no field borrows, and equal
    keys are equal patterns.  No triangle inequality is needed.
    """
    _, ones, top, packed, cols = packing
    fitting: dict[int, list[int]] = {}
    for u, key in enumerate([p - row[0] * ones for row, p in zip(rows, packed)]):
        fitting.setdefault(key, []).append(u)
    base = top << 1  # 2 * half * ONES
    for m0i, q in zip(rows[0], cols):
        yield fitting.get(base + m0i * ones - q, [])


def _is_basic(rows: Rows, packing: Packing) -> bool:
    """m(i,j) + m(j,i) > 0 for all i != j, on zero-diagonal rows.

    ``_defects``' c = 1 sum at s = t, packed[t] + cols[t] - top - ONES on the
    rows' ``_packing``, has its top bit set in field u iff m(t,u) + m(u,t) >=
    1, so in all n fields but u = t iff row t is basic.
    """
    _, ones, top, packed, cols = packing
    base, others = top + ones, len(rows) - 1
    return all((p + q - base & top).bit_count() == others for p, q in zip(packed, cols))


def _relaxer(rows: Rows) -> tuple[list[int], Callable[[], Iterator[tuple[int, int]]]]:
    """(dist, relaxations): Bellman-Ford on square rows with m(i,i) >= 0, from 0.

    Each call of relaxations runs one pass.  It takes each stale i in increasing
    order (every i is stale before the first pass), clears it, lowers every
    dist[j] > dist[i] + m(i,j) to that value, makes j stale and yields
    (i, j), in increasing j: the relaxations of a scalar loop over i and j.

    One masked sum tests row i: field j (w = 8 * size bits, half =
    2**(w-1)) of ``packed`` holds dist[j] + half, and that of gaps[i] =
    (half - 1) * ONES - ``_packed``(row i, -half) holds -1 - m(i,j), so field
    j of packed + gaps[i] - dist[i] * ONES is X_j + half, X_j = dist[j] -
    m(i,j) - dist[i] - 1, whose top bit is set iff j relaxes, as long as
    |X_j| < half: then no field borrows.  This holds for n + 1 passes.  dist
    starts at 0, only decreases, and dist[j] set through i is the weight of
    dist[i]'s walk plus one edge.  Rows go in increasing order, so a pass
    adds at most n edges to a walk, and lo * n(n + 1) <= dist <= 0, lo =
    min(0, min m).  So |X_j| <= (n(n + 1) + 1) * span + 1 < half, span =
    max(0, max m) - lo.  X_i = -m(i,i) - 1 < 0: the diagonal never relaxes.
    dist[i] * ONES comes from ``_broadcast`` (|dist[i]| < half), by repeated
    bytes in fields wider than 8 bytes.
    """
    n = len(rows)
    lo = min(0, *map(min, rows))
    span = max(0, *map(max, rows)) - lo
    size = ((n * (n + 1) + 1) * span + 1).bit_length() // 8 + 1
    w, half = 8 * size, 1 << 8 * size - 1
    ones = int.from_bytes(b"\1".ljust(size, b"\0") * n, "little")
    top = half * ones
    gaps = [top - ones - _packed(row, -half, size) for row in rows]
    spread = _broadcast(size, ones, n)
    dist, stale, packed = [0] * n, [True] * n, top

    def relaxations() -> Iterator[tuple[int, int]]:
        nonlocal packed
        for i, row, gap in zip(range(n), rows, gaps):
            if not stale[i]:
                continue
            stale[i] = False
            di = dist[i]
            mask = packed + gap - spread(di) & top
            while mask:
                j = (mask & -mask).bit_length() // w - 1
                x = di + row[j]
                packed -= dist[j] - x << w * j
                dist[j], stale[j] = x, True
                yield i, j
                mask &= mask - 1

    return dist, relaxations


def first_negative(rows: Rows) -> tuple[int, int] | None:
    """First (i, j) with m(i,j) < 0 in row-major order, or None when N-graded."""
    for i, row in enumerate(rows):
        if min(row) < 0:
            return i, next(j for j, x in enumerate(row) if x < 0)
    return None


def _validated(rows: Iterable[Sequence[int]]) -> tuple[Rows, list[list[int]]]:
    """(frozen rows, fits): NonSquare, then NonzeroDiagonal, then TriangleViolation.

    The rows are packed once, for the pattern matcher (``_nakayama_fits``,
    whose fits are returned for ``detect_gorenstein``) and the triangle scan.
    When each column fits exactly one row, those rows are the images of a
    permutation nu (``detect_gorenstein`` shows them distinct) and the scan
    reads one row per orbit of nu; otherwise it reads every row.

    nu satisfies m(nu i, x) + m(x, i) = ell_i for all i, x.  At x = nu j, and
    for j at x = i, that gives m(nu i, nu j) = m(i,j) + ell_i - ell_j, so the
    ells cancel in d(nu i, nu j, nu k) = d(i,j,k), the triangle defect.  A
    violation in row i recurs in the row of its orbit's least point, and
    ``orbits`` lists those in increasing order: the first violating one holds
    the first violation overall.  The triangle inequality is not used.
    """
    frozen = _square(rows)
    packing = _packing(frozen)
    fits = list(_nakayama_fits(frozen, packing))
    images = [u for fit in fits if len(fit) == 1 for u in fit]
    bases = None
    if len(images) == len(frozen):
        bases = [orbit[0] for orbit in Permutation(images).orbits()]
    violation = first_triangle_violation(frozen, bases, packing)
    if violation is not None:
        i, j, k = violation
        raise TriangleViolationError(
            f"m({i},{j}) + m({j},{k}) < m({i},{k})", witness=violation
        )
    return frozen, fits


class OrderReport(Record):
    """Outcome of validating a candidate exponent matrix."""

    triangle_ok: bool
    basic: bool
    n_graded: bool
    first_violation: tuple[int, int, int] | None = None

    @property
    def fully_valid(self) -> bool:
        return self.triangle_ok and self.basic and self.n_graded


def validate_order(rows: Iterable[Sequence[int]]) -> OrderReport:
    """Validate a square zero-diagonal integer matrix as a tiled-order matrix.

    Raises NonSquareError / NonzeroDiagonalError for structural defects; the
    triangle inequality, basicness (m(i,j) + m(j,i) > 0 off the diagonal) and
    N-gradedness (all entries >= 0) are reported, not raised.
    """
    frozen = _square(rows)
    packing = _packing(frozen)
    violation = first_triangle_violation(frozen, None, packing)
    return OrderReport(
        triangle_ok=violation is None,
        basic=_is_basic(frozen, packing),
        n_graded=first_negative(frozen) is None,
        first_violation=violation,
    )


class ExponentMatrix(Record):
    """An exponent matrix: square, zero diagonal, triangle inequality.

    ``from_rows`` is the validating constructor.  The plain one checks nothing
    and is used only where the result is proven (``morita_shift``,
    ``cyclic_order``) or validated (``_validated``, in ``files.order_pair``).
    """

    rows: Rows

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "ExponentMatrix":
        """Validate rows: NonSquare, then NonzeroDiagonal, then TriangleViolation.

        The checks are ``_validated``'s, whose triangle scan reads one row per
        Nakayama orbit when the rows have a Nakayama permutation.
        """
        return cls(_validated(rows)[0])

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def transpose(self) -> Rows:
        return tuple(zip(*self.rows))


class Permutation(Record):
    """A permutation of {0, ..., n-1}, stored by its tuple of images."""

    images: Vector

    def __init__(self, images: Iterable[int]):
        images = freeze_vector(images)
        if sorted(images) != list(range(len(images))):
            raise NotBijectiveError(
                "images do not form a bijection of the index set", witness=list(images)
            )
        super().__init__(images)

    @classmethod
    def cycle(cls, n: int) -> "Permutation":
        """The n-cycle i -> i+1 (mod n)."""
        return cls(tuple((i + 1) % n for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def orbits(self) -> tuple[Vector, ...]:
        """Orbits, each listed from its smallest element following the permutation."""
        seen = [False] * self.n
        result = []
        for start in range(self.n):
            if seen[start]:
                continue
            orbit = []
            i = start
            while not seen[i]:
                seen[i] = True
                orbit.append(i)
                i = self.images[i]
            result.append(tuple(orbit))
        return tuple(result)


def check_shift(s: Sequence[int], n: int) -> Vector:
    shift = freeze_vector(s)
    if len(shift) != n:
        raise DimensionMismatchError(
            f"shift vector has length {len(shift)}, expected {n}"
        )
    return shift


def conjugate_rows(rows: Rows, shift: Vector) -> Rows:
    """m(i,j) + s(i) - s(j) for frozen rows and a frozen shift of the same length."""
    return tuple(
        [
            tuple([x + si - sj for x, sj in zip(row, shift)])
            for row, si in zip(rows, shift)
        ]
    )


def morita_shift(m: ExponentMatrix, s: Sequence[int]) -> ExponentMatrix:
    """Conjugate the exponent matrix: m'(i,j) = m(i,j) + s(i) - s(j).

    No re-validation is needed: the shifts cancel on the diagonal and in every
    cycle sum, so m'(i,i) = 0, each triangle defect m(i,j) + m(j,k) - m(i,k)
    and each m(i,j) + m(j,i) is unchanged.  N-gradedness may change and should
    be re-checked by callers that rely on it.
    """
    return ExponentMatrix(conjugate_rows(m.rows, check_shift(s, m.n)))
