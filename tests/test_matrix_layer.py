"""The matrix layer's fast paths against the cubic code they replaced.

`matrix_oracles` holds the triple-loop triangle scan, the row-by-column
Gorenstein detection, the power-sum orbit fold and the staged normalize
pipeline unchanged; every test here is seeded and compares witnesses,
exception classes and results exactly.  The per-entry kernels are also
checked against their literal definitions, and the base-row block minima of
normalize against the every-row minima kept in `helpers`.
"""

import itertools
import random

import pytest

import matrix_oracles
from tiledorder import (
    AmbiguousNakayamaError,
    DomainError,
    EquivarianceViolationError,
    EquivariantData,
    ExponentMatrix,
    NegativeCycleError,
    NonSquareError,
    NonzeroDiagonalError,
    NotGorensteinError,
    Permutation,
    TriangleViolationError,
    conjugate_data,
    cyclic_order,
    detect_gorenstein,
    equivariant_data,
    find_negative_cycle,
    floor_align,
    morita_shift,
    normalize_equivariant,
    order_equivariant_data,
    validate_order,
)
from tiledorder import conjugation, files, orders

from equivariant_templates import SYMBOLS, two_orbit_data, two_orbit_order
import helpers
from equivariant_templates import two_orbit_block_min
from helpers import (
    base_minima,
    is_floor_aligned,
    kernel_fold,
    power_images,
    product_order,
)

HUGE = 10**400


def full_scan(rows):
    """The package's triangle scan of every row, on the rows' own packing."""
    return orders.first_triangle_violation(rows, None, orders._packing(rows))


def shortest_path_closure(rng, n, lo, hi):
    """A valid exponent matrix: closure of arc weights c(i,j) + s(i) - s(j), c >= 0.

    The shifts make entries negative without creating negative cycles.
    """
    s = [rng.randint(lo, hi) for _ in range(n)]
    d = [
        [0 if i == j else rng.randint(0, hi) + s[i] - s[j] for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def perturbed(rng, d, scale):
    """d scaled, with a few off-diagonal entries nudged by small amounts."""
    n = len(d)
    rows = [[x * scale for x in row] for row in d]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            rows[i][j] += rng.choice((-2, -1, 1, 2))
    return tuple(tuple(row) for row in rows)


def relabeled_shifted_cyclic(rng, n):
    w = [rng.randint(0, 3) for _ in range(n)]
    w[rng.randrange(n)] += 1
    m, _ = cyclic_order(w)
    m = morita_shift(m, [rng.randint(-5, 5) for _ in range(n)])
    o = list(range(n))
    rng.shuffle(o)
    return ExponentMatrix(
        tuple(tuple(m.rows[o[i]][o[j]] for j in range(n)) for i in range(n))
    )


def outcome(detect, m):
    try:
        return detect(m)
    except DomainError as exc:
        return type(exc), exc.witness


class TestTriangleScanDifferential:
    @pytest.mark.parametrize("scale", [1, HUGE], ids=["small", "huge"])
    def test_witness_matches_triple_loop(self, scale):
        rng = random.Random(401 if scale == 1 else 402)
        seen = [set(), set(), set()]
        violations = 0
        for _ in range(1500):
            n = rng.randint(1, 8)
            d = shortest_path_closure(rng, n, -4, 4)
            rows = perturbed(rng, d, scale)
            got = full_scan(rows)
            assert got == matrix_oracles.first_triangle_violation(rows)
            if got is not None:
                violations += 1
                for axis, x in enumerate(got):
                    seen[axis].add(x)
        assert violations > 300
        # witnesses land on every coordinate of every axis
        assert all(axis == set(range(8)) for axis in seen)

    def test_random_entries(self):
        rng = random.Random(403)
        for _ in range(2000):
            n = rng.randint(1, 6)
            lo, hi = sorted((rng.randint(-9, 9), rng.randint(-9, 9)))
            rows = tuple(
                tuple(0 if i == j else rng.randint(lo, hi) for j in range(n))
                for i in range(n)
            )
            assert full_scan(rows) == (
                matrix_oracles.first_triangle_violation(rows)
            )


class TestTriangleScanEdges:
    def test_single_entry(self):
        assert ExponentMatrix.from_rows([[0]]).rows == ((0,),)
        report = validate_order([[0]])
        assert report.fully_valid and report.first_violation is None
        with pytest.raises(NonzeroDiagonalError):
            ExponentMatrix.from_rows([[3]])

    @pytest.mark.parametrize("i", range(7))
    def test_unique_violation_at_each_row(self, i):
        # unit 7-cycle with m(i, i+2) raised by one: the only violation is
        # (i, i+1, i+2) mod 7; i = 6 puts it in the last row, i = 4 at k = 6
        n = 7
        m, _ = cyclic_order((1,) * n)
        rows = [list(row) for row in m.rows]
        rows[i][(i + 2) % n] += 1
        witness = (i, (i + 1) % n, (i + 2) % n)
        assert full_scan(tuple(map(tuple, rows))) == witness
        with pytest.raises(TriangleViolationError) as ei:
            ExponentMatrix.from_rows(rows)
        assert ei.value.witness == witness
        assert validate_order(rows).first_violation == witness

    @pytest.mark.parametrize(
        "lo, hi", [(-3, 5), (-7, 0), (0, 4), (-60, 60), (-127, 0), (-HUGE, HUGE)]
    )
    def test_entries_at_the_extremes(self, lo, hi):
        # off-diagonal entries all lo, all hi, or each one of the two: the
        # defects reach +-2 * span, the edge of the field width
        rng = random.Random(404)
        for n in range(2, 7):
            def fill(pick):
                return tuple(
                    tuple(0 if i == j else pick() for j in range(n)) for i in range(n)
                )

            assert full_scan(fill(lambda: hi)) is None
            expected = (0, 1, 0) if lo < 0 else None
            assert full_scan(fill(lambda: lo)) == expected
            for _ in range(30):
                rows = fill(lambda: rng.choice((lo, hi)))
                assert full_scan(rows) == (
                    matrix_oracles.first_triangle_violation(rows)
                )

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (-16, 15), (-31, 31), (-(2**13), 2**13), (-(2**29), 2**29),
            (-(2**60), 2**60), (-(2**61), 2**61), (-HUGE, HUGE),
        ],
    )
    def test_array_field_sizes(self, lo, hi):
        # a 1-byte field at the edge of its bound, fields of 3 and 5 bytes
        # rounded up to struct items of 4 and 8, the widest item, and
        # int.to_bytes beyond it
        rng = random.Random(441)
        for n in (32, 33):
            def fill(pick):
                return tuple(
                    tuple(0 if i == j else pick() for j in range(n)) for i in range(n)
                )

            assert full_scan(fill(lambda: hi)) is None
            assert full_scan(fill(lambda: lo)) == (0, 1, 0)
            for _ in range(5):
                rows = fill(lambda: rng.choice((lo, hi)))
                assert full_scan(rows) == (
                    matrix_oracles.first_triangle_violation(rows)
                )
            # late violations: one row raised above a valid closure
            d = shortest_path_closure(rng, n, -4, 4)
            rows = [[x * (hi // 4) for x in row] for row in d]
            rows[n - 1][rng.randrange(n - 1)] += rng.randint(1, 3)
            rows = tuple(map(tuple, rows))
            assert full_scan(rows) == (
                matrix_oracles.first_triangle_violation(rows)
            )

    def test_negative_entries_with_a_nonnegative_row(self):
        rng = random.Random(405)
        negative = 0
        for _ in range(300):
            n = rng.randint(2, 7)
            d = shortest_path_closure(rng, n, -6, 3)
            keep = rng.randrange(n)
            d[keep] = [abs(x) for x in d[keep]]
            rows = tuple(map(tuple, d))
            negative += min(map(min, rows)) < 0
            assert full_scan(rows) == (
                matrix_oracles.first_triangle_violation(rows)
            )
        assert negative > 200

    def test_huge_entries(self):
        m, _ = cyclic_order((1, 2, 0, 3, 1))
        scaled = ExponentMatrix(tuple(tuple(x * HUGE for x in row) for row in m.rows))
        m = morita_shift(scaled, (0, HUGE, -HUGE, 2 * HUGE, 7))
        assert min(map(min, m.rows)) < -HUGE
        assert ExponentMatrix.from_rows(m.rows) == m
        assert validate_order(m.rows).triangle_ok
        rows = [list(row) for row in m.rows]
        rows[3][0] += 1  # now exceeds m(3,4) + m(4,0), its only tight path
        with pytest.raises(TriangleViolationError) as ei:
            ExponentMatrix.from_rows(rows)
        assert ei.value.witness == (3, 4, 0)
        assert matrix_oracles.first_triangle_violation(
            tuple(map(tuple, rows))
        ) == (3, 4, 0)


def fit_kind(rows):
    """How the columns of square rows fit rows: "none", "ambiguous" or "nu"."""
    fits = list(orders._nakayama_fits(rows, orders._packing(rows)))
    if any(not fit for fit in fits):
        return "none"
    if any(len(fit) > 1 for fit in fits):
        return "ambiguous"
    assert sorted(fit[0] for fit in fits) == list(range(len(rows)))  # a bijection
    return "nu"


def relation_preserving(rng, rows, images, delta):
    """rows with +-delta, alternating, along the orbit of a random (a, b) under
    (x, y) -> (nu y, x); None when the orbit is odd or meets the diagonal.

    The Gorenstein relation m(nu i, x) + m(x, i) = ell_i pairs the entry (x, i)
    with (nu i, x), its image, so alternating signs keep every ell_i and nu
    still fits; the triangle inequality need not survive.
    """
    a, b = rng.sample(range(len(rows)), 2)
    orbit = [(a, b)]
    while (step := (images[orbit[-1][1]], orbit[-1][0])) != orbit[0]:
        orbit.append(step)
    if len(orbit) % 2 or any(x == y for x, y in orbit):
        return None
    out = [list(row) for row in rows]
    for t, (x, y) in enumerate(orbit):
        out[x][y] += delta if t % 2 == 0 else -delta
    return tuple(map(tuple, out))


def from_rows_outcome(rows, build=ExponentMatrix.from_rows):
    """The rows built, or the class and witness of the error."""
    try:
        built = build(rows)
    except DomainError as exc:
        return type(exc), exc.witness
    return built.rows if isinstance(built, ExponentMatrix) else built


def file_pair(rows):
    """``files.order_pair`` on a matrix file's source: its rows and g."""
    m, g = files.order_pair(files.OrderSource(kind="matrix", matrix=rows))
    return m.rows, g


def built_pair(rows):
    """from_rows, then detection: the outcome ``order_pair`` must match."""
    m = ExponentMatrix.from_rows(rows)
    return m.rows, detect_gorenstein(m)


def two_cycle_product(weights, labels, shift):
    """Product of the 2-cycle cyclic orders of the weight pairs: n = 2**len(weights).

    m(x, y) adds a_f where bit f of x is 0 and of y is 1, and b_f where it is
    1 and 0; nu flips every bit, so there are n / 2 orbits of length 2.
    Index x carries the point labels[x], and the result is shifted.
    """
    n = 1 << len(weights)

    def m(x, y):
        total = 0
        for f, (a, b) in enumerate(weights):
            bits = (x >> f) & 1, (y >> f) & 1
            total += {(0, 1): a, (1, 0): b}.get(bits, 0)
        return total

    return tuple(
        tuple(m(labels[i], labels[j]) + shift[i] - shift[j] for j in range(n))
        for i in range(n)
    )


@pytest.fixture
def scans(monkeypatch):
    """The rows each first_triangle_violation call scans, in call order."""
    calls = []
    real = orders.first_triangle_violation

    def spy(rows, scanned, packing):
        scanned = None if scanned is None else list(scanned)
        calls.append(list(range(len(rows))) if scanned is None else scanned)
        return real(rows, scanned, packing)

    monkeypatch.setattr(orders, "first_triangle_violation", spy)
    return calls


def base_points(rows):
    return [orbit[0] for orbit in detect_gorenstein(ExponentMatrix(rows)).nu.orbits()]


def random_product(rng, scale=1):
    w1 = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    w2 = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    w1[rng.randrange(len(w1))] += 1
    w2[rng.randrange(len(w2))] += 1
    n = len(w1) * len(w2)
    m = product_order(w1, w2, rng.sample(range(n), n))
    rows = tuple(tuple(x * scale for x in row) for row in m.rows)
    return morita_shift(ExponentMatrix(rows), [rng.randint(-5, 5) * scale for _ in range(n)])


def extreme_rows(rng, n, lo, hi):
    """Zero-diagonal n x n rows over lo, hi and values next to them and to 0,
    with lo and hi both planted off the diagonal: for lo <= 0 <= hi the
    packing's span is exactly 2 * (hi - lo)."""
    values = (lo, hi, lo + 1, hi - 1, 0)
    rows = [[0 if i == j else rng.choice(values) for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    (a, b), (c, d) = rng.sample(cells, 2)
    rows[a][b], rows[c][d] = lo, hi
    return tuple(map(tuple, rows))


def scaled_order(rng, lo, hi):
    """A shuffled cyclic or product order scaled as far as [lo, hi] allows."""
    if rng.random() < 0.5:
        m = relabeled_shifted_cyclic(rng, rng.randint(2, 7))
    else:
        m = random_product(rng)
    a, b = min(map(min, m.rows)), max(map(max, m.rows))
    c = min(hi // b if b > 0 else hi, lo // a if a < 0 else hi)
    return tuple(tuple(x * c for x in row) for row in m.rows)


class TestPackedMatcher:
    """`_nakayama_fits` on packed keys against the tuple-keyed matcher it replaced.

    Each case compares the fit lists column by column with
    `matrix_oracles.nakayama_fits`, and checks the field size the packing
    chose: just below and at each boundary of 1, 2, 4 and 8 bytes, and
    wider.  Off-diagonal entries of -(D // 3) and D - D // 3 give fields as
    far from half as the layout allows.
    """

    @pytest.mark.parametrize(
        "spread, size",
        [
            (63, 1), (64, 2), (2**14 - 1, 2), (2**14, 4), (2**30 - 1, 4),
            (2**30, 8), (2**62 - 1, 8), (2**62, 9), (HUGE, 167),
        ],
        ids=["63", "64", "2^14-1", "2^14", "2^30-1", "2^30", "2^62-1", "2^62", "huge"],
    )
    def test_fits_match_the_tuple_keys(self, spread, size):
        lo = -(spread // 3)
        hi = spread + lo
        rng = random.Random(spread % 1009)
        kinds, broken = {}, 0
        for t in range(160):
            if t % 2:
                rows = extreme_rows(rng, rng.randint(2, 6), lo, hi)
                assert orders._packing(rows)[0] == size
            else:
                rows = scaled_order(rng, lo, hi)
            n = len(rows)
            variants = [rows]
            if n > 1:
                # one-entry nudges, one making m(i,j) + m(j,i) = 0, and a
                # change that keeps nu fitting but may break the triangle
                i, j = rng.sample(range(n), 2)
                for delta in (1, -1, -rows[i][j] - rows[j][i]):
                    nudged = [list(row) for row in rows]
                    nudged[i][j] += delta
                    variants.append(tuple(map(tuple, nudged)))
                if t % 2 == 0:
                    images = [fit[0] for fit in matrix_oracles.nakayama_fits(rows)]
                    variants.append(relation_preserving(rng, rows, images, rng.randint(1, 3)))
            for rows in filter(None, variants):
                got = list(orders._nakayama_fits(rows, orders._packing(rows)))
                assert got == list(matrix_oracles.nakayama_fits(rows))
                kind = fit_kind(rows)
                kinds[kind] = kinds.get(kind, 0) + 1
                broken += kind == "nu" and full_scan(rows) is not None
        assert kinds["none"] > 300 and kinds["nu"] > 100 and kinds["ambiguous"] > 20
        assert broken > 10

    @pytest.mark.parametrize("scale", [1, HUGE], ids=["small", "huge"])
    def test_single_entry_and_negative_entries(self, scale):
        assert list(orders._nakayama_fits(((0,),), orders._packing(((0,),)))) == [[0]]
        rng = random.Random(445)
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = tuple(
                tuple(0 if i == j else rng.randint(-4, 1) * scale for j in range(n))
                for i in range(n)
            )
            got = list(orders._nakayama_fits(rows, orders._packing(rows)))
            assert got == list(matrix_oracles.nakayama_fits(rows))


class TestBaseRowScan:
    """`from_rows` scans one row per Nakayama orbit, against the full scan.

    Each case compares `from_rows` (rows, or error class and witness) with
    `matrix_oracles.from_rows`, which checks the structure and scans every
    row with the triple loop, and records which rows the package scanned.
    `files.order_pair` must give what `from_rows` then `detect_gorenstein`
    give (pair, or error class and witness), scanning the same rows.  When
    `orders._validated` accepts the rows, its fits must be the matcher's, and
    detection handed them must give what detection alone gives.
    """

    def check(self, rows, scans):
        """The rows scanned by one from_rows call, after comparing its outcome."""
        scans.clear()
        assert from_rows_outcome(rows) == from_rows_outcome(rows, matrix_oracles.from_rows)
        scanned = scans[-1] if scans else None
        scans.clear()
        got = from_rows_outcome(rows, file_pair)
        assert scans == ([] if scanned is None else [scanned])
        assert got == from_rows_outcome(rows, built_pair)
        try:
            frozen, fits = orders._validated(rows)
        except DomainError:
            return scanned  # the raise is from_rows', compared above
        assert fits == list(orders._nakayama_fits(rows, orders._packing(rows)))
        m = ExponentMatrix(frozen)
        handed = from_rows_outcome(m, lambda m: detect_gorenstein(m, _fits=fits))
        assert handed == from_rows_outcome(m, detect_gorenstein)
        return scanned

    @pytest.mark.parametrize("scale", [1, HUGE], ids=["small", "huge"])
    def test_shuffled_cyclic_orders(self, scale, scans):
        rng = random.Random(431 if scale == 1 else 432)
        violations = 0
        for _ in range(400):
            m = relabeled_shifted_cyclic(rng, rng.randint(1, 10))
            rows = tuple(tuple(x * scale for x in row) for row in m.rows)
            assert self.check(rows, scans) == [0]  # one orbit, based at 0
            nudged = perturbed(rng, rows, 1)
            self.check(nudged, scans)
            violations += validate_order(nudged).first_violation is not None
        assert violations > 100

    @pytest.mark.parametrize("scale", [1, HUGE], ids=["small", "huge"])
    def test_product_orders(self, scale, scans):
        rng = random.Random(433 if scale == 1 else 434)
        multi = 0
        for _ in range(150):
            rows = random_product(rng, scale).rows
            bases = base_points(rows)
            assert self.check(rows, scans) == bases
            multi += len(bases) > 1
        assert multi > 40

    @pytest.mark.parametrize("scale", [1, HUGE], ids=["small", "huge"])
    def test_relation_preserving_perturbations(self, scale, scans):
        # nu still fits, so only its base rows are scanned; about half of
        # these break the triangle inequality, and the witness must still be
        # the first of the full scan
        rng = random.Random(435 if scale == 1 else 436)
        kept = broken = 0
        for _ in range(1200):
            if rng.random() < 0.5:
                m = relabeled_shifted_cyclic(rng, rng.randint(2, 9))
            else:
                m = random_product(rng)
            if m.n < 2:
                continue
            images = detect_gorenstein(m).nu.images
            rows = relation_preserving(rng, m.rows, images, rng.randint(1, 3))
            if rows is None:
                continue
            rows = tuple(tuple(x * scale for x in row) for row in rows)
            if fit_kind(rows) != "nu":
                self.check(rows, scans)
                continue
            assert self.check(rows, scans) == base_points(rows)
            if validate_order(rows).first_violation is None:
                kept += 1
            else:
                broken += 1
        assert kept > 120 and broken > 300

    def test_eight_factor_two_cycle_product(self, scans):
        # n = 256 with 128 orbits: the largest file size, the most orbits
        rng = random.Random(437)
        weights = [(rng.randint(1, 3), rng.randint(0, 3)) for _ in range(8)]
        labels = rng.sample(range(256), 256)
        rows = two_cycle_product(weights, labels, [rng.randint(-9, 9) for _ in range(256)])
        bases = base_points(rows)
        assert len(bases) == 128
        scans.clear()
        assert ExponentMatrix.from_rows(rows).rows == rows
        assert file_pair(rows) == built_pair(rows)
        assert scans == [bases, bases, bases]
        images = detect_gorenstein(ExponentMatrix(rows)).nu.images
        witnesses = 0
        for delta in (1, 2, 3, 5, 8, 13):
            bad = relation_preserving(rng, rows, images, delta)
            if bad is None or fit_kind(bad) != "nu":
                continue
            full = validate_order(bad).first_violation  # every row scanned
            scans.clear()
            got = from_rows_outcome(bad)
            assert scans[0] == bases
            assert from_rows_outcome(bad, file_pair) == from_rows_outcome(bad, built_pair)
            if full is None:
                assert got == bad
            else:
                assert got == (TriangleViolationError, full)
                witnesses += 1
        assert witnesses > 0

    def test_ambiguous_and_missing_fits(self, scans):
        # no fit or several fits for some column: the full scan runs
        rng = random.Random(438)
        kinds, broken = {}, {}
        for _ in range(6000):
            n = rng.randint(1, 4)
            rows = tuple(
                tuple(0 if i == j else rng.randint(-2, 2) for j in range(n))
                for i in range(n)
            )
            kind = fit_kind(rows)
            kinds[kind] = kinds.get(kind, 0) + 1
            if not validate_order(rows).triangle_ok:  # reported ahead of detection
                broken[kind] = broken.get(kind, 0) + 1
            scanned = self.check(rows, scans)
            assert scanned == (base_points(rows) if kind == "nu" else list(range(n)))
        assert set(kinds) == set(broken) == {"none", "ambiguous", "nu"}
        assert min(kinds.values()) > 20

    @pytest.mark.parametrize(
        "rows, detected, witness",
        [
            (((0, 0, 0), (0, 0, 0), (1, 0, 0)), (NotGorensteinError, 0), (2, 1, 0)),
            (
                ((0, 0, 0), (0, 0, 0), (0, 1, 0)),
                (AmbiguousNakayamaError, (0, [0, 1])),
                (2, 0, 1),
            ),
        ],
        ids=["not-gorenstein", "ambiguous"],
    )
    def test_triangle_violation_beats_failed_detection(self, rows, detected, witness):
        assert outcome(detect_gorenstein, ExponentMatrix(rows)) == detected
        assert from_rows_outcome(rows, file_pair) == (TriangleViolationError, witness)
        assert from_rows_outcome(rows, built_pair) == (TriangleViolationError, witness)

    def test_unique_fits_form_a_bijection(self):
        # detect_gorenstein's argument needs no triangle inequality: on every
        # zero-diagonal 3x3 matrix with entries in -3..3 (fit_kind asserts it)
        kinds = {}
        for values in itertools.product(range(-3, 4), repeat=6):
            it = iter(values)
            rows = tuple(
                tuple(0 if i == j else next(it) for j in range(3)) for i in range(3)
            )
            kind = fit_kind(rows)
            kinds[kind] = kinds.get(kind, 0) + 1
            if kind == "nu" and full_scan(rows) is not None:
                kinds["nu, no triangle"] = kinds.get("nu, no triangle", 0) + 1
        assert kinds["nu"] > 500 and kinds["ambiguous"] > 500
        assert kinds["nu, no triangle"] > 100

    def test_structural_errors_come_first(self, scans):
        # ragged rows, then a nonzero diagonal, then the triangle
        rng = random.Random(439)
        seen = set()
        for _ in range(3000):
            n = rng.randint(0, 4)
            rows = [
                [rng.choice((0, 0, 0, 1)) if i == j else rng.randint(-2, 2) for j in range(n)]
                for i in range(n)
            ]
            if n and rng.random() < 0.3:
                i = rng.randrange(n)
                rows[i] = rows[i] + [0] if rng.random() < 0.5 else rows[i][:-1]
            got = from_rows_outcome(rows)
            assert got == from_rows_outcome(rows, matrix_oracles.from_rows)
            assert from_rows_outcome(rows, file_pair) == from_rows_outcome(rows, built_pair)
            seen.add(got[0] if got and isinstance(got[0], type) else "ok")
        assert seen == {
            "ok", NonSquareError, NonzeroDiagonalError, TriangleViolationError
        }
        # a ragged later row beats a nonzero diagonal, which beats a violation
        assert from_rows_outcome([[1, 5, 0], [0, 0, 0], [0, 0]]) == (NonSquareError, 2)
        assert from_rows_outcome([[0, 5, 0], [0, 1, 0], [0, 0, 0]]) == (
            NonzeroDiagonalError, 1
        )
        assert from_rows_outcome([]) == (NonSquareError, None)

    def test_validate_order_scans_every_row(self, scans):
        # from_rows reads the r base rows of a Gorenstein order; validate_order,
        # which reports on any candidate matrix, reads all n
        rng = random.Random(440)
        for _ in range(40):
            m = random_product(rng)
            bases = base_points(m.rows)
            scans.clear()
            ExponentMatrix.from_rows(m.rows)
            validate_order(m.rows)
            assert scans == [bases, list(range(m.n))]


class TestDetectDifferential:
    def test_random_matrices(self):
        rng = random.Random(406)
        kinds = set()
        for _ in range(4000):
            n = rng.randint(1, 4)
            rows = tuple(
                tuple(0 if i == j else rng.randint(0, 2) for j in range(n))
                for i in range(n)
            )
            m = ExponentMatrix(rows)
            got = outcome(detect_gorenstein, m)
            assert got == outcome(matrix_oracles.detect_gorenstein, m)
            kinds.add(got[0] if isinstance(got, tuple) else "ok")
        # NotBijectiveError cannot occur once every column has exactly one
        # row: columns i != i' on one row make rows i and i' differ by a
        # constant, so neither row is hit; then the columns indexed by hit
        # rows sit alone on their rows and use up every hit row
        assert kinds == {"ok", NotGorensteinError, AmbiguousNakayamaError}

    def test_relabeled_shifted_cyclic_orders(self):
        rng = random.Random(407)
        for _ in range(300):
            m = relabeled_shifted_cyclic(rng, rng.randint(1, 9))
            assert detect_gorenstein(m) == matrix_oracles.detect_gorenstein(m)

    def test_shifted_two_orbit_order(self):
        rng = random.Random(408)
        base = two_orbit_order()
        for _ in range(50):
            m = morita_shift(base, [rng.randint(-6, 6) for _ in range(base.n)])
            assert detect_gorenstein(m) == matrix_oracles.detect_gorenstein(m)


class TestFoldDifferential:
    def test_aligned_cyclic_data(self):
        rng = random.Random(409)
        for _ in range(200):
            m = relabeled_shifted_cyclic(rng, rng.randint(1, 9))
            ed = order_equivariant_data(m, detect_gorenstein(m))
            aligned = conjugate_data(ed, floor_align(ed))
            assert kernel_fold(aligned) == matrix_oracles.fold_orbits(aligned)

    def test_aligned_two_orbit_data(self):
        rng = random.Random(410)
        for _ in range(50):
            ed = two_orbit_data({x: rng.randint(-3, 3) for x in SYMBOLS})
            ed = conjugate_data(ed, [rng.randint(-4, 4) for _ in range(ed.n)])
            aligned = conjugate_data(ed, floor_align(ed))
            assert kernel_fold(aligned) == matrix_oracles.fold_orbits(aligned)

    def test_closed_form_needs_no_alignment(self):
        # the closed form and the power sum agree on unaligned data too
        rng = random.Random(411)
        data = []
        for _ in range(100):
            m = relabeled_shifted_cyclic(rng, rng.randint(2, 8))
            ed = order_equivariant_data(m, detect_gorenstein(m))
            data.append(conjugate_data(ed, [rng.randint(-4, 4) for _ in range(ed.n)]))
        for _ in range(30):
            ed = two_orbit_data({x: rng.randint(-3, 3) for x in SYMBOLS})
            data.append(conjugate_data(ed, [rng.randint(-4, 4) for _ in range(ed.n)]))
        unaligned = [ed for ed in data if not is_floor_aligned(ed)]
        assert len(unaligned) > 60
        for ed in data:
            assert kernel_fold(ed) == matrix_oracles.fold_orbits(ed)


class TestEquivarianceScan:
    def test_first_witness_in_row_major_order(self):
        rng = random.Random(412)
        witnesses = set()
        for _ in range(3000):
            m = relabeled_shifted_cyclic(rng, rng.randint(1, 5))
            g = detect_gorenstein(m)
            rows = [list(row) for row in m.transpose()]
            twist = [-x for x in g.p]
            if rng.random() < 0.8:
                i, j = rng.randrange(m.n), rng.randrange(m.n)
                rows[i][j] += rng.choice((-1, 1))
            images = g.nu.images
            expected = next(
                (
                    (i, j)
                    for i in range(m.n)
                    for j in range(m.n)
                    if rows[images[i]][images[j]] != rows[i][j] - twist[i] + twist[j]
                ),
                None,
            )
            try:
                equivariant_data(rows, twist, Permutation(images))
                got = None
            except EquivarianceViolationError as exc:
                got = exc.witness
                i, j = got
                assert str(exc) == (
                    f"matrix(perm({i}), perm({j})) != matrix({i},{j}) "
                    f"- twist({i}) + twist({j})"
                )
            assert got == expected
            witnesses.add(got)
        assert None in witnesses
        assert {w[1] for w in witnesses if w} == set(range(5))


def normalize_outcome(normalize, ed):
    try:
        return normalize(ed)
    except DomainError as exc:
        return type(exc), exc.witness, str(exc)


def lowered_pair_orbit(ed, i, j, d):
    """ed with m(perm^k i, perm^k j) lowered by d for every k: still equivariant."""
    rows = [list(row) for row in ed.matrix]
    a, b = i, j
    while True:
        rows[a][b] -= d
        a, b = ed.perm(a), ed.perm(b)
        if (a, b) == (i, j):
            return equivariant_data(rows, ed.twist, ed.perm)


def cyclic_data(rng, n):
    m = relabeled_shifted_cyclic(rng, n)
    return order_equivariant_data(m, detect_gorenstein(m))


def descending_chain(rng, n):
    """m(i+1,i) = -1 and v elsewhere, relabeled, with the identity permutation.

    The chain from i down to j < i sums to j - i, so some cycle is negative
    exactly when v < n - 1.
    """
    v = rng.randint(n - 3, n + 1)
    o = list(range(n))
    rng.shuffle(o)
    rows = [[v] * n for _ in range(n)]
    for i in range(n - 1):
        rows[o[i + 1]][o[i]] = -1
    twist = [rng.randint(-3, 3)] * n
    return equivariant_data(rows, twist, Permutation(tuple(range(n))))


def random_equivariant(rng, lo, hi):
    """Equivariant data for a random permutation, twist and matrix values.

    The permutation has one to three cycles whose lengths are multiples of
    g, so a twist average r/g fits every orbit; the twist has that average
    on each orbit, and each orbit of index pairs gets one free value carried
    along by the relation, which closes up because the averages agree.
    """
    g = rng.randint(1, 3)
    lengths = [g * rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    n = sum(lengths)
    labels = list(range(n))
    rng.shuffle(labels)
    images = [0] * n
    for end, length in zip(itertools.accumulate(lengths), lengths):
        cycle = labels[end - length : end]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    perm = Permutation(tuple(images))
    r = rng.randint(-2 * g, 2 * g)
    twist = [0] * n
    for orbit in perm.orbits():
        values = [rng.randint(-3, 3) for _ in orbit[1:]]
        values.append(len(orbit) * r // g - sum(values))
        for i, t in zip(orbit, values):
            twist[i] = t
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v, a, b = rng.randint(lo, hi), i, j
            while rows[a][b] is None:
                rows[a][b] = v
                v = v - twist[a] + twist[b]
                a, b = images[a], images[b]
    return equivariant_data(rows, twist, perm)


class TestNormalizeDifferential:
    """normalize_equivariant against the staged pipeline it replaced.

    Both return the same shift, or raise the same class with the same
    witness and message.
    """

    def check(self, data, accepted, rejected):
        kinds = set()
        for ed in data:
            got = normalize_outcome(normalize_equivariant, ed)
            assert got == normalize_outcome(matrix_oracles.staged_normalize, ed)
            kinds.add("ok" if isinstance(got[0], int) else got[0])
        if accepted:
            assert "ok" in kinds
        if rejected:
            assert NegativeCycleError in kinds
        return kinds

    def test_morita_shifted_cyclic_orders(self):
        rng = random.Random(413)
        data = [cyclic_data(rng, rng.randint(1, 12)) for _ in range(300)]
        self.check(data, True, False)

    def test_multi_orbit_templates(self):
        rng = random.Random(414)
        data = []
        for _ in range(150):
            ed = two_orbit_data({x: rng.randint(-1, 4) for x in SYMBOLS})
            data.append(conjugate_data(ed, [rng.randint(-9, 9) for _ in range(ed.n)]))
        self.check(data, True, True)

    def test_identity_permutation_descending_chains(self):
        rng = random.Random(415)
        data = [descending_chain(rng, rng.randint(1, 40)) for _ in range(60)]
        self.check(data, True, True)

    def test_planted_negative_cycles(self):
        # lowering one orbit of pairs (i, j), i != j, by more than the
        # smallest cycle sum through it makes that cycle negative
        rng = random.Random(416)
        data = []
        for _ in range(200):
            ed = cyclic_data(rng, rng.randint(2, 10))
            i, j = rng.sample(range(ed.n), 2)
            data.append(lowered_pair_orbit(ed, i, j, rng.randint(1, 12)))
        self.check(data, True, True)

    def test_negative_diagonals(self):
        rng = random.Random(417)
        data = []
        for _ in range(100):
            ed = cyclic_data(rng, rng.randint(1, 9))
            i = rng.randrange(ed.n)
            data.append(lowered_pair_orbit(ed, i, i, rng.randint(1, 3)))
        for ed in data:
            with pytest.raises(NegativeCycleError) as ei:
                normalize_equivariant(ed)
            assert len(ei.value.witness) == 1
        self.check(data, False, True)

    def test_random_permutations(self):
        rng = random.Random(418)
        data = [random_equivariant(rng, -2, 6) for _ in range(300)]
        self.check(data, True, True)


class TestQuotientCriterion:
    def test_block_minima_have_a_cycle_exactly_when_the_matrix_does(self):
        # random permutations and twists; negative values plant cycles
        rng = random.Random(419)
        seen = set()
        for _ in range(600):
            lo = rng.choice((-3, -1, 0, 1))
            ed = random_equivariant(rng, lo, lo + rng.randint(0, 8))
            aligned = conjugate_data(ed, floor_align(ed))
            minima = base_minima(aligned)
            assert minima == kernel_fold(aligned).block_min
            whole = find_negative_cycle(ed.matrix)
            quotient = find_negative_cycle(minima)
            assert (quotient is None) == (whole is None)
            if whole is not None:
                with pytest.raises(NegativeCycleError) as ei:
                    normalize_equivariant(ed)
                assert ei.value.witness == whole
            seen.add((len(ed.orbits) > 1, whole is None))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}


class ReadCountingRow(tuple):
    """A matrix row that counts how often it is iterated or indexed."""

    def __new__(cls, values):
        row = super().__new__(cls, values)
        row.reads = 0
        return row

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)


class TestBaseMinima:
    """The package's base-row block minima against the minima of the full
    fold (`helpers.kernel_fold`, every row) on floor-aligned data."""

    @staticmethod
    def check(ed):
        aligned = conjugate_data(ed, floor_align(ed))
        assert base_minima(aligned) == kernel_fold(aligned).block_min

    @pytest.mark.parametrize("scale", [1, HUGE], ids=["small", "huge"])
    def test_random_permutations(self, scale):
        rng = random.Random(425)
        seen = set()
        for _ in range(400):
            lo = rng.randint(-3, 1)
            ed = random_equivariant(rng, lo, lo + rng.randint(0, 8))
            if rng.random() < 0.5:
                rows = [[x * scale for x in row] for row in ed.matrix]
                ed = equivariant_data(rows, [t * scale for t in ed.twist], ed.perm)
            ed = conjugate_data(ed, [rng.randint(-9, 9) * scale for _ in range(ed.n)])
            self.check(ed)
            negative_diagonal = any(ed.matrix[i][i] < 0 for i in range(ed.n))
            seen.add((len(ed.orbits) > 1, negative_diagonal))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_two_orbit_template(self):
        rng = random.Random(426)
        for _ in range(200):
            values = {sym: rng.randint(-3, 6) for sym in SYMBOLS}
            ed = two_orbit_data(values)
            assert is_floor_aligned(ed)
            assert base_minima(ed) == two_orbit_block_min(values)
            self.check(ed)
            self.check(conjugate_data(ed, [rng.randint(-9, 9) for _ in range(ed.n)]))

    def test_shifted_product_orders(self):
        rng = random.Random(427)
        multi = 0
        for _ in range(150):
            w1 = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
            w2 = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
            w1[rng.randrange(len(w1))] += 1
            w2[rng.randrange(len(w2))] += 1
            n = len(w1) * len(w2)
            shift = [rng.randint(-5, 5) for _ in range(n)]
            m = product_order(w1, w2, rng.sample(range(n), n), shift)
            ed = order_equivariant_data(m, detect_gorenstein(m))
            self.check(ed)
            multi += len(ed.orbits) > 1
        assert multi > 40

    def test_accepted_normalize_reads_one_row_per_orbit(self):
        rng = random.Random(428)
        accepted = multi = 0
        for _ in range(300):
            ed = random_equivariant(rng, 0, rng.randint(0, 8))
            if find_negative_cycle(ed.matrix) is not None:
                continue
            rows = tuple(map(ReadCountingRow, ed.matrix))
            spy = EquivariantData(rows, ed.twist, ed.perm, ed.avg, ed.orbits)
            assert normalize_equivariant(spy) == normalize_equivariant(ed)
            read = [i for i, row in enumerate(rows) if row.reads]
            assert sorted(read) == sorted(orbit[0] for orbit in ed.orbits)
            assert all(rows[i].reads == 1 for i in read)
            accepted += 1
            multi += len(ed.orbits) > 1
        assert accepted > 100 and multi > 50


class TestConjugationKernels:
    """The C-iterated kernels of gorenstein and conjugation, at n = 1, with
    negative entries and with entries of size 10**400."""

    @pytest.mark.parametrize("scale", [1, HUGE], ids=["small", "huge"])
    def test_detect_patterns(self, scale):
        rng = random.Random(420)
        for n in [1] * 5 + [rng.randint(2, 8) for _ in range(100)]:
            m = relabeled_shifted_cyclic(rng, n)
            m = ExponentMatrix(tuple(tuple(x * scale for x in row) for row in m.rows))
            assert detect_gorenstein(m) == matrix_oracles.detect_gorenstein(m)
            rows = [list(row) for row in m.rows]
            rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
            bad = ExponentMatrix(tuple(map(tuple, rows)))
            assert outcome(detect_gorenstein, bad) == outcome(
                matrix_oracles.detect_gorenstein, bad
            )

    def test_equivariance_scan_huge(self):
        # the relation is linear, so scaled data stay equivariant; a nudge of
        # one breaks it unless (i, j) is a fixed point of perm x perm
        rng = random.Random(421)
        witnesses = set()
        for _ in range(300):
            m = relabeled_shifted_cyclic(rng, rng.randint(1, 5))
            g = detect_gorenstein(m)
            rows = [[x * HUGE for x in row] for row in m.transpose()]
            twist = [-x * HUGE for x in g.p]
            i, j = rng.randrange(m.n), rng.randrange(m.n)
            rows[i][j] += rng.choice((-1, 1))
            images = g.nu.images
            expected = next(
                (
                    (i, j)
                    for i in range(m.n)
                    for j in range(m.n)
                    if rows[images[i]][images[j]] != rows[i][j] - twist[i] + twist[j]
                ),
                None,
            )
            try:
                equivariant_data(rows, twist, Permutation(images))
                got = None
            except EquivarianceViolationError as exc:
                got = exc.witness
            assert got == expected
            witnesses.add(got)
        assert None in witnesses and len(witnesses) > 10

    @pytest.mark.parametrize("scale", [1, HUGE], ids=["small", "huge"])
    def test_fold_shift_is_the_walk(self, scale):
        # c = -B, B(i) = sum_{t<g} (g-1-t) twist(perm^t i), on any twist
        rng = random.Random(422)
        for _ in range(200):
            ed = random_equivariant(rng, -3, 3)
            ed = conjugate_data(ed, [rng.randint(-9, 9) * scale for _ in range(ed.n)])
            g = ed.period
            walks = [power_images(ed.perm, t) for t in range(g)]
            expected = [
                -sum((g - 1 - t) * ed.twist[walks[t][i]] for t in range(g))
                for i in range(ed.n)
            ]
            assert conjugation._fold_shift(ed.twist, ed.orbits, g) == expected

    @pytest.mark.parametrize("scale", [1, HUGE], ids=["small", "huge"])
    def test_fold_of_shifted_data(self, scale):
        rng = random.Random(423)
        for _ in range(100):
            ed = cyclic_data(rng, rng.randint(1, 8))
            ed = conjugate_data(ed, [rng.randint(-9, 9) * scale for _ in range(ed.n)])
            aligned = conjugate_data(ed, floor_align(ed))
            assert kernel_fold(aligned) == matrix_oracles.fold_orbits(aligned)

    @pytest.mark.parametrize("scale", [1, HUGE], ids=["small", "huge"])
    def test_block_min(self, scale):
        rng = random.Random(424)
        for _ in range(300):
            images = list(range(rng.randint(1, 8)))
            rng.shuffle(images)
            orbits = Permutation(tuple(images)).orbits()
            n = len(images)
            rows = tuple(
                tuple(rng.randint(-9, 9) * scale for _ in range(n)) for _ in range(n)
            )
            expected = tuple(
                tuple(min(rows[i][j] for i in ox for j in oy) for oy in orbits)
                for ox in orbits
            )
            assert helpers._block_min(rows, orbits) == expected
