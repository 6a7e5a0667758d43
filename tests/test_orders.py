import copy
import itertools
import operator
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from tiledorder import (
    DimensionMismatchError,
    ExponentMatrix,
    NonSquareError,
    NonzeroDiagonalError,
    NotBijectiveError,
    Permutation,
    Quiver,
    TriangleViolationError,
    cyclic_order,
    detect_gorenstein,
    morita_shift,
    validate_order,
)
from tiledorder import orders
from tiledorder.files import OrderSource

from helpers import identity, power_images
import matrix_oracles
from matrix_oracles import cyclic_rows

CYCLIC_1111 = (
    (0, 1, 2, 3),
    (3, 0, 1, 2),
    (2, 3, 0, 1),
    (1, 2, 3, 0),
)


def weights_strategy(max_n=6, max_w=4):
    return st.lists(st.integers(0, max_w), min_size=1, max_size=max_n).filter(
        lambda w: sum(w) > 0
    )


@st.composite
def shifted_cyclic(draw, max_n=6, max_w=4, max_s=4):
    """A cyclic order conjugated by a random diagonal shift.

    Every matrix produced this way is a valid basic exponent matrix,
    but need not have non-negative entries.
    """
    w = draw(weights_strategy(max_n, max_w))
    s = draw(
        st.lists(st.integers(-max_s, max_s), min_size=len(w), max_size=len(w))
    )
    m, _ = cyclic_order(tuple(w))
    return morita_shift(m, tuple(s))


@st.composite
def metric_orders(draw, max_n=6, max_w=3):
    """Shortest-path distances of random non-negative arc weights.

    Every such matrix has zero diagonal and the triangle inequality; zero
    weights make many of them non-basic.
    """
    n = draw(st.integers(1, max_n))
    d = [
        [0 if i == j else draw(st.integers(0, max_w)) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return ExponentMatrix.from_rows(d)


class TestValidateOrder:
    def test_zero_matrix(self):
        rep = validate_order([[0, 0], [0, 0]])
        assert rep.triangle_ok
        assert rep.n_graded
        assert not rep.basic
        assert not rep.fully_valid

    def test_basic_two_by_two(self):
        rep = validate_order([[0, 1], [1, 0]])
        assert rep.fully_valid
        assert rep.first_violation is None

    def test_triangle_witness(self):
        rep = validate_order([[0, 1], [-2, 0]])
        assert not rep.triangle_ok
        assert rep.first_violation == (0, 1, 0)
        assert not rep.n_graded

    def test_witness_is_lexicographically_first(self):
        # both (0,1,2) and (2,0,1) fail; the scan must report (0,1,2)
        rows = [[0, 0, 5], [0, 0, 0], [0, 5, 0]]
        rep = validate_order(rows)
        assert rep.first_violation == (0, 1, 2)

    def test_nonsquare_rejected(self):
        with pytest.raises(NonSquareError):
            validate_order([[0, 1]])
        with pytest.raises(NonSquareError):
            validate_order([])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(NonzeroDiagonalError) as ei:
            validate_order([[0, 0], [0, 1]])
        assert ei.value.witness == 1


class TestExponentMatrix:
    def test_accessors(self):
        m = ExponentMatrix.from_rows(CYCLIC_1111)
        assert m.n == 4
        assert m.entry(1, 3) == 2
        assert m.row(2) == (2, 3, 0, 1)
        assert orders._is_basic(m.rows)
        assert orders.first_negative(m.rows) is None

    def test_transpose(self):
        m = ExponentMatrix.from_rows(CYCLIC_1111)
        t = m.transpose()
        assert t[3][0] == m.entry(0, 3)
        assert ExponentMatrix.from_rows(t).transpose() == m.rows

    def test_triangle_enforced(self):
        with pytest.raises(TriangleViolationError):
            ExponentMatrix.from_rows([[0, 1], [-2, 0]])

    @pytest.mark.parametrize(
        "rows, error, witness",
        [
            ([], NonSquareError, None),
            ([[0, 1]], NonSquareError, 0),
            ([[0, 1], [1]], NonSquareError, 1),
            ([[0, 0, 0], [0, 0, 0], [0, 0, 2]], NonzeroDiagonalError, 2),
            ([[0, 0], [0, -1]], NonzeroDiagonalError, 1),
            ([[0, 1], [-2, 0]], TriangleViolationError, (0, 1, 0)),
            ([[0, 0, 5], [0, 0, 0], [0, 5, 0]], TriangleViolationError, (0, 1, 2)),
        ],
    )
    def test_from_rows_witnesses(self, rows, error, witness):
        with pytest.raises(error) as ei:
            ExponentMatrix.from_rows(rows)
        assert ei.value.witness == witness

    def test_validated_rows_and_fits(self):
        # the fits come back whether or not they make a Nakayama permutation
        fits = [[1], [2], [3], [0]]
        assert orders._validated([list(row) for row in CYCLIC_1111]) == (CYCLIC_1111, fits)
        assert orders._validated([[0, 0], [0, 0]]) == (((0, 0), (0, 0)), [[0, 1], [0, 1]])
        assert orders._validated([[0, 1, 1], [1, 0, 1], [1, 1, 0]])[1] == [[], [], []]
        with pytest.raises(TriangleViolationError) as ei:  # columns 1, 2 fit no row
            orders._validated([[0, 0, 5], [0, 0, 0], [0, 5, 0]])
        assert ei.value.witness == (0, 1, 2)

    def test_not_n_graded_is_still_constructible(self):
        m = ExponentMatrix.from_rows([[0, -1], [2, 0]])
        assert orders.first_negative(m.rows) is not None
        assert orders._is_basic(m.rows)


class TestPermutation:
    def test_identity_and_cycle(self):
        assert identity(3).images == (0, 1, 2)
        c = Permutation.cycle(4)
        assert c.images == (1, 2, 3, 0)
        assert c(3) == 0

    def test_inverse(self):
        # the inverse of an n-cycle is its (n-1)-th power
        c = Permutation.cycle(5)
        assert power_images(c, 4)[c(2)] == 2

    def test_power_images(self):
        c = Permutation.cycle(4)
        assert power_images(c, 2) == (2, 3, 0, 1)
        assert power_images(c, 0) == (0, 1, 2, 3)

    def test_orbits_from_smallest(self):
        p = Permutation((1, 0, 3, 2))
        assert p.orbits() == ((0, 1), (2, 3))

    def test_orbit_follows_base_point(self):
        p = Permutation((2, 3, 0, 1))
        assert p.orbits() == ((0, 2), (1, 3))

    def test_not_bijective(self):
        with pytest.raises(NotBijectiveError):
            Permutation((0, 0, 1))

    def test_freezes_images(self):
        # floats are refused at once, not later by tuple indexing; bools
        # become ints, so the orbits hold plain indices
        with pytest.raises(TypeError):
            Permutation((1.0, 0.0))
        perm = Permutation((True, False))
        assert perm == Permutation((1, 0)) == Permutation([1, 0])
        assert [type(i) for i in perm.images] == [int, int]
        assert perm.orbits() == ((0, 1),)
        assert [type(i) for i in perm.orbits()[0]] == [int, int]


class TestRecord:
    def test_equal_records_hash_equal(self):
        pairs = [
            (ExponentMatrix(CYCLIC_1111), ExponentMatrix.from_rows(CYCLIC_1111)),
            (Permutation((1, 0)), Permutation(images=(1, 0))),
            (cyclic_order((1, 2))[1], detect_gorenstein(cyclic_order((1, 2))[0])),
            (validate_order(CYCLIC_1111), validate_order(list(CYCLIC_1111))),
            (OrderSource("cyclic", None, (1,)), OrderSource("cyclic", weights=(1,))),
        ]
        for a, b in pairs:
            assert a == b and not a != b
            assert hash(a) == hash(b)
        assert len(set(pairs[0])) == 1

    def test_unequal_fields(self):
        assert Permutation((1, 0)) != Permutation((0, 1))
        assert OrderSource("cyclic", weights=(1,)) != OrderSource("cyclic", None, (2,))

    def test_never_equal_to_a_tuple(self):
        for record, fields in [
            (ExponentMatrix(CYCLIC_1111), (CYCLIC_1111,)),
            (Permutation((1, 0)), ((1, 0),)),
            (OrderSource("matrix", CYCLIC_1111), ("matrix", CYCLIC_1111, None)),
        ]:
            assert record != fields and fields != record
            assert not record == fields

    def test_defaults_and_repr(self):
        src = OrderSource(kind="matrix", matrix=((0,),))
        assert src.weights is None
        assert validate_order(((0,),)).first_violation is None
        assert repr(Permutation((1, 0))) == "Permutation(images=(1, 0))"
        assert repr(src) == "OrderSource(kind='matrix', matrix=((0,),), weights=None)"

    def test_frozen(self):
        m = ExponentMatrix(CYCLIC_1111)
        with pytest.raises(AttributeError):
            m.rows = ()
        with pytest.raises(AttributeError):
            m.extra = 1
        assert m.rows == CYCLIC_1111

    def test_copy_and_pickle(self):
        m, g = cyclic_order((1, 2))
        for record in (m, g, OrderSource("cyclic", weights=(1, 2))):
            assert copy.copy(record) == record
            assert copy.deepcopy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record

    def test_constructor_arguments_checked(self):
        with pytest.raises(TypeError):
            ExponentMatrix()
        with pytest.raises(TypeError):
            ExponentMatrix(CYCLIC_1111, CYCLIC_1111)
        with pytest.raises(TypeError):
            OrderSource(kind="cyclic", weight=(1,))

    def test_validating_constructors(self):
        with pytest.raises(NotBijectiveError):
            Permutation(images=(1, 1))
        with pytest.raises(ValueError):
            Quiver(vertices=((0,),), arrows=(((0,), (1,)),))
        q = Quiver(((0,), (1,)), (((1,), (0,)),))
        assert q == Quiver(vertices=((0,), (1,)), arrows=(((1,), (0,)),))


class TestCyclicOrder:
    def test_unit_weights(self):
        m, g = cyclic_order((1, 1, 1, 1))
        assert m.rows == CYCLIC_1111
        assert g.p == (-2, -2, -2, -2)

    def test_single_point(self):
        m, g = cyclic_order((1,))
        assert m.rows == ((0,),)
        assert g.p == (1,)

    def test_sparse_weights(self):
        m, g = cyclic_order((0, 0, 0, 1))
        assert m.rows == (
            (0, 0, 0, 0),
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (1, 1, 1, 0),
        )
        assert g.p == (0, 0, 0, 1)

    def test_zero_weights_rejected(self):
        from tiledorder import ZeroWeightsError

        with pytest.raises(ZeroWeightsError):
            cyclic_order((0, 0))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            cyclic_order((1, -1))

    def test_rows_match_oracle(self):
        # the sliced rows against the per-entry builder they replaced, on
        # seeded weights with zeros, n = 1 and large entries
        rng = random.Random(2302)
        cases = [(1,), (7,), (0, 1), (1, 0), (0, 0, 0, 1), (10**30, 0, 3)]
        while len(cases) < 300:
            n = rng.randint(1, 12)
            w = [rng.choice([0, 0, 1, 2, rng.randint(0, 50)]) for _ in range(n)]
            if any(w):
                cases.append(tuple(w))
        for w in cases:
            rows = cyclic_order(w)[0].rows
            assert rows == cyclic_rows(w), w
            assert all(type(row) is tuple for row in rows), w

    @given(weights_strategy())
    def test_always_valid_basic_graded(self, w):
        m, g = cyclic_order(tuple(w))
        rep = validate_order(m.rows)
        assert rep.fully_valid
        assert ExponentMatrix.from_rows(m.rows) == m
        assert g.nu.images == Permutation.cycle(m.n).images


class TestMoritaShift:
    def test_zero_shift_is_identity(self):
        m = ExponentMatrix.from_rows(CYCLIC_1111)
        assert morita_shift(m, (0, 0, 0, 0)) == m

    def test_worked_example(self):
        m = ExponentMatrix.from_rows(CYCLIC_1111)
        shifted = morita_shift(m, (0, 1, 1, 1))
        assert shifted.rows == (
            (0, 0, 1, 2),
            (4, 0, 1, 2),
            (3, 3, 0, 1),
            (2, 2, 3, 0),
        )

    def test_two_by_two(self):
        m = ExponentMatrix.from_rows([[0, 1], [1, 0]])
        assert morita_shift(m, (1, 0)).rows == ((0, 2), (0, 0))

    def test_can_leave_the_graded_cone(self):
        m = ExponentMatrix.from_rows([[0, 1], [1, 0]])
        assert orders.first_negative(morita_shift(m, (0, 5)).rows) is not None

    def test_shift_length_checked(self):
        m = ExponentMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(DimensionMismatchError):
            morita_shift(m, (1, 0, 0))

    @given(shifted_cyclic())
    def test_shifted_cyclic_stays_valid(self, m):
        rep = validate_order(m.rows)
        assert rep.triangle_ok
        assert rep.basic

    @given(
        st.one_of(shifted_cyclic(), metric_orders()),
        st.lists(st.integers(-5, 5), min_size=6, max_size=6),
    )
    def test_result_is_a_valid_order(self, m, raw):
        # morita_shift builds without checks; the validating constructor
        # must accept what it builds, and basicness must not move
        shifted = morita_shift(m, tuple(raw[: m.n]))
        assert ExponentMatrix.from_rows(shifted.rows) == shifted
        assert orders._is_basic(shifted.rows) == orders._is_basic(m.rows)

    @given(shifted_cyclic(), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    def test_involution(self, m, raw):
        s = tuple(raw[: m.n]) + (0,) * max(0, m.n - len(raw))
        back = morita_shift(morita_shift(m, s), tuple(-x for x in s))
        assert back == m

    @given(shifted_cyclic())
    def test_cycle_sums_invariant(self, m):
        from cycle_oracles import cycle_sum

        seq = tuple(range(m.n))
        shifted = morita_shift(m, tuple((i * i) % 3 for i in range(m.n)))
        assert cycle_sum(m.rows, seq) == cycle_sum(shifted.rows, seq)


def kernel_rows(rng, n, scale):
    """n x n rows of entries in -9..9 times scale, negative ones included."""
    return tuple(tuple(rng.randint(-9, 9) * scale for _ in range(n)) for _ in range(n))


class TestKernelsAgainstDefinitions:
    """The C-iterated per-entry kernels against their literal definitions."""

    SCALES = [1, 10**400]

    @pytest.mark.parametrize("scale", SCALES, ids=["small", "huge"])
    def test_freeze_vector(self, scale):
        rng = random.Random(501)
        for n in (1, 2, 5, 9):
            values = [rng.randint(-9, 9) * scale for _ in range(n)]
            frozen = orders.freeze_vector(values)
            assert frozen == tuple(operator.index(x) for x in values)
            assert orders.freeze_rows([values, values]) == (frozen, frozen)

    def test_freeze_vector_float_and_bool(self):
        with pytest.raises(TypeError):
            orders.freeze_vector([1, 2.0])
        with pytest.raises(TypeError):
            orders.freeze_vector([1.0])
        frozen = orders.freeze_vector([True, False, 3])
        assert frozen == (1, 0, 3)
        assert [type(x) for x in frozen] == [int, int, int]

    @pytest.mark.parametrize("scale", SCALES, ids=["small", "huge"])
    def test_conjugate_rows(self, scale):
        rng = random.Random(502)
        for n in (1, 2, 3, 6, 9):
            rows = kernel_rows(rng, n, scale)
            shift = tuple(rng.randint(-9, 9) * scale for _ in range(n))
            assert orders.conjugate_rows(rows, shift) == tuple(
                tuple(rows[i][j] + shift[i] - shift[j] for j in range(n))
                for i in range(n)
            )

    @pytest.mark.parametrize("scale", SCALES, ids=["small", "huge"])
    def test_is_basic(self, scale):
        rng = random.Random(503)
        outcomes = set()
        for _ in range(400):
            n = rng.randint(1, 6)
            rows = [
                [0 if i == j else rng.randint(-2, 3) * scale for j in range(n)]
                for i in range(n)
            ]
            rows = tuple(map(tuple, rows))
            expected = all(
                rows[i][j] + rows[j][i] > 0 for i in range(n) for j in range(i + 1, n)
            )
            assert orders._is_basic(rows) == expected
            outcomes.add((n == 1, expected))
        assert outcomes == {(True, True), (False, True), (False, False)}

    @pytest.mark.parametrize("scale", SCALES, ids=["small", "huge"])
    def test_packed_rows(self, scale):
        rng = random.Random(504)
        for n in (1, 2, 7):
            row = tuple(rng.randint(-9, 9) * scale for _ in range(n))
            lo = min(0, *row)
            size = (2 * (max(0, *row) - lo)).bit_length() // 8 + 1
            literal = int.from_bytes(
                b"".join((x - lo).to_bytes(size, "little") for x in row), "little"
            )
            assert orders._packed(row, lo, size) == literal

    def test_array_packed_rows(self):
        # each struct item size at the edges of its field, against _packed,
        # at 32 rows and at 31; struct packs little-endian on every host
        for size in (1, 2, 4, 8):
            half = 1 << (8 * size - 1)
            edges = (
                (-half, half - 1, 0, -1, 1, 1 - half, half - 2),
                (-half,) * 7,
                (half - 1,) * 7,
                (0,) * 7,
            )
            rows = edges * 8
            top = int.from_bytes(b"\1".ljust(size, b"\0") * 7, "little") << (8 * size - 1)
            assert orders._packed_rows(rows, size, top) == [
                orders._packed(row, -half, size) for row in rows
            ]
            assert orders._packed_rows(rows[:31], size, top) == [
                orders._packed(row, -half, size) for row in rows[:31]
            ]
        # wider fields are packed by _packed itself
        for size in (9, 16, 167):
            half = 1 << (8 * size - 1)
            rows = ((-half, half - 1, 0, -1),) * 32
            assert orders._packed_rows(rows, size, None) == [
                orders._packed(row, -half, size) for row in rows
            ]


def closures(rng, scales):
    """Seeded shortest-path closures (metrics >= 0) of digraphs with arcs in
    0..40, scaled: fields of 1, 2, 4 and 8 bytes and the wider _packed layout."""
    for scale in scales:
        for n in (1, 2, 3, 5, 8) * 3:
            d = [[rng.randint(0, 40) * (i != j) for j in range(n)] for i in range(n)]
            for u, i, j in itertools.product(range(n), repeat=3):
                d[i][j] = min(d[i][j], d[i][u] + d[u][j])
            yield tuple(tuple(x * scale for x in row) for row in d)


def literal_defects(rows, c):
    """Per t, per s, the fields u (top bits of _defects' layout) with
    m(t,u) + m(u,s) - m(t,s) >= c, as the set of those u."""
    n = len(rows)
    return [
        [{u for u in range(n) if rows[t][u] + rows[u][s] - rows[t][s] >= c}
         for s in range(n)]
        for t in range(n)
    ]


def mask_fields(packing, masks):
    """The fields u whose top bit is set in each mask."""
    w, n = 8 * packing[0], len(packing[3])
    return [{u for u in range(n) if mask >> (w * u + w - 1) & 1} for mask in masks]


class TestDefects:
    """orders._defects, the one kernel of the triangle scan and Hasse
    dominance, against the literal defects at every field width."""

    SCALES = (1, 10, 10**3, 10**8, 10**17, 10**40)

    def assert_columns_packed(self, rows):
        size, _, top, _, cols = packing = orders._packing(rows)
        transpose = list(zip(*rows))
        assert cols == orders._packed_rows(transpose, size, top)
        return packing

    def test_every_field_width(self):
        # c = 1 on closures, as Hasse dominance reads it: the bit count of
        # (t, s) is the number of u with M(t,u) + M(u,s) > M(t,s)
        rng = random.Random(224)
        sizes, free = set(), set()
        for steps in closures(rng, self.SCALES):
            n = len(steps)
            packing = self.assert_columns_packed(steps)
            sizes.add(packing[0])
            got = list(orders._defects(steps, packing, 1, range(n)))
            for t, masks in enumerate(got):
                for s, mask in enumerate(masks):
                    beyond = sum(
                        steps[t][u] + steps[u][s] > steps[t][s] for u in range(n)
                    )
                    assert mask.bit_count() == beyond
                    if t != s:
                        free.add(beyond == n - 2)
        assert {1, 2, 4, 8} < sizes and max(sizes) > 8
        assert free == {True, False}  # pairs with and without a dominator

    def test_negative_entries_and_violations(self):
        # c = 0 and c = 1 on rows with negative entries: random rows, full of
        # violations, and conjugated closures with one entry raised past a
        # triangle; each field's top bit against the sign of its defect
        rng = random.Random(225)
        sizes, signs = set(), set()
        for closure in closures(rng, self.SCALES):
            n = len(closure)
            scale = max(1, *map(max, closure))
            shift = [rng.randint(-60, 60) * scale for _ in range(n)]
            planted = [list(row) for row in orders.conjugate_rows(closure, shift)]
            a, b = rng.randrange(n), rng.randrange(n)
            planted[a][b] += rng.randint(0, 2) * scale * (a != b)
            for rows in (tuple(map(tuple, planted)), kernel_rows(rng, n, scale)):
                packing = self.assert_columns_packed(rows)
                sizes.add(packing[0])
                for c in (0, 1):
                    got = orders._defects(rows, packing, c, range(n))
                    expected = literal_defects(rows, c)
                    assert [mask_fields(packing, m) for m in got] == expected
                violation = matrix_oracles.first_triangle_violation(rows)
                signs.add(violation is None)
                assert orders.first_triangle_violation(rows) == violation
        assert {1, 2, 4, 8} < sizes and max(sizes) > 8
        assert signs == {True, False}

    def test_is_basic_every_field_width(self):
        # the packed read (c = 1 at s = t) against the scalar row-plus-column
        # oracle, on zero-diagonal rows with negative entries, pairs summing
        # to exactly 0 and closures, at 1-, 2-, 4-, 8- and wider fields
        rng = random.Random(227)
        sizes, outcomes = set(), set()
        for closure in closures(rng, self.SCALES):
            n = len(closure)
            scale = max(1, *map(max, closure))
            rows = [list(row) for row in kernel_rows(rng, n, scale)]
            for i in range(n):
                rows[i][i] = 0
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                rows[a][b] = -rows[b][a]
            for rows in (closure, tuple(map(tuple, rows))):
                packing = orders._packing(rows)
                sizes.add(packing[0])
                expected = matrix_oracles.is_basic(rows)
                outcomes.add((n == 1, expected))
                assert orders._is_basic(rows, packing) == expected
                assert orders._is_basic(rows) == expected
        assert {1, 2, 4, 8} < sizes and max(sizes) > 8
        assert outcomes == {(True, True), (False, True), (False, False)}

    def test_defects_read_scanned_rows_only(self):
        rng = random.Random(226)
        rows = kernel_rows(rng, 6, 1)
        packing = orders._packing(rows)
        every = list(orders._defects(rows, packing, 0, range(6)))
        assert list(orders._defects(rows, packing, 0, iter([4, 1]))) == [
            every[4], every[1]
        ]

    def test_witness_takes_least_j_before_least_k(self):
        # row 0 breaks k = 1 first at j = 3 and k = 2 first at j = 1: the
        # witness is (0, 1, 2), not the (0, 3, 1) of the least bad column
        rows = ((0, 5, 5, 0), (0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 0))
        witness = matrix_oracles.first_triangle_violation(rows)
        assert witness == (0, 1, 2)
        assert orders.first_triangle_violation(rows) == witness
        assert orders.first_triangle_violation(rows, iter(range(4))) == witness
        assert orders.first_triangle_violation(rows, (1, 2, 3)) == (1, 2, 0)
