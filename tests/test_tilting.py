import random
import sys

import pytest
from hypothesis import given, strategies as st

from tiledorder import (
    DimensionMismatchError,
    ExponentMatrix,
    GorensteinData,
    NotCyclicError,
    NotNGradedError,
    Permutation,
    PositiveParameterError,
    Quiver,
    TooLargeError,
    cyclic_hasse_oracle,
    cyclic_order,
    detect_gorenstein,
    grothendieck_rank,
    hasse_quiver,
    morita_shift,
    tilting_poset,
    tilting_summands,
)
from tiledorder import orders, tilting

from equivariant_templates import two_orbit_order
from cycle_oracles import IndexOutOfRangeError
from hasse_oracle import (
    InvalidLatticeError,
    bitset_hasse_quiver,
    endo_block_dim,
    hom_dim,
    is_lattice_vector,
    leq,
    lines_oracle,
    pairwise_hasse_quiver,
    tilde_index_sets,
    truncate_shift,
)
from helpers import product_order
from test_orders import shifted_cyclic, weights_strategy

M4, G4 = cyclic_order((1, 1, 1, 1))

# the nine summands of the (1,1,1,1) poset, frozen by hand: rows 1..3 and 0
# of the matrix truncated at 1 and 2, with the zero vector collapsing at 3.
# Order is first occurrence while scanning s = 0..3, j = 1..3.
SUMMANDS_1111 = [
    (((0, 1),), (2, 0, 0, 1)),
    (((0, 2),), (1, 0, 0, 0)),
    (((0, 3), (1, 3), (2, 3), (3, 3)), (0, 0, 0, 0)),
    (((1, 1),), (1, 2, 0, 0)),
    (((1, 2),), (0, 1, 0, 0)),
    (((2, 1),), (0, 1, 2, 0)),
    (((2, 2),), (0, 0, 1, 0)),
    (((3, 1),), (0, 0, 1, 2)),
    (((3, 2),), (0, 0, 0, 1)),
]


def n_graded_gorenstein_orders(seed, count):
    """Seeded N-graded Gorenstein orders with all p_i <= 0 and their data.

    Cyclic orders with zero weights, their N-graded Morita shifts with the
    indices relabeled, and N-graded shifts of the two-orbit order, whose
    Nakayama permutation has two orbits.
    """
    rng = random.Random(seed)
    two_orbit = two_orbit_order()
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 2:
            m = morita_shift(two_orbit, [rng.randint(0, 1) for _ in range(10)])
        else:
            n = rng.randint(1, 6)
            w = tuple(rng.randint(0, 3) for _ in range(n))
            if not any(w):
                continue
            m, _ = cyclic_order(w)
            if kind == 1:
                s = [rng.randint(-2, 2) for _ in range(n)]
                o = rng.sample(range(n), n)
                shifted = morita_shift(m, s)
                m = ExponentMatrix.from_rows(
                    [[shifted.entry(o[i], o[j]) for j in range(n)] for i in range(n)]
                )
        g = detect_gorenstein(m)
        if orders.first_negative(m.rows) is None and all(x <= 0 for x in g.p):
            out.append((m, g))
    return out


def relabeled(m, o):
    """m'(i,j) = m(o(i), o(j))."""
    return ExponentMatrix.from_rows([[m.entry(a, b) for b in o] for a in o])


def product_orders(seed, count, orbits):
    """Seeded N-graded relabelled, shifted products of two cyclic orders
    with all p_i <= 0, all with several orbits or all with one."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        shapes = ((2, 2), (2, 4), (4, 2), (3, 3)) if orbits > 1 else ((2, 3), (3, 2))
        n1, n2 = rng.choice(shapes)
        w1 = tuple(rng.randint(0, 2) for _ in range(n1))
        w2 = tuple(rng.randint(0, 2) for _ in range(n2))
        if not any(w1) or not any(w2):
            continue
        n = n1 * n2
        shift = [rng.randint(-1, 1) for _ in range(n)]
        m = product_order(w1, w2, rng.sample(range(n), n), shift)
        g = detect_gorenstein(m)
        if orders.first_negative(m.rows) is None and all(x <= 0 for x in g.p):
            out.append((m, g))
    return out


def zero_weight_orders():
    """150 seeded cyclic orders with a zero weight and all p_i <= 0."""
    rng = random.Random(7)
    out = []
    while len(out) < 150:
        w = tuple(rng.randint(0, 3) for _ in range(rng.randint(2, 6)))
        if 0 not in w or not any(w):
            continue
        m, g = cyclic_order(w)
        if any(x > 0 for x in g.p):
            continue
        out.append((m, g))
    return out


def morita_shifted_orders():
    """100 seeded N-graded Morita shifts of cyclic orders with all p_i <= 0."""
    rng = random.Random(8)
    out = []
    while len(out) < 100:
        n = rng.randint(2, 6)
        w = tuple(rng.randint(0, 3) for _ in range(n))
        if not any(w):
            continue
        m, _ = cyclic_order(w)
        shifted = morita_shift(m, tuple(rng.randint(-2, 2) for _ in range(n)))
        g = detect_gorenstein(shifted)
        if orders.first_negative(shifted.rows) is not None or any(x > 0 for x in g.p):
            continue
        out.append((shifted, g))
    return out


def relabeled_shifted_orders():
    """100 seeded relabelled N-graded Morita shifts of cyclic orders."""
    rng = random.Random(9)
    out = []
    while len(out) < 100:
        n = rng.randint(2, 6)
        w = tuple(rng.randint(0, 3) for _ in range(n))
        if not any(w):
            continue
        m, _ = cyclic_order(w)
        m = relabeled(
            morita_shift(m, [rng.randint(-2, 2) for _ in range(n)]),
            rng.sample(range(n), n),
        )
        g = detect_gorenstein(m)
        if orders.first_negative(m.rows) is not None or any(x > 0 for x in g.p):
            continue
        out.append((m, g))
    return out


def two_orbit_shifts():
    """20 seeded Morita shifts of the two-orbit order, with their data."""
    rng = random.Random(10)
    out = []
    for _ in range(20):
        m = morita_shift(two_orbit_order(), [rng.randint(0, 1) for _ in range(10)])
        out.append((m, detect_gorenstein(m)))
    return out


# positive weights, where cyclic_hasse_oracle describes the covers
CYCLIC_WEIGHTS = [
    (1, 1, 1, 1), (1, 1), (2, 1), (1, 2), (1, 2, 3), (3, 1), (2, 2, 2), (1, 1, 1, 1, 1),
]


def hasse_corpus():
    """Every order whose Hasse quiver the cover tests check, with its data."""
    return (
        [cyclic_order(w) for w in CYCLIC_WEIGHTS]
        + zero_weight_orders()
        + morita_shifted_orders()
        + relabeled_shifted_orders()
        + two_orbit_shifts()
        + product_orders(12, 110, orbits=2)
        + product_orders(13, 40, orbits=1)
    )


def assert_covers_match(m, g):
    poset = tilting_poset(m, g)
    q = hasse_quiver(poset)
    assert q == bitset_hasse_quiver(poset) == pairwise_hasse_quiver(poset), m


def literal_lattice_vector(m, v):
    """v(j) <= min_i (v(i) + m(i, j)), written out entry by entry."""
    return all(
        v[j] <= min(v[i] + m.entry(i, j) for i in range(m.n)) for j in range(m.n)
    )


class TestLatticeVectors:
    def test_matrix_rows_are_valid(self):
        for i in range(4):
            assert is_lattice_vector(M4, M4.row(i))

    def test_zero_valid_for_graded(self):
        assert is_lattice_vector(M4, (0, 0, 0, 0))

    def test_violating_vector(self):
        m2, _ = cyclic_order((1, 1))
        assert not is_lattice_vector(m2, (0, 2))

    def test_matches_definition(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 6)
            m, _ = cyclic_order(tuple(rng.randint(0, 3) for _ in range(n - 1)) + (1,))
            m = morita_shift(m, tuple(rng.randint(-2, 2) for _ in range(n)))
            v = tuple(rng.randint(-3, 4) for _ in range(n))
            assert is_lattice_vector(m, v) == literal_lattice_vector(m, v)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            is_lattice_vector(M4, (0, 0, 0))

    def test_truncate_shift(self):
        assert truncate_shift((3, 0, 1, 2), 1) == (2, 0, 0, 1)
        assert truncate_shift((3, 0, 1, 2), 3) == (0, 0, 0, 0)
        assert truncate_shift((3, 0, 1, 2), 0) == (3, 0, 1, 2)

    def test_truncate_shift_is_the_literal_max(self):
        # the comparison form must equal max(x - j, 0) for every int,
        # negative entries and shifts and huge values included
        rng = random.Random(8)
        for _ in range(2000):
            scale = rng.choice((3, 10**30))
            v = tuple(rng.randint(-scale, scale) for _ in range(rng.randint(1, 6)))
            j = rng.choice((rng.randint(-scale, scale), rng.choice(v)))
            out = truncate_shift(v, j)
            assert out == tuple(max(x - j, 0) for x in v)
            assert all(type(x) is int for x in out)


class TestHomDim:
    def test_reflexive_at_zero(self):
        v = M4.row(0)
        assert hom_dim(M4, v, v, 0) == 1

    def test_threshold(self):
        v, w = (0, 1, 2, 3), (3, 0, 1, 2)
        assert hom_dim(M4, v, w, 3) == 1
        assert hom_dim(M4, v, w, 2) == 0

    def test_invalid_lattice_rejected(self):
        m2, _ = cyclic_order((1, 1))
        with pytest.raises(InvalidLatticeError):
            hom_dim(m2, (0, 0), (0, 2), 0)

    @given(st.integers(-3, 6))
    def test_monotone_in_degree(self, t):
        v, w = (0, 1, 2, 3), (2, 3, 0, 1)
        assert hom_dim(M4, v, w, t) <= hom_dim(M4, v, w, t + 1)


class TestSummands:
    def test_unit_cyclic_enumeration(self):
        assert tilting_summands(M4, G4) == SUMMANDS_1111

    def test_zero_element_labels(self):
        out = dict((vec, labels) for labels, vec in tilting_summands(M4, G4))
        assert out[(0, 0, 0, 0)] == ((0, 3), (1, 3), (2, 3), (3, 3))

    def test_positive_parameter_rejected(self):
        # weights (0, 0, 0, 1) give p = (0, 0, 0, 1); the offender is point 3
        m, g = cyclic_order((0, 0, 0, 1))
        with pytest.raises(PositiveParameterError) as ei:
            tilting_summands(m, g)
        assert ei.value.witness == 3

    def test_not_n_graded_rejected(self):
        # a Morita shift of cyclic weights (3, 3, 0): Gorenstein with
        # p = (0, -2, -7), but m(2,0) = -2 < 0
        m = ExponentMatrix.from_rows([[0, 5, 8], [1, 0, 3], [-2, 3, 0]])
        g = detect_gorenstein(m)
        assert g.p == (0, -2, -7)
        with pytest.raises(NotNGradedError) as ei:
            tilting_summands(m, g)
        assert ei.value.witness == (2, 0)
        with pytest.raises(NotNGradedError):
            tilting_poset(m, g)

    def test_size_limit(self, monkeypatch):
        # (1, 1, 1, 1) has k = 9 summands of length 4: 36 entries
        monkeypatch.setattr(tilting, "TILTING_LIMIT", 36)
        assert tilting_summands(M4, G4) == SUMMANDS_1111
        monkeypatch.setattr(tilting, "TILTING_LIMIT", 35)
        with pytest.raises(TooLargeError) as ei:
            tilting_summands(M4, G4)
        assert ei.value.witness == 36

    def test_unprintable_sizes_are_not_printed(self, monkeypatch):
        # a size with more digits than str converts (sys's limit, 4300 by
        # default) is named by that bound, with a null witness; one digit
        # fewer is printed as before.  A one-point order with p = (1 - k,)
        # has k summands of length 1, so k is also the witness k * n.
        monkeypatch.setattr(tilting, "TILTING_LIMIT", 0)
        m = ExponentMatrix.from_rows([[0]])
        digits = sys.get_int_max_str_digits()
        for k, shown in [
            (20_001, "20001"),
            (10**digits - 1, "9" * digits),
            (10**digits, None),
            (7 * 10 ** (digits + 9), None),
        ]:
            with pytest.raises(TooLargeError) as ei:
                tilting_summands(m, GorensteinData(nu=Permutation((0,)), p=(1 - k,)))
            assert ei.value.witness == (k if shown else None)
            assert tilting._decimal(k) == (shown or f"10**{digits} or more", ei.value.witness)
            assert f"{shown or f'10**{digits} or more'} summands of length 1" in str(ei.value)

    def test_size_checked_after_parameters_before_grading(self, monkeypatch):
        monkeypatch.setattr(tilting, "TILTING_LIMIT", 0)
        with pytest.raises(PositiveParameterError):
            tilting_summands(*cyclic_order((0, 0, 0, 1)))
        # p = (0, -2, -7): k = 10 summands of length 3, but m(2,0) = -2 < 0
        m = ExponentMatrix.from_rows([[0, 5, 8], [1, 0, 3], [-2, 3, 0]])
        with pytest.raises(TooLargeError) as ei:
            tilting_summands(m, detect_gorenstein(m))
        assert ei.value.witness == 30

    @given(shifted_cyclic())
    def test_shifted_orders_need_n_grading(self, m):
        g = detect_gorenstein(m)
        if any(x > 0 for x in g.p):
            return
        if orders.first_negative(m.rows) is None:
            assert len(tilting_summands(m, g)) == 1 - sum(g.p)
            return
        with pytest.raises(NotNGradedError) as ei:
            tilting_summands(m, g)
        first = next(
            (i, j) for i in range(m.n) for j in range(m.n) if m.entry(i, j) < 0
        )
        assert ei.value.witness == first

    def test_distinct_lattice_vectors(self):
        # tilting_summands states these facts without checking them
        for m, g in n_graded_gorenstein_orders(30, 150):
            out = tilting_summands(m, g)
            vectors = [vec for _, vec in out]
            zero = (0,) * m.n
            assert len(set(vectors)) == len(vectors) == 1 - sum(g.p)
            labels = dict((vec, labs) for labs, vec in out)
            assert labels[zero] == tuple((s, -g.p[s] + 1) for s in range(m.n))
            assert all(len(labels[vec]) == 1 for vec in vectors if vec != zero)
            assert all(literal_lattice_vector(m, vec) for vec in vectors)

    @given(weights_strategy())
    def test_counts(self, w):
        m, g = cyclic_order(tuple(w))
        if any(x > 0 for x in g.p):
            return
        out = tilting_summands(m, g)
        nonzero = [vec for _, vec in out if any(vec)]
        assert len(nonzero) == -sum(g.p)
        assert len(out) == len(nonzero) + 1


def outcome(build, m, g):
    """build(m, g), or the class, witness and message of the error it raises."""
    try:
        return build(m, g)
    except (PositiveParameterError, TooLargeError, NotNGradedError) as exc:
        return type(exc), exc.witness, str(exc)


def empty_line_orders():
    """60 seeded cyclic orders with a zero weight, all p_i <= 0 and some p_s = 0."""
    rng = random.Random(221)
    out = []
    while len(out) < 60:
        w = tuple(rng.randint(0, 2) for _ in range(rng.randint(2, 6)))
        if not any(w):
            continue
        m, g = cyclic_order(w)
        if max(g.p) == 0:
            out.append((m, g))
    return out


def heavy_cyclic_orders(seed, count):
    """Seeded cyclic orders of n = 2..4 with weight sum 64..300 and all p_i <= 0."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, total = rng.randint(2, 4), rng.randint(64, 300)
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        w = tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))
        m, g = cyclic_order(w)
        if max(g.p) <= 0:
            out.append((m, g))
    return out


class TestLines:
    """tilting._lines builds each line column-wise from one shared list; the
    one-truncation-per-summand builder it replaced is the oracle."""

    def test_matches_oracle(self):
        empty = empty_line_orders()
        heavy = [(m, g) for m, g in heavy_cyclic_orders(222, 40) if min(g.p) <= -100]
        unit = [cyclic_order((1,) * n) for n in range(1, 13)]
        assert len(heavy) >= 20
        for m, g in hasse_corpus() + empty + heavy + unit:
            assert outcome(tilting._lines, m, g) == outcome(lines_oracle, m, g), m
        assert all(any(not line for line in tilting._lines(m, g)) for m, g in empty)

    def test_errors_match_oracle(self, monkeypatch):
        not_graded = ExponentMatrix.from_rows([[0, 5, 8], [1, 0, 3], [-2, 3, 0]])
        cases = [
            (cyclic_order((0, 0, 0, 1)), PositiveParameterError, 3),
            (cyclic_order((1,)), PositiveParameterError, 0),
            ((not_graded, detect_gorenstein(not_graded)), NotNGradedError, (2, 0)),
        ]
        for (m, g), cls, witness in cases:
            got = outcome(tilting._lines, m, g)
            assert got == outcome(lines_oracle, m, g) and got[:2] == (cls, witness)
        monkeypatch.setattr(tilting, "TILTING_LIMIT", 29)
        for (m, g), witness in ((cyclic_order((1, 1, 1, 1)), 36), (cases[2][0], 30)):
            got = outcome(tilting._lines, m, g)
            assert got == outcome(lines_oracle, m, g)
            assert got[:2] == (TooLargeError, witness)


class TestPoset:
    def test_unit_cyclic_count(self):
        poset = tilting_poset(M4, G4)
        assert len(poset.elements) == 9 == 1 - sum(G4.p)
        assert (0, 0, 0, 0) in poset.elements

    def test_shifted_count(self):
        shifted = morita_shift(M4, (0, 1, 0, 1))
        g = detect_gorenstein(shifted)
        assert g.p == (-3, -1, -3, -1)
        assert len(tilting_poset(shifted, g).elements) == 9

    def test_size_and_minimum(self):
        for m, g in n_graded_gorenstein_orders(31, 150):
            elements = tilting_poset(m, g).elements
            assert len(elements) == 1 - sum(g.p)
            assert elements[0] == (0,) * m.n
            assert all(x >= 0 for vec in elements for x in vec)

    def test_slot_record(self):
        orders = n_graded_gorenstein_orders(36, 60) + product_orders(37, 20, orbits=2)
        for m, g in orders:
            poset = tilting_poset(m, g)
            nu = g.nu.images
            assert poset.lengths == tuple(-p for p in g.p)
            assert poset.steps == tuple(tuple(m.entry(a, b) for b in nu) for a in nu)
            assert sorted(poset.elements) == list(poset.elements)
            slots = [(s, i) for s in range(m.n) for i in range(1, 1 - g.p[s])]
            assert sorted(r for line in poset.ranks for r in line) == list(
                range(1, len(poset.elements))
            )
            for s, i in slots:
                vec = truncate_shift(m.row(nu[s]), i)
                assert poset.elements[poset.ranks[s][i - 1]] == vec

    def test_rank(self):
        _, g = cyclic_order((2, 1, 1, 1))
        assert grothendieck_rank(g) == 12

    def test_boundary_case(self):
        _, g = cyclic_order((2, 2))
        # p = (-1, -1): three elements
        assert g.p == (-1, -1)
        assert grothendieck_rank(g) == 3

    def test_singleton(self):
        from tiledorder import ExponentMatrix

        m = ExponentMatrix.from_rows([[0, 1], [1, 0]])
        g = detect_gorenstein(m)
        assert g.p == (0, 0)
        poset = tilting_poset(m, g)
        assert poset.elements == ((0, 0),)
        assert grothendieck_rank(g) == 1


class TestHasse:
    def test_unit_cyclic_quiver(self):
        q = hasse_quiver(tilting_poset(M4, G4))
        assert len(q.vertices) == 9
        assert len(q.arrows) == 12
        # zero is the unique sink
        zero = (0, 0, 0, 0)
        assert all(src != zero for src, _ in q.arrows)
        assert sum(1 for _, dst in q.arrows if dst == zero) == 4

    def test_cover_not_full_order(self):
        q = hasse_quiver(tilting_poset(M4, G4))
        # (0,0,1,2) > (0,0,0,1) > 0: the long relation is not an arrow
        assert ((0, 0, 1, 2), (0, 0, 0, 1)) in q.arrows
        assert ((0, 0, 1, 2), (0, 0, 0, 0)) not in q.arrows

    def test_oracle_match_unit(self):
        assert cyclic_hasse_oracle((1, 1, 1, 1)) == hasse_quiver(
            tilting_poset(M4, G4)
        )

    def test_oracle_match_various(self):
        for w in CYCLIC_WEIGHTS:
            m, g = cyclic_order(w)
            assert cyclic_hasse_oracle(w) == hasse_quiver(tilting_poset(m, g))

    @given(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    def test_oracle_match_random(self, w):
        # the closed-form rules describe covers only when every weight is
        # positive; see test_zero_weight_gives_redundant_arrow below
        w = tuple(w)
        m, g = cyclic_order(w)
        assert cyclic_hasse_oracle(w) == hasse_quiver(tilting_poset(m, g))

    def test_zero_weight_gives_redundant_arrow(self):
        # With a zero weight the rule-(c) arrow at the end of the following
        # line is a genuine order relation but not a cover: for (0, 1, 2) the
        # chain (1,1,0) > (1,0,0) > 0 makes (1,1,0) -> 0 redundant.  The
        # rule-based quiver is otherwise identical to the cover quiver.
        w = (0, 1, 2)
        m, g = cyclic_order(w)
        oracle = cyclic_hasse_oracle(w)
        hasse = hasse_quiver(tilting_poset(m, g))
        assert oracle.vertices == hasse.vertices
        extra = set(oracle.arrows) - set(hasse.arrows)
        assert extra == {((1, 1, 0), (0, 0, 0))}
        assert set(hasse.arrows) <= set(oracle.arrows)

    def test_matches_pairwise_oracle_zero_weights(self):
        # cyclic_hasse_oracle does not describe covers once a weight is zero,
        # so the direct pairwise computation is the reference here
        for m, g in zero_weight_orders():
            assert_covers_match(m, g)

    def test_matches_pairwise_oracle_morita_shifted(self):
        for m, g in morita_shifted_orders():
            assert_covers_match(m, g)

    def test_matches_oracles_relabeled_shifted(self):
        for m, g in relabeled_shifted_orders():
            assert_covers_match(m, g)

    def test_matches_oracles_two_orbit_shifts(self):
        for m, g in two_orbit_shifts():
            assert orders.first_negative(m.rows) is None and len(g.nu.orbits()) == 2
            assert_covers_match(m, g)

    def test_matches_oracles_products(self):
        multi = product_orders(12, 110, orbits=2)
        single = product_orders(13, 40, orbits=1)
        assert all(len(g.nu.orbits()) > 1 for _, g in multi)
        assert all(len(g.nu.orbits()) == 1 for _, g in single)
        for m, g in multi + single:
            assert_covers_match(m, g)

    def test_matches_oracles_heavy_weights(self):
        # steps of 64 or more need 2-byte fields in the packed dominance count;
        # k <= 400 keeps the pairwise oracle's k * k comparisons quick
        heavy = [(m, g) for m, g in heavy_cyclic_orders(223, 12) if sum(g.p) >= -399]
        sizes = {orders._packing(tilting_poset(m, g).steps)[0] for m, g in heavy}
        assert sizes == {1, 2}
        for m, g in heavy:
            assert_covers_match(m, g)

    def test_oracle_match_large_k(self):
        # k = 199,999 elements over n = 2: k * n is 40% of TILTING_LIMIT,
        # the one size budget hasse_quiver's input has
        w = (100_000, 100_000)
        m, g = cyclic_order(w)
        assert grothendieck_rank(g) == 199_999
        assert cyclic_hasse_oracle(w) == hasse_quiver(tilting_poset(m, g))

    def test_validating_constructor_accepts_every_result(self):
        # hasse_quiver skips Quiver's check, whose conditions its docstring
        # proves; the check itself must agree on every poset of the corpus
        for m, g in hasse_corpus():
            q = hasse_quiver(tilting_poset(m, g))
            ids = set(map(id, q.vertices))
            assert all(id(a) in ids and id(b) in ids for a, b in q.arrows), m
            assert Quiver(q.vertices, q.arrows) == q, m

    def test_codes_match_pairwise_oracle(self):
        # the stored rank codes against codes recomputed from the oracle's pairs
        for m, g in hasse_corpus():
            poset = tilting_poset(m, g)
            els = poset.elements
            k, rank = len(els), {v: r for r, v in enumerate(els)}
            arrows = pairwise_hasse_quiver(poset).arrows
            codes = tuple(sorted(rank[a] * k + rank[b] for a, b in arrows))
            assert hasse_quiver(poset).codes == codes, m

    def test_quiver_stores_ends_as_vertices(self):
        vertices = ((0, 0), (1, 1))
        arrow = (tuple([1, 1]), tuple([0, 0]))  # equal to vertices, other objects
        q = Quiver(vertices, (arrow,))
        assert q.arrows == (arrow,)
        assert q.arrows[0][0] is vertices[1] and q.arrows[0][1] is vertices[0]

    def test_quiver_repeated_vertex_takes_last_rank(self):
        vertices = ((0, 0), (1, 0), (0, 0))
        q = Quiver(vertices, (((1, 0), (0, 0)),))
        assert q.codes == (1 * 3 + 2,)
        assert q.arrows[0][1] is vertices[2]
        with pytest.raises(ValueError):
            Quiver(vertices, (((1, 0), (0, 0)), ((1, 0), vertices[0])))

    def test_quiver_validates_endpoints(self):
        with pytest.raises(ValueError):
            Quiver(vertices=((0, 0),), arrows=(((0, 0), (1, 1)),))

    def test_quiver_rejects_repeated_arrows(self):
        arrow = ((1, 1), (0, 0))
        with pytest.raises(ValueError):
            Quiver(vertices=((0, 0), (1, 1)), arrows=(arrow, arrow))

    def test_oracle_vertices_distinct(self):
        rng = random.Random(32)
        checked = 0
        while checked < 100:
            w = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 6)))
            if not any(w):
                continue
            m, g = cyclic_order(w)
            if any(x > 0 for x in g.p):
                continue
            vertices = cyclic_hasse_oracle(w).vertices
            assert len(set(vertices)) == len(vertices) == 1 - sum(g.p)
            checked += 1


class TestEndoBlocks:
    def test_proper_pairs(self):
        assert endo_block_dim(M4, G4, (0, 1), (0, 2)) == 1
        assert endo_block_dim(M4, G4, (0, 2), (0, 1)) == 0
        assert endo_block_dim(M4, G4, (0, 1), (1, 1)) == 0

    def test_zero_slots(self):
        # (s, -p_s + 1) indexes the zero summand: row 4 for these weights
        assert endo_block_dim(M4, G4, (0, 3), (1, 1)) == 0
        assert endo_block_dim(M4, G4, (0, 1), (1, 3)) == 1
        assert endo_block_dim(M4, G4, (2, 3), (3, 3)) == 1

    def test_index_range(self):
        with pytest.raises(IndexOutOfRangeError):
            endo_block_dim(M4, G4, (0, 0), (0, 1))
        with pytest.raises(IndexOutOfRangeError):
            endo_block_dim(M4, G4, (0, 1), (0, 4))

    def test_not_n_graded_rejected(self):
        # the zero slots of a non-N-graded order are not zero vectors
        m = ExponentMatrix.from_rows([[0, 5, 8], [1, 0, 3], [-2, 3, 0]])
        with pytest.raises(NotNGradedError) as ei:
            endo_block_dim(m, detect_gorenstein(m), (1, 1), (1, 3))
        assert ei.value.witness == (2, 0)

    def test_tilde_index_sets(self):
        proper, zero_slots = tilde_index_sets(G4)
        assert proper == {(s, j) for s in range(4) for j in (1, 2)}
        assert zero_slots == {(s, 3) for s in range(4)}

    def test_is_the_componentwise_order(self):
        # hasse_quiver rests on TiltingPoset's order rule:
        # T(t,j) <= T(s,i) iff j - i >= M(t,s), on the poset's own record
        orders = n_graded_gorenstein_orders(34, 30) + product_orders(35, 10, orbits=2)
        for m, g in orders:
            poset = tilting_poset(m, g)
            els, ranks, steps = poset.elements, poset.ranks, poset.steps
            lengths = poset.lengths
            slots = [(s, i) for s in range(m.n) for i in range(1, lengths[s] + 1)]
            for s, i in slots:
                for t, j in slots:
                    below = leq(els[ranks[t][j - 1]], els[ranks[s][i - 1]])
                    assert below == (j - i >= steps[t][s]), (m, (s, i), (t, j))

    def test_agrees_with_hom_dim(self):
        for m, g in [(M4, G4)] + n_graded_gorenstein_orders(33, 24):
            proper, zero_slots = tilde_index_sets(g)
            slots = sorted(proper | zero_slots)
            vec = {(s, i): truncate_shift(m.row(g.nu(s)), i) for s, i in slots}
            for a in slots:
                for b in slots:
                    assert endo_block_dim(m, g, a, b) == hom_dim(
                        m, vec[a], vec[b], 0
                    ), (m, a, b)


class TestOracleErrors:
    def test_oracle_positive_parameter(self):
        with pytest.raises(PositiveParameterError):
            cyclic_hasse_oracle((0, 0, 0, 1))

    def test_not_cyclic_error_exists(self):
        assert issubclass(NotCyclicError, Exception)
