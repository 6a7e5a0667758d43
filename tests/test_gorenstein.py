import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tiledorder import (
    AmbiguousNakayamaError,
    ExponentMatrix,
    GorensteinData,
    NotGorensteinError,
    Permutation,
    cyclic_order,
    detect_gorenstein,
    morita_shift,
    shifted_parameters,
)
from tiledorder import orders

from equivariant_templates import two_orbit_order
from helpers import product_order
from test_orders import CYCLIC_1111, metric_orders, shifted_cyclic


@st.composite
def relabeled_shifted_cyclic(draw):
    """A shifted cyclic order with its indices relabeled: m'(i,j) = m(o(i), o(j)).

    Its Nakayama permutation is the conjugated cycle, not i -> i+1.
    """
    m = draw(shifted_cyclic())
    o = draw(st.permutations(range(m.n)))
    return ExponentMatrix.from_rows(
        [[m.entry(o[i], o[j]) for j in range(m.n)] for i in range(m.n)]
    )


class TestDetect:
    def test_cyclic_unit_weights(self):
        m = ExponentMatrix.from_rows(CYCLIC_1111)
        g = detect_gorenstein(m)
        assert g.nu.images == (1, 2, 3, 0)
        assert g.ell == (3, 3, 3, 3)
        assert g.p == (-2, -2, -2, -2)
        assert g.p_av == Fraction(-2)

    def test_point(self):
        g = detect_gorenstein(ExponentMatrix.from_rows([[0]]))
        assert g.nu.images == (0,)
        assert g.ell == (0,)
        assert g.p == (1,)
        assert g.p_av == Fraction(1)

    def test_symmetric_three_by_three_fails(self):
        m = ExponentMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        with pytest.raises(NotGorensteinError) as ei:
            detect_gorenstein(m)
        assert ei.value.witness == 0

    def test_non_basic_is_ambiguous(self):
        m = ExponentMatrix.from_rows([[0, 0], [0, 0]])
        with pytest.raises(AmbiguousNakayamaError) as ei:
            detect_gorenstein(m)
        assert ei.value.witness == (0, [0, 1])

    def test_fractional_average(self):
        _, g = cyclic_order((1, 0))
        assert g.p == (1, 0)
        assert g.p_av == Fraction(1, 2)

    def test_record_holds_nu_and_p(self):
        # ell and p_av are read off p; equality, hash and repr see (nu, p) only
        _, g = cyclic_order((3, 0, 1))
        assert GorensteinData.__slots__ == ("nu", "p")
        assert g == GorensteinData(Permutation.cycle(3), (0, -3, -2))
        assert g.ell == (1, 4, 3)
        assert g.p_av == Fraction(-5, 3)
        assert repr(g) == "GorensteinData(nu=Permutation(images=(1, 2, 0)), p=(0, -3, -2))"

    @given(st.integers(0, 5), st.integers(0, 5))
    def test_basic_two_by_two_always_gorenstein(self, a, b):
        if a + b == 0:
            return
        m = ExponentMatrix.from_rows([[0, a], [b, 0]])
        g = detect_gorenstein(m)
        assert g.nu.images == (1, 0)
        assert g.p == (1 - b, 1 - a)

    @given(shifted_cyclic())
    def test_shift_preserves_nu(self, m):
        g = detect_gorenstein(m)
        assert g.nu.images == Permutation.cycle(m.n).images
        assert g.p_av == Fraction(sum(g.p), m.n)


    def test_two_orbit_averages_agree(self):
        # detect_gorenstein does not compare orbit averages; the defining
        # relation forces them equal
        rng = random.Random(22)
        base = two_orbit_order()
        for _ in range(50):
            m = morita_shift(base, [rng.randint(-4, 4) for _ in range(base.n)])
            g = detect_gorenstein(m)
            orbits = g.nu.orbits()
            assert [len(o) for o in orbits] == [4, 6]
            for orbit in orbits:
                assert Fraction(sum(g.p[i] for i in orbit), len(orbit)) == g.p_av

    @given(metric_orders())
    def test_detected_orders_are_basic(self, m):
        # tilting_summands relies on this for distinct summands
        try:
            detect_gorenstein(m)
        except (AmbiguousNakayamaError, NotGorensteinError):
            return
        assert orders._is_basic(m.rows)

    @given(relabeled_shifted_cyclic())
    def test_defining_relation_consequences(self, m):
        # detect_gorenstein does not re-check these; they follow from the
        # defining relation m(nu(i), j) + m(j, i) = ell_i
        g = detect_gorenstein(m)
        n = m.n
        assert all(g.ell[i] == m.entry(g.nu(i), i) for i in range(n))
        for i in range(n):
            for j in range(n):
                assert m.entry(g.nu(i), g.nu(j)) == m.entry(i, j) + g.p[j] - g.p[i]


class TestProductOrders:
    def test_detection_is_the_product(self):
        # nu = nu1 x nu2 and p = p1 + p2 - 1 on pairs, carried through the
        # relabelling and the shift: p'(x) = p(x) + s(x) - s(nu x)
        rng = random.Random(41)
        multi = 0
        for _ in range(300):
            w1 = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
            w2 = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
            if not any(w1) or not any(w2):
                continue
            _, g1 = cyclic_order(w1)
            _, g2 = cyclic_order(w2)
            n2 = len(w2)
            n = len(w1) * n2
            labels = rng.sample(range(n), n)
            shift = None
            if rng.random() < 0.5:
                shift = [rng.randint(-2, 2) for _ in range(n)]
            g = detect_gorenstein(product_order(w1, w2, labels, shift))
            index = {x: i for i, x in enumerate(labels)}
            s = shift or [0] * n
            for i, x in enumerate(labels):
                a, b = divmod(x, n2)
                assert g.nu(i) == index[g1.nu(a) * n2 + g2.nu(b)]
                assert g.p[i] == g1.p[a] + g2.p[b] - 1 + s[i] - s[g.nu(i)]
            orbits = len(g.nu.orbits())
            assert orbits == math.gcd(len(w1), n2)
            multi += orbits > 1
        assert multi > 50

    def test_unshifted_product_in_index_order(self):
        # (1, 1) x (1, 1): pairs 0 = (0,0), 1 = (0,1), 2 = (1,0), 3 = (1,1)
        m = product_order((1, 1), (1, 1))
        assert m.rows == ((0, 1, 1, 2), (1, 0, 2, 1), (1, 2, 0, 1), (2, 1, 1, 0))
        g = detect_gorenstein(m)
        assert g.nu.images == (3, 2, 1, 0)
        assert g.p == (-1, -1, -1, -1)  # p1 = p2 = (0, 0)


class TestShiftedParameters:
    def test_worked_example(self):
        _, g = cyclic_order((1, 1, 1, 1))
        assert shifted_parameters(g, (0, 1, 0, 1)) == (-1, -3, -1, -3)

    def test_zero_shift(self):
        _, g = cyclic_order((2, 1, 1, 1))
        assert shifted_parameters(g, (0, 0, 0, 0)) == g.p

    def test_point(self):
        # a single-point cyclic order has m = [[0]] whatever the weight
        _, g = cyclic_order((3,))
        assert shifted_parameters(g, (7,)) == (1,) == g.p

    @given(shifted_cyclic(), st.lists(st.integers(-4, 4), min_size=6, max_size=6))
    def test_matches_matrix_route(self, m, raw):
        """The closed formula must agree with conjugating the matrix.

        ``shifted_parameters(g, s)`` is the parameter transform matching
        ``morita_shift(m, [-x for x in s])``; both routes are computed
        independently here.
        """
        s = tuple(raw[: m.n]) + (0,) * max(0, m.n - len(raw))
        g = detect_gorenstein(m)
        direct = shifted_parameters(g, s)
        via_matrix = detect_gorenstein(
            morita_shift(m, tuple(-x for x in s))
        ).p
        assert direct == via_matrix

    @given(shifted_cyclic(), st.lists(st.integers(-4, 4), min_size=6, max_size=6))
    def test_average_invariant(self, m, raw):
        s = tuple(raw[: m.n]) + (0,) * max(0, m.n - len(raw))
        g = detect_gorenstein(m)
        q = shifted_parameters(g, s)
        assert Fraction(sum(q), m.n) == g.p_av
