"""The tilting poset against a derived invariant (see derived_oracles).

Every Morita frame of one order that is N-graded with all p_i <= 0 must give
the same Coxeter polynomial of the incidence algebra of tilting_poset's
elements.  The invariant is not complete: a truncation at j - 1 in place of
j passes these tests.
"""

import random

from tiledorder import (
    cyclic_order,
    detect_gorenstein,
    morita_shift,
    normalize_equivariant,
    order_equivariant_data,
    tilting_poset,
)
from tiledorder import orders

from derived_oracles import (
    cartan,
    charpoly,
    coxeter_matrix,
    coxeter_polynomial,
    unitriangular_inverse,
)
from helpers import product_order

K_LIMIT = 40  # the polynomial costs O(k^4) integer operations


def polynomial(m):
    """The Coxeter polynomial of m's tilting poset, or None when m is not an
    N-graded frame with all p_i <= 0 and at most K_LIMIT summands."""
    g = detect_gorenstein(m)
    if orders.first_negative(m.rows) is not None or max(g.p) > 0:
        return None
    if 1 - sum(g.p) > K_LIMIT:
        return None
    return coxeter_polynomial(tilting_poset(m, g).elements)


def chain_product(length):
    """The elements of the product of two chains of `length` elements."""
    return [(a, b) for a in range(length) for b in range(length)]


def compare(frame_pairs, count):
    """(compared, differing) over the first `count` pairs whose frames both
    qualify; differing lists the rows of the pairs whose polynomials differ."""
    compared, differing = 0, []
    for a, b in frame_pairs:
        pa, pb = polynomial(a), polynomial(b)
        if pa is None or pb is None:
            continue
        compared += 1
        if pa != pb:
            differing.append((a.rows, b.rows))
        if compared == count:
            break
    return compared, differing


class TestOracle:
    """The oracle's own algebra, on inputs whose answers are known."""

    def test_charpoly_of_small_matrices(self):
        assert charpoly([]) == [1]
        assert charpoly([[5]]) == [1, -5]
        assert charpoly([[1, 2], [3, 4]]) == [1, -5, -2]
        # the companion matrix of x^3 - 2x^2 + 3x - 4
        assert charpoly([[0, 0, 4], [1, 0, -3], [0, 1, 2]]) == [1, -2, 3, -4]

    def test_inverse_and_self_reciprocity(self):
        # C C^-1 = I, and Phi^-1 = C^-1 Phi^T C gives a palindromic
        # polynomial with constant term 1 (det Phi = (-1)^k)
        rng = random.Random(2401)
        for _ in range(30):
            els = {tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(12)}
            c = cartan(els)
            inv = unitriangular_inverse(c)
            k = len(c)
            product = [[sum(map(int.__mul__, r, col)) for col in zip(*inv)] for r in c]
            assert product == [[int(i == j) for j in range(k)] for i in range(k)]
            poly = charpoly(coxeter_matrix(els))
            assert poly == poly[::-1]

    def test_chain(self):
        # A_k, linearly oriented: (x^(k+1) - 1) / (x - 1)
        for k in range(1, 8):
            assert coxeter_polynomial([(x,) for x in range(k)]) == [1] * (k + 1)


class TestFrames:
    def test_cyclic_frames_agree(self):
        rng = random.Random(2402)

        def candidates():
            while True:
                n = rng.randint(1, 4)
                w = [rng.randint(0, 3) for _ in range(n)]
                if not any(w):
                    continue
                m, _ = cyclic_order(w)
                s1, s2 = ([rng.randint(-2, 2) for _ in range(n)] for _ in "ab")
                yield morita_shift(m, s1), morita_shift(m, s2)

        compared, differing = compare(candidates(), 90)
        assert compared == 90
        assert not differing, f"{len(differing)} of 90 pairs differ: {differing[:3]}"

    def test_product_frames_agree(self):
        # the normalized frame of a relabelled, shifted product against a
        # second shift of it
        rng = random.Random(2403)

        def candidates():
            while True:
                n1, n2 = rng.choice(((1, 2), (2, 2), (2, 3), (3, 2), (1, 4)))
                w1 = [rng.randint(0, 2) for _ in range(n1)]
                w2 = [rng.randint(0, 2) for _ in range(n2)]
                if not any(w1) or not any(w2):
                    continue
                n = n1 * n2
                shift = [rng.randint(-2, 2) for _ in range(n)]
                m = product_order(w1, w2, rng.sample(range(n), n), shift)
                ed = order_equivariant_data(m, detect_gorenstein(m))
                normalized = morita_shift(m, [-x for x in normalize_equivariant(ed)])
                second = [rng.randint(-1, 1) for _ in range(n)]
                yield normalized, morita_shift(normalized, second)

        compared, differing = compare(candidates(), 60)
        assert compared == 60
        assert not differing, f"{len(differing)} of 60 pairs differ: {differing[:3]}"

    def test_unit_weights_are_a_product_of_chains(self):
        # unit weights of length n give (n - 1)^2 summands, and the
        # polynomial of the product of two (n - 1)-element chains
        for n in (3, 4, 5):
            m, _ = cyclic_order([1] * n)
            assert polynomial(m) == coxeter_polynomial(chain_product(n - 1))
