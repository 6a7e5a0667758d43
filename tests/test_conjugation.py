import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tiledorder import conjugation
from tiledorder import (
    EquivarianceViolationError,
    NegativeCycleError,
    Permutation,
    TooLargeError,
    conjugate_data,
    cyclic_order,
    equivariant_data,
    find_negative_cycle,
    floor_align,
    normalize_equivariant,
    order_equivariant_data,
)

from cycle_oracles import (
    IndexOutOfRangeError,
    NegativeDiagonalError,
    NotMinCycleError,
    conjugate_matrix,
    cycle_sum,
    has_negative_cycle_floyd_warshall,
    is_cycle_nonneg_bruteforce,
    min_cycle,
    negative_simple_cycles,
    nonneg_conjugate,
    normalized_cycle_conjugate,
    scalar_bellman_ford,
)
from equivariant_templates import (
    SYMBOLS,
    two_orbit_data,
    two_orbit_order,
)
from helpers import (
    floor_profile,
    identity,
    is_cycle_nonneg,
    is_floor_aligned,
    kernel_fold,
    power_images,
)
from test_gorenstein import relabeled_shifted_cyclic
from test_orders import CYCLIC_1111, shifted_cyclic


def random_square(rng, n, lo, hi, zero_diag=True):
    rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    if zero_diag:
        for i in range(n):
            rows[i][i] = 0
    return [tuple(r) for r in rows]


class TestCycleSum:
    def test_fixed_point(self):
        assert cycle_sum(CYCLIC_1111, (2,)) == 0

    def test_full_cycle(self):
        assert cycle_sum(CYCLIC_1111, (0, 1, 2, 3)) == 4

    def test_two_cycle(self):
        assert cycle_sum(CYCLIC_1111, (0, 1)) == 4
        assert cycle_sum(CYCLIC_1111, (0, 2)) == 4

    def test_bad_index(self):
        with pytest.raises(IndexOutOfRangeError):
            cycle_sum(CYCLIC_1111, (0, 7))

    def test_empty_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            cycle_sum(CYCLIC_1111, ())


class TestNonnegativityTests:
    def test_zero_matrix(self):
        assert is_cycle_nonneg_bruteforce([(0, 0), (0, 0)])

    def test_negative_pair(self):
        assert not is_cycle_nonneg_bruteforce([(0, 1), (-2, 0)])

    def test_compensated_pair(self):
        assert is_cycle_nonneg_bruteforce([(0, 3), (-1, 0)])

    def test_size_cap(self):
        rows = [tuple(0 for _ in range(9)) for _ in range(9)]
        with pytest.raises(TooLargeError):
            is_cycle_nonneg_bruteforce(rows)

    def test_scaling_version_matches(self):
        rng = random.Random(20260816)
        for _ in range(200):
            n = rng.randint(1, 6)
            rows = random_square(rng, n, -3, 3)
            assert is_cycle_nonneg(rows) == is_cycle_nonneg_bruteforce(rows)


class TestFindNegativeCycle:
    def test_none_on_nonneg(self):
        assert find_negative_cycle(CYCLIC_1111) is None

    def test_pair_witness(self):
        assert find_negative_cycle([(0, 1), (-2, 0)]) == (0, 1)

    def test_negative_diagonal_witness(self):
        assert find_negative_cycle([(0, 9), (9, -1)]) == (1,)

    def test_huge_entries(self):
        # entries far past float range: the witness search stays in ints
        big = 10**400
        rows = [(0, -1, big), (-1, 0, big), (big, big, 0)]
        assert find_negative_cycle(rows) == (0, 1)
        # every 2-cycle sums to >= 0; only the 3-cycle is negative
        rows = [(0, -big, big), (big, 0, -big), (1, big, 0)]
        assert find_negative_cycle(rows) == (0, 1, 2)

    def test_witness_contract(self):
        # simple, negative sum, smallest index first, deterministic: the
        # witness is one of the enumerated negative simple cycles
        rng = random.Random(99)
        hits = 0
        for _ in range(2000):
            n = rng.randint(1, 6)
            rows = random_square(rng, n, -2, 4, zero_diag=rng.random() < 0.8)
            w = find_negative_cycle(rows)
            negative = negative_simple_cycles(rows)
            if w is None:
                assert not negative, rows
            else:
                assert w in negative, (rows, w)
                assert find_negative_cycle(rows) == w
                hits += 1
        assert 500 < hits < 1500

    def test_existence_matches_floyd_warshall(self):
        # without a cycle, nonneg_conjugate's unchecked potentials must work
        rng = random.Random(100)
        hits = 0
        for _ in range(300):
            n = rng.randint(1, 30)
            rows = random_square(rng, n, -1, 3 * n, zero_diag=rng.random() < 0.9)
            w = find_negative_cycle(rows)
            assert (w is not None) == has_negative_cycle_floyd_warshall(rows), rows
            if w is None:
                out = conjugate_matrix(rows, nonneg_conjugate(rows))
                assert all(x >= 0 for row in out for x in row)
                continue
            hits += 1
            assert len(set(w)) == len(w) and w[0] == min(w)
            assert sum(rows[a][b] for a, b in zip(w, w[1:] + w[:1])) < 0
        assert 50 < hits < 250

    def test_planted_unique_cycle(self):
        # one negative simple cycle on a random subset, in random order: its
        # edges sum to -1, each edge off it costs more than any path along
        # it can save, so every other cycle sum is positive
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(1, 40)
            length = rng.randint(1, n)
            cycle = rng.sample(range(n), length)
            steps = [rng.randint(-5, 5) for _ in range(length - 1)]
            steps.append(-1 - sum(steps))
            big = 5 * n + abs(steps[-1]) + 1
            rows = [[rng.randint(big, 2 * big) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                rows[i][i] = 0
            for k, step in enumerate(steps):
                rows[cycle[k]][cycle[(k + 1) % length]] = step
            start = cycle.index(min(cycle))
            assert find_negative_cycle(rows) == tuple(cycle[start:] + cycle[:start])


# (SCALAR_PASSES, PACKED_FROM) of conjugation: the package's choice, scalar
# passes only, packed passes only, and a switch to packed ones after two
# scalar passes, which packs a dist that is no longer zero
KERNELS = {
    "default": (conjugation.SCALAR_PASSES, conjugation.PACKED_FROM),
    "scalar": (10**9, 10**9),
    "packed": (0, 1),
    "switch": (2, 1),
}


@pytest.fixture(params=list(KERNELS))
def kernel(request, monkeypatch):
    passes, size = KERNELS[request.param]
    monkeypatch.setattr(conjugation, "SCALAR_PASSES", passes)
    monkeypatch.setattr(conjugation, "PACKED_FROM", size)
    return request.param


def circulant_cycle(rng, n):
    """The circulant c(j - i mod n), c(1) = -1, c(d) >= n - d for d >= 2,
    conjugated by a random shift and relabeled: its one negative simple
    cycle is the relabeled Hamiltonian cycle 0 -> 1 -> ... (as in the
    benchmark's long negative cycles)."""
    c = [0, -1] + [n - d + rng.randint(0, 3) for d in range(2, n)]
    s = [rng.randint(-n, n) for _ in range(n)]
    pi = list(range(n))
    rng.shuffle(pi)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[pi[i]][pi[j]] = c[(j - i) % n] + s[i] - s[j]
    cycle = [pi[i] for i in range(n)]
    start = cycle.index(min(cycle))
    return tuple(map(tuple, rows)), tuple(cycle[start:] + cycle[:start])


def descending_chain(n, v):
    """m(i+1, i) = -1, other off-diagonal entries v: a negative cycle
    exactly when v < n - 1, and about n passes either way."""
    return tuple(
        tuple(-1 if i == j + 1 else 0 if i == j else v for j in range(n))
        for i in range(n)
    )


def bound_cycle(n, a, b):
    """m(i, i+1 mod n) = -a, other off-diagonal entries b >= 0: each pass
    walks the whole cycle, so dist falls toward -a * n(n + 1), the bound
    behind the packed field width, with span a + b."""
    return tuple(
        tuple(-a if j == (i + 1) % n else 0 if i == j else b for j in range(n))
        for i in range(n)
    )


class TestPackedBellmanFord:
    """conjugation._bellman_ford, which skips rows whose dist did not drop
    and packs the later passes of large matrices, against the scalar loop
    it replaced: equal (dist, cycle) under every choice of kernel."""

    def assert_oracle(self, rows):
        got = conjugation._bellman_ford(rows)
        assert got == scalar_bellman_ford(rows), rows
        return got

    def test_random_matrices(self, kernel):
        rng = random.Random(2501)
        outcomes = set()
        for scale in (1, 10**3, 10**20, 10**40):
            for _ in range(250):
                n = rng.randint(1, 9)
                rows = [[rng.randint(-3, 9) * scale for _ in range(n)] for _ in range(n)]
                for i in range(n):
                    rows[i][i] = 0
                if rng.random() < 0.2:  # a planted negative diagonal
                    i = rng.randrange(n)
                    rows[i][i] = -rng.randint(1, 3) * scale
                dist, cycle = self.assert_oracle(tuple(map(tuple, rows)))
                outcomes.add(None if cycle is None else min(len(cycle), 2))
        assert outcomes == {None, 1, 2}

    def test_non_negative_matrices_take_the_closed_form(self, kernel, monkeypatch):
        def no_packing(*args):
            raise AssertionError("a non-negative matrix was packed")

        monkeypatch.setattr(conjugation, "_relaxer", no_packing)
        rng = random.Random(2502)
        for n in (1, 2, 5, 40):
            zero = ((0,) * n,) * n
            assert self.assert_oracle(zero) == ([0] * n, None)
            rows = tuple(
                tuple(rng.randint(0, 9) * 10**k for _ in range(n)) for k in range(n)
            )
            assert self.assert_oracle(rows) == ([0] * n, None)

    def test_long_negative_cycles(self, kernel):
        rng = random.Random(2503)
        for n in (2, 3, 5, 12, 16, 24, 31, 32, 33, 40, 60):
            rows, cycle = circulant_cycle(rng, n)
            assert self.assert_oracle(rows) == ([], cycle)

    def test_descending_chains(self, kernel):
        for n in (1, 2, 3, 8, 31, 32, 40):
            for v in (n - 3, n - 2, n - 1, n, n + 1):
                if v >= 0:
                    dist, cycle = self.assert_oracle(descending_chain(n, v))
                    assert (cycle is not None) == (v < n - 1)

    def test_descending_chain_at_the_file_limit(self):
        # the slowest known input of FILE_LIMIT = 256 rows (files.py)
        dist, cycle = self.assert_oracle(descending_chain(256, 256))
        assert cycle is None and min(dist) == -255

    def test_spans_at_field_width_edges(self, monkeypatch):
        # span at each edge of the width rule: the largest span whose bound
        # (n(n + 1) + 1) * span + 1 fits below half = 2**(8 * size - 1),
        # and one more, which needs the next size; on cycles whose dist
        # falls to -(span - b) * n(n + 1), and on random rows of that span.
        # Besides the kernels above, the packing may come just before the
        # last pass, when dist is lowest (its fields must hold dist + half).
        rng = random.Random(2504)
        for n in (2, 3, 5, 9):
            steps = n * (n + 1) + 1
            for size in (1, 2, 3, 4, 8, 9, 17):
                edge = ((1 << 8 * size - 1) - 2) // steps
                for span in (edge, edge + 1):
                    cases = [bound_cycle(n, span - b, b) for b in (0, 1, span // 2)]
                    rows = [[rng.randint(-span, 0) for _ in range(n)] for _ in range(n)]
                    for i in range(n):
                        rows[i][i] = 0
                    cases.append(tuple(map(tuple, rows)))
                    for passes, least in [*KERNELS.values(), (n, 1)]:
                        monkeypatch.setattr(conjugation, "SCALAR_PASSES", passes)
                        monkeypatch.setattr(conjugation, "PACKED_FROM", least)
                        for rows in cases:
                            self.assert_oracle(rows)

    def test_nonneg_conjugate_does_not_call_the_package_loop(self, monkeypatch):
        def fail(rows):
            raise AssertionError("nonneg_conjugate ran the code under test")

        monkeypatch.setattr(conjugation, "_bellman_ford", fail)
        assert nonneg_conjugate([(0, -2), (3, 0)]) == (0, -2)


class TestMinCycle:
    def test_tie_break_prefers_short(self):
        # value 3 is attained by both (0,1) and (0,1,2); shorter wins
        rows = [(0, 1, 5), (2, 0, 1), (1, 4, 0)]
        assert min_cycle(rows) == ((0, 1), 3)

    def test_only_cycle(self):
        assert min_cycle([(0, 3), (-1, 0)]) == ((0, 1), 2)

    def test_symmetric(self):
        assert min_cycle([(0, 5), (5, 0)]) == ((0, 1), 10)

    def test_size_cap(self):
        rows = [tuple(0 for _ in range(11)) for _ in range(11)]
        with pytest.raises(TooLargeError):
            min_cycle(rows)

    def test_value_is_really_minimal(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(2, 5)
            rows = random_square(rng, n, -3, 5)
            seq, val = min_cycle(rows)
            assert cycle_sum(rows, seq) == val
            for i in range(n):
                for j in range(i + 1, n):
                    assert val <= rows[i][j] + rows[j][i]


class TestConjugateMatrix:
    def test_example(self):
        out = conjugate_matrix([(0, 3), (-1, 0)], (-1, 0))
        assert out == ((0, 2), (0, 0))

    @given(shifted_cyclic(), st.lists(st.integers(-5, 5), min_size=6, max_size=6))
    def test_cycle_sums_unchanged(self, m, raw):
        s = tuple(raw[: m.n]) + (0,) * max(0, m.n - len(raw))
        out = conjugate_matrix(m.rows, s)
        seq = tuple(range(m.n))
        assert cycle_sum(out, seq) == cycle_sum(m.rows, seq)


class TestNonnegConjugate:
    def test_worked_example(self):
        assert nonneg_conjugate([(0, 3), (-1, 0)]) == (-1, 0)

    def test_already_nonneg(self):
        assert nonneg_conjugate(CYCLIC_1111) == (0, 0, 0, 0)

    def test_negative_cycle_reported(self):
        with pytest.raises(NegativeCycleError) as ei:
            nonneg_conjugate([(0, 1), (-2, 0)])
        assert ei.value.witness == (0, 1)

    def test_negative_diagonal_reported(self):
        with pytest.raises(NegativeDiagonalError) as ei:
            nonneg_conjugate([(0, 5), (5, -2)])
        assert ei.value.witness == 1
        # with a negative 2-cycle (0, 1) as well, the first negative diagonal
        # index is still the witness
        with pytest.raises(NegativeDiagonalError) as ei:
            nonneg_conjugate([(0, -5, 0), (-5, -1, 0), (0, 0, -2)])
        assert ei.value.witness == 1

    def test_random_instances(self):
        rng = random.Random(4242)
        hits = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            rows = random_square(rng, n, -2, 4)
            try:
                s = nonneg_conjugate(rows)
            except NegativeCycleError as err:
                assert cycle_sum(rows, err.witness) < 0
                continue
            hits += 1
            out = conjugate_matrix(rows, s)
            assert all(x >= 0 for row in out for x in row)
        assert hits > 20


class TestNormalizedCycleConjugate:
    def test_worked_example(self):
        rows = [(0, 1, 5), (2, 0, 1), (1, 4, 0)]
        assert normalized_cycle_conjugate(rows, (0, 1, 2)) == (0, 1, 2)

    def test_two_cycle(self):
        assert normalized_cycle_conjugate([(0, 3), (-1, 0)], (0, 1)) == (0, 3)

    def test_not_minimal_rejected(self):
        rows = [(0, 1, 5), (2, 0, 1), (1, 4, 0)]
        with pytest.raises(NotMinCycleError):
            normalized_cycle_conjugate(rows, (0, 2, 1))

    def test_short_cycle_rejected(self):
        with pytest.raises(NotMinCycleError):
            normalized_cycle_conjugate(CYCLIC_1111, (0,))

    def test_repeats_rejected(self):
        with pytest.raises(NotMinCycleError):
            normalized_cycle_conjugate(CYCLIC_1111, (0, 1, 0))

    def test_postconditions(self):
        rng = random.Random(31)
        done = 0
        while done < 60:
            n = rng.randint(2, 5)
            rows = random_square(rng, n, 0, 4)
            seq, _ = min_cycle(rows)
            if len(seq) < 2:
                continue
            try:
                s = normalized_cycle_conjugate(rows, seq)
            except NotMinCycleError:
                continue
            out = conjugate_matrix(rows, s)
            for a, b in zip(seq, seq[1:]):
                assert out[a][b] == 0
            assert s[seq[0]] == 0
            done += 1


class TestFloorProfile:
    def test_worked_example(self):
        assert floor_profile(1, 3, 6) == (0, 0, 1, 0, 0, 1)

    def test_negative_numerator(self):
        assert floor_profile(-1, 2, 4) == (-1, 0, -1, 0)

    def test_integer_rate(self):
        assert floor_profile(5, 1, 3) == (5, 5, 5)

    def test_nonintegral_rejected(self):
        with pytest.raises(ValueError):
            floor_profile(1, 2, 3)

    @given(
        st.integers(-12, 12),
        st.integers(1, 8),
        st.integers(1, 4),
    )
    def test_sum_and_spread(self, r, g, k):
        n = g * k
        prof = floor_profile(r, g, n)
        assert sum(prof) == r * k
        lo = min(prof)
        assert max(prof) - lo <= 1


class TestEquivariantData:
    def test_from_order(self):
        m, g = cyclic_order((2, 0, 0, 0))
        ed = order_equivariant_data(m, g)
        assert ed.twist == (-1, 1, 1, 1)
        assert ed.avg == (1, 2)
        assert ed.twist_avg == Fraction(1, 2)
        assert ed.period == 2
        assert ed.matrix[0][1] == m.entry(1, 0)

    def test_avg_is_the_reduced_pair(self):
        """avg is -p_av in lowest terms; twist_avg and period read it."""
        rng = random.Random(2006)
        for _ in range(300):
            weights = [rng.randint(0, 5) for _ in range(rng.randint(1, 9))]
            if not any(weights):
                continue
            m, g = cyclic_order(weights)
            shift = [rng.randint(-9, 9) for _ in weights]
            ed = conjugate_data(order_equivariant_data(m, g), shift)
            avg = -g.p_av
            assert ed.avg == (avg.numerator, avg.denominator)
            assert (ed.twist_avg, ed.period) == (avg, avg.denominator)
            assert equivariant_data(ed.matrix, ed.twist, ed.perm).avg == ed.avg

    def test_violation_detected(self):
        with pytest.raises(EquivarianceViolationError) as ei:
            equivariant_data(((0, 5), (4, 0)), (0, 0), Permutation((1, 0)))
        assert ei.value.witness == (0, 1)

    def test_identity_perm_forces_constant_twist(self):
        # with perm = id the equivariance relation collapses to a(i) = a(j)
        with pytest.raises(EquivarianceViolationError):
            equivariant_data(((0, 5), (5, 0)), (0, 1), identity(2))

    def test_cross_orbit_averages_forced_equal(self):
        # full-matrix equivariance already pins every orbit average to the
        # same rational, so a two-orbit instance just validates cleanly
        from equivariant_templates import two_orbit_data

        ed = two_orbit_data({s: 0 for s in "bcdefghijklmnp"})
        assert ed.twist_avg == Fraction(1, 2)
        assert [len(o) for o in ed.orbits] == [4, 6]

    def test_point(self):
        ed = equivariant_data(((7,),), (3,), identity(1))
        assert ed.period == 1

    @given(
        shifted_cyclic(max_n=5),
        st.lists(st.integers(-4, 4), min_size=5, max_size=5),
    )
    def test_conjugation_preserves_validity(self, m, raw):
        from tiledorder import detect_gorenstein

        s = tuple(raw[: m.n]) + (0,) * max(0, m.n - len(raw))
        ed = order_equivariant_data(m, detect_gorenstein(m))
        moved = conjugate_data(ed, s)
        assert moved.twist_avg == ed.twist_avg
        assert moved.perm == ed.perm
        # conjugate_data does not re-validate; the validating constructor
        # accepts its output and derives the same average and orbits
        assert equivariant_data(moved.matrix, moved.twist, ed.perm) == moved
        back = conjugate_data(moved, tuple(-x for x in s))
        assert back.twist == ed.twist
        assert back.matrix == ed.matrix


    @given(relabeled_shifted_cyclic())
    def test_order_data_matches_validating_constructor(self, m):
        # order_equivariant_data builds its result without validation
        from tiledorder import detect_gorenstein

        g = detect_gorenstein(m)
        expected = equivariant_data(m.transpose(), tuple(-x for x in g.p), g.nu)
        assert order_equivariant_data(m, g) == expected

    def test_order_data_matches_validating_constructor_two_orbits(self):
        from tiledorder import detect_gorenstein, morita_shift

        rng = random.Random(19)
        base = two_orbit_order()
        for _ in range(50):
            m = morita_shift(base, [rng.randint(-4, 4) for _ in range(base.n)])
            g = detect_gorenstein(m)
            assert len(g.nu.orbits()) == 2
            expected = equivariant_data(
                m.transpose(), tuple(-x for x in g.p), g.nu
            )
            assert order_equivariant_data(m, g) == expected

    def test_conjugation_preserves_validity_two_orbits(self):
        from equivariant_templates import SYMBOLS, two_orbit_data

        rng = random.Random(17)
        for _ in range(50):
            ed = two_orbit_data({x: rng.randint(-3, 3) for x in SYMBOLS})
            moved = conjugate_data(ed, [rng.randint(-4, 4) for _ in range(ed.n)])
            assert equivariant_data(moved.matrix, moved.twist, ed.perm) == moved
            # equivariant_data averages the first orbit only; equivariance
            # forces the other to agree
            for orbit in moved.orbits:
                average = Fraction(sum(moved.twist[i] for i in orbit), len(orbit))
                assert average == Fraction(1, 2)


class TestFloorAlign:
    def _mdata_with_twist(self, target):
        """Build valid 4-cycle equivariant data with the requested twist."""
        m, g = cyclic_order((2, 0, 0, 0))
        ed = order_equivariant_data(m, g)
        delta = [t - a for t, a in zip(target, ed.twist)]
        assert sum(delta) == 0
        s = [0] * 4
        for i in range(3):
            s[i + 1] = s[i] - delta[i]
        return conjugate_data(ed, tuple(s))

    def test_worked_example(self):
        ed = self._mdata_with_twist((2, 0, -1, 1))
        assert floor_align(ed) == (0, 2, 1, 0)
        aligned = conjugate_data(ed, (0, 2, 1, 0))
        assert aligned.twist == (0, 1, 0, 1)
        assert is_floor_aligned(aligned)

    def test_rotated_profile_accepted(self):
        ed = self._mdata_with_twist((1, 0, 1, 0))
        assert is_floor_aligned(ed)

    def test_non_profile_rejected(self):
        ed = self._mdata_with_twist((1, 0, 0, 1))
        assert not is_floor_aligned(ed)

    def test_align_is_idempotent(self):
        ed = self._mdata_with_twist((2, 0, -1, 1))
        aligned = conjugate_data(ed, floor_align(ed))
        assert floor_align(aligned) == (0, 0, 0, 0)

    @given(
        shifted_cyclic(max_n=6),
        st.lists(st.integers(-4, 4), min_size=6, max_size=6),
    )
    def test_align_always_lands_on_profile(self, m, raw):
        from tiledorder import detect_gorenstein

        s = tuple(raw[: m.n]) + (0,) * max(0, m.n - len(raw))
        ed = conjugate_data(
            order_equivariant_data(m, detect_gorenstein(m)), s
        )
        aligned = conjugate_data(ed, floor_align(ed))
        assert is_floor_aligned(aligned)
        # exact profile, not just a rotation: base point starts the pattern
        r, g = ed.twist_avg.numerator, ed.twist_avg.denominator
        for orbit in aligned.orbits:
            expected = floor_profile(r, g, len(orbit))
            assert tuple(aligned.twist[i] for i in orbit) == expected


def assert_periodic(ed):
    """The matrix is invariant under perm^g, g = ed.period."""
    power = power_images(ed.perm, ed.period)
    for i in range(ed.n):
        for j in range(ed.n):
            assert ed.matrix[power[i]][power[j]] == ed.matrix[i][j]


def assert_fold_invariant(ed):
    """The fold is invariant under (i, j) -> (perm i, perm j)."""
    summed = kernel_fold(ed).summed
    for i in range(ed.n):
        for j in range(ed.n):
            assert summed[ed.perm(i)][ed.perm(j)] == summed[i][j]


class TestFoldOrbits:
    def test_full_cycle_period_one(self):
        m, g = cyclic_order((1, 1, 1, 1))
        ed = order_equivariant_data(m, g)
        assert ed.period == 1
        fold = kernel_fold(ed)
        assert fold.summed == ed.matrix
        assert fold.block_min == ((0,),)

    def test_requires_alignment(self):
        # the quotient argument of normalize_equivariant uses the alignment:
        # unaligned, the fold need not be invariant under perm
        m, g = cyclic_order((2, 0, 0, 0))
        ed = order_equivariant_data(m, g)  # twist (-1,1,1,1): not a profile
        assert not is_floor_aligned(ed)
        summed = kernel_fold(ed).summed
        assert any(
            summed[ed.perm(i)][ed.perm(j)] != summed[i][j]
            for i in range(ed.n)
            for j in range(ed.n)
        )
        assert_fold_invariant(conjugate_data(ed, floor_align(ed)))

    @given(
        shifted_cyclic(max_n=6),
        st.lists(st.integers(-4, 4), min_size=6, max_size=6),
    )
    def test_aligned_data_is_periodic(self, m, raw):
        # normalize_equivariant relies on these without checking them:
        # floor-aligned data is invariant under perm^g, and its fold under perm
        from tiledorder import detect_gorenstein

        s = tuple(raw[: m.n])
        ed = conjugate_data(order_equivariant_data(m, detect_gorenstein(m)), s)
        aligned = conjugate_data(ed, floor_align(ed))
        assert_periodic(aligned)
        assert_fold_invariant(aligned)

    def test_aligned_two_orbit_data_is_periodic(self):
        from equivariant_templates import SYMBOLS, two_orbit_data

        rng = random.Random(18)
        for _ in range(50):
            ed = two_orbit_data({x: rng.randint(-3, 3) for x in SYMBOLS})
            ed = conjugate_data(ed, [rng.randint(-4, 4) for _ in range(ed.n)])
            aligned = conjugate_data(ed, floor_align(ed))
            assert_periodic(aligned)
            assert_fold_invariant(aligned)

    def test_two_block_example(self):
        m, g = cyclic_order((2, 0, 0, 0))
        ed = order_equivariant_data(m, g)
        aligned = conjugate_data(ed, floor_align(ed))
        assert aligned.period == 2
        fold = kernel_fold(aligned)
        assert len(fold.block_min) == 1
        assert fold.block_min == ((min(map(min, fold.summed)),),)


class TestNormalizeEquivariant:
    def test_worked_example(self):
        m, g = cyclic_order((2, 0, 0, 0))
        ed = order_equivariant_data(m, g)
        s = normalize_equivariant(ed)
        assert s == (0, -1, -1, 0)
        out = conjugate_data(ed, s)
        assert out.twist == (0, 1, 0, 1)
        assert out.matrix == (
            (0, 1, 1, 0),
            (1, 0, 2, 1),
            (1, 0, 0, 1),
            (2, 1, 1, 0),
        )

    def test_unit_cycle_is_fixed(self):
        m, g = cyclic_order((1, 1, 1, 1))
        ed = order_equivariant_data(m, g)
        assert normalize_equivariant(ed) == (0, 0, 0, 0)

    def test_negative_cycle_rejected(self):
        # twist stays fine but the matrix has an unfixable negative cycle
        ed = equivariant_data(
            ((0, -1), (-1, 0)), (0, 0), Permutation((1, 0))
        )
        with pytest.raises(NegativeCycleError) as ei:
            normalize_equivariant(ed)
        assert cycle_sum(ed.matrix, ei.value.witness) < 0

    def test_negative_diagonal_rejected(self):
        ed = equivariant_data(((-2,),), (5,), identity(1))
        with pytest.raises(NegativeCycleError) as ei:
            normalize_equivariant(ed)
        assert ei.value.witness == (0,)

    @given(
        shifted_cyclic(max_n=6),
        st.lists(st.integers(-4, 4), min_size=6, max_size=6),
    )
    def test_postconditions(self, m, raw):
        from tiledorder import detect_gorenstein

        s0 = tuple(raw[: m.n]) + (0,) * max(0, m.n - len(raw))
        ed = conjugate_data(
            order_equivariant_data(m, detect_gorenstein(m)), s0
        )
        s = normalize_equivariant(ed)
        out = conjugate_data(ed, s)
        assert all(x >= 0 for row in out.matrix for x in row)
        assert all(abs(t - out.twist_avg) < 1 for t in out.twist)
        assert is_floor_aligned(out)
        assert out.twist_avg == ed.twist_avg


    def test_postconditions_two_orbits(self):
        rng = random.Random(21)
        done = 0
        for _ in range(300):
            values = {x: rng.randint(-1, 4) for x in SYMBOLS}
            values.update(b=0, j=0)  # the diagonal
            ed = two_orbit_data(values)
            ed = conjugate_data(ed, [rng.randint(-4, 4) for _ in range(ed.n)])
            if has_negative_cycle_floyd_warshall(ed.matrix):
                continue
            out = conjugate_data(ed, normalize_equivariant(ed))
            assert all(x >= 0 for row in out.matrix for x in row)
            assert all(abs(t - out.twist_avg) < 1 for t in out.twist)
            assert is_floor_aligned(out)
            done += 1
        assert done > 25


class TestTwoOrbitTemplate:
    """10x10 template: orbits Z/4 and Z/6, average twist 1/2."""

    def test_distinct_symbols_fold(self):
        from equivariant_templates import (
            SYMBOLS,
            two_orbit_block_min,
            two_orbit_data,
            two_orbit_summed,
        )

        values = {s: k + 1 for k, s in enumerate(SYMBOLS)}
        ed = two_orbit_data(values)
        assert ed.period == 2
        fold = kernel_fold(ed)
        assert fold.summed == two_orbit_summed(values)
        assert fold.block_min == two_orbit_block_min(values)

    def test_lift_spreads_block_shift_across_orbits(self):
        """A fold whose block conjugation forces a nonzero lifted shift.

        With cross-block symbols f = g = -2 and h = i = 5 (all others 0)
        the folded block matrix is [[0,-4],[10,0]], whose potentials are
        (0,-4); lifting through the floor identification puts a constant
        -2 on the six-orbit.
        """
        from equivariant_templates import two_orbit_data

        values = {s: 0 for s in "bcdejklmnp"}
        values.update(f=-2, g=-2, h=5, i=5)
        ed = two_orbit_data(values)

        fold = kernel_fold(ed)
        assert fold.block_min == ((0, -4), (10, 0))

        s = normalize_equivariant(ed)
        assert s == (0, 0, 0, 0, -2, -2, -2, -2, -2, -2)
        out = conjugate_data(ed, s)
        assert out.twist == ed.twist
        assert all(x >= 0 for row in out.matrix for x in row)
        assert min(x for row in out.matrix for x in row[:4]) == 0
