"""End-to-end acceptance checks.

One test per acceptance item; each prints a single PASS/FAIL line (visible
under ``pytest -s``) before asserting.  Every comparison is exact integer or
exact rational arithmetic; no tolerances anywhere.
"""

import math
import random
from fractions import Fraction

from tiledorder import (
    ExponentMatrix,
    NegativeCycleError,
    PositiveParameterError,
    cyclic_hasse_oracle,
    cyclic_order,
    detect_gorenstein,
    grothendieck_rank,
    hasse_quiver,
    morita_shift,
    normalize_equivariant,
    order_equivariant_data,
    shifted_parameters,
    tilting_poset,
    tilting_summands,
)

from cycle_oracles import (
    conjugate_matrix,
    cycle_sum,
    is_cycle_nonneg_bruteforce,
    min_cycle,
    nonneg_conjugate,
)
from equivariant_templates import (
    SYMBOLS,
    two_orbit_block_min,
    two_orbit_data,
    two_orbit_summed,
)
from hasse_oracle import endo_block_dim, hom_dim, tilde_index_sets
from helpers import kernel_fold


def _report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {num}] {status}: {name}")
    assert not failures, f"{len(failures)} failure(s), first few:\n" + "\n".join(
        repr(f) for f in failures[:10]
    )


def test_01_cyclic_line_counts():
    # For random 4-point cyclic weights with every three-weight sum >= 1, line
    # s of the tilting poset carries (sum of the other three weights) - 1
    # nonzero vertices; all four lines share the single zero vertex, so the
    # poset has 3*(total weight) - 3 = 1 - sum(p) elements.
    rng = random.Random(101)
    failures = []
    cases = 0
    while cases < 100:
        w = tuple(rng.randint(0, 4) for _ in range(4))
        if any(sum(w) - w[s] < 1 for s in range(4)):
            continue
        cases += 1
        m, g = cyclic_order(w)
        total = sum(w)
        counts = {s: 0 for s in range(4)}
        zero_entries = 0
        for labels, vec in tilting_summands(m, g):
            if any(vec):
                if len(labels) != 1:
                    failures.append((w, "shared nonzero summand", labels))
                    continue
                counts[labels[0][0]] += 1
            else:
                zero_entries += 1
                if sorted(labels) != [(s, -g.p[s] + 1) for s in range(4)]:
                    failures.append((w, "zero summand labels", labels))
        for s in range(4):
            expected = w[(s + 1) % 4] + w[(s + 2) % 4] + w[(s + 3) % 4] - 1
            if counts[s] != expected:
                failures.append((w, "line count", s, counts[s], expected))
        if zero_entries != 1:
            failures.append((w, "zero multiplicity", zero_entries))
        size = len(tilting_poset(m, g).elements)
        if size != 3 * total - 3 or size != 1 - sum(g.p):
            failures.append((w, "element count", size))
        if grothendieck_rank(g) != size:
            failures.append((w, "rank mismatch", grothendieck_rank(g), size))
    _report(
        1,
        "4-point cyclic lines carry (triple weight sum - 1) nonzero vertices, "
        "total 3*sum(w) - 3 = 1 - sum(p) (100 random weight vectors)",
        failures,
    )


def test_02_hasse_oracle_equivalence():
    # The closed-form line-and-arrow description of the cyclic Hasse quiver
    # must coincide with the cover computation on the tilting poset.  The rule
    # set describes covers when every weight is positive (a zero weight makes
    # one rule-(c) arrow redundant), so admissible means weights >= 1.
    rng = random.Random(202)
    failures = []
    for _ in range(50):
        n = rng.randint(2, 6)
        w = tuple(rng.randint(1, 4) for _ in range(n))
        m, g = cyclic_order(w)
        oracle = cyclic_hasse_oracle(w)
        hasse = hasse_quiver(tilting_poset(m, g))
        if oracle != hasse:
            failures.append((w, "quivers differ"))
    _report(
        2,
        "rule-based cyclic quiver equals the computed cover quiver "
        "(50 random positive weight vectors, n in 2..6)",
        failures,
    )


def test_03_two_orbit_template_fold():
    # Folding the 10x10 two-orbit template (orbit sizes 4 and 6, alternating
    # twist) must reproduce the doubled pattern: summed entries 2x on the
    # even-offset cells and 2x+1 on the odd ones, and blockwise minima
    # ((2v, 2v), (2v, 2v)) when every symbol is set to v.
    failures = []
    for value in (0, 1):
        values = {sym: value for sym in SYMBOLS}
        fold = kernel_fold(two_orbit_data(values))
        if fold.summed != two_orbit_summed(values):
            failures.append((value, "summed pattern", fold.summed))
        expected_min = ((2 * value, 2 * value), (2 * value, 2 * value))
        if fold.block_min != expected_min:
            failures.append((value, "block minima", fold.block_min))
        if fold.block_min != two_orbit_block_min(values):
            failures.append((value, "block minima formula", fold.block_min))
    _report(
        3,
        "10x10 two-orbit fold reproduces the 2x / 2x+1 pattern and the "
        "blockwise minima at symbol values 0 and 1",
        failures,
    )


def test_04_nonneg_conjugate_equivalence():
    # nonneg_conjugate must succeed exactly when the permutation-trace brute
    # force reports no negative cycle; successes must conjugate to entrywise
    # nonnegative matrices and failures must carry a negative-sum witness.
    rng = random.Random(404)
    failures = []
    for _ in range(500):
        n = rng.randint(2, 6)
        rows = [
            [0 if i == j else rng.randint(-3, 3) for j in range(n)]
            for i in range(n)
        ]
        expected = is_cycle_nonneg_bruteforce(rows)
        try:
            s = nonneg_conjugate(rows)
        except NegativeCycleError as exc:
            if expected:
                failures.append((rows, "rejected a nonnegative instance"))
            elif cycle_sum(rows, exc.witness) >= 0:
                failures.append((rows, "witness not negative", exc.witness))
            continue
        if not expected:
            failures.append((rows, "accepted a negative instance", s))
        elif min(min(row) for row in conjugate_matrix(rows, s)) < 0:
            failures.append((rows, "conjugate has negative entry", s))
    _report(
        4,
        "nonneg_conjugate agrees with the brute-force cycle test on 500 "
        "random zero-diagonal matrices (n <= 6, entries in [-3, 3])",
        failures,
    )


def test_05_floor_identities():
    # (1) floor((i*r + p)/n) - floor((i*r + q)/n) only takes the two values
    # floor((p - q)/n) and floor((p - q)/n) + 1; (2) for coprime n and r the
    # telescoping sum over one period recovers p exactly.
    rng = random.Random(505)
    failures = []
    for _ in range(200):
        n = rng.randint(1, 20)
        p, q, r = (rng.randint(-30, 30) for _ in range(3))
        base = (p - q) // n
        values = {
            (i * r + p) // n - (i * r + q) // n for i in range(-2 * n, 2 * n + 1)
        }
        if not values <= {base, base + 1}:
            failures.append(((n, p, q, r), "not almost constant", sorted(values)))
    pairs = 0
    while pairs < 100:
        n = rng.randint(1, 25)
        r = rng.randint(-30, 30)
        if math.gcd(n, r) != 1:
            continue
        pairs += 1
        for p in range(-20, 21):
            total = sum((i * r) // n - (i * r - p) // n for i in range(n))
            if total != p:
                failures.append(((n, r, p), "telescoping sum", total))
    _report(
        5,
        "floor-difference sequences are almost constant (200 draws) and the "
        "coprime telescoping sum recovers p for all p in [-20, 20] (100 pairs)",
        failures,
    )


def test_06_normalization_end_to_end():
    # Normalizing a random conjugate of a cyclic order must return a shift s
    # whose order has (C1) every parameter within 1 of the average and
    # (C2) no negative entries, while cycle sums and the parameter average
    # are untouched.
    rng = random.Random(606)
    failures = []
    cases = 0
    while cases < 100:
        n = rng.randint(2, 6)
        w = tuple(rng.randint(0, 4) for _ in range(n))
        if not any(w):
            continue
        cases += 1
        base, _ = cyclic_order(w)
        u = tuple(rng.randint(-3, 3) for _ in range(n))
        m = morita_shift(base, u)
        g = detect_gorenstein(m)
        s = normalize_equivariant(order_equivariant_data(m, g))
        shifted = morita_shift(m, tuple(-x for x in s))
        new_p = shifted_parameters(g, s)
        g2 = detect_gorenstein(shifted)
        if g2.p != new_p:
            failures.append((w, u, "parameter route mismatch", g2.p, new_p))
        if not all(abs(pi - g.p_av) < 1 for pi in new_p):
            failures.append((w, u, "C1 violated", new_p, g.p_av))
        if min(min(row) for row in shifted.rows) < 0:
            failures.append((w, u, "C2 violated", shifted.rows))
        if g2.p_av != g.p_av or Fraction(sum(new_p), n) != g.p_av:
            failures.append((w, u, "average changed", g2.p_av, g.p_av))
        for i in range(n):
            for j in range(n):
                before = m.entry(i, j) + m.entry(j, i)
                after = shifted.entry(i, j) + shifted.entry(j, i)
                if before != after:
                    failures.append((w, u, "pair cycle sum changed", (i, j)))
        if min_cycle(m.rows)[1] != min_cycle(shifted.rows)[1]:
            failures.append((w, u, "minimal cycle value changed"))
    _report(
        6,
        "normalize_equivariant yields |p'_i - p_av| < 1 and a nonnegative "
        "matrix with invariant cycle sums and average (100 random shifted "
        "cyclic orders)",
        failures,
    )


def test_07_incidence_structure():
    # Degree-0 hom dimensions on the 9-element poset of the unit 4-cycle form
    # a partial order whose cover relation has exactly 12 arrows, and the
    # closed-form block dimensions agree with hom_dim on all 144 slot pairs.
    failures = []
    m, g = cyclic_order((1, 1, 1, 1))
    elements = tilting_poset(m, g).elements
    if len(elements) != 9:
        failures.append(("element count", len(elements)))
    hom0 = {(v, u): hom_dim(m, v, u, 0) for v in elements for u in elements}
    for v in elements:
        if hom0[v, v] != 1:
            failures.append(("not reflexive", v))
        for u in elements:
            if v != u and hom0[v, u] == 1 and hom0[u, v] == 1:
                failures.append(("not antisymmetric", v, u))
            for z in elements:
                if hom0[v, u] == 1 and hom0[u, z] == 1 and hom0[v, z] != 1:
                    failures.append(("not transitive", v, u, z))
    covers = set()
    for v in elements:
        for u in elements:
            if v == u or hom0[v, u] != 1:
                continue
            if not any(
                z != v and z != u and hom0[v, z] == 1 and hom0[z, u] == 1
                for z in elements
            ):
                covers.add((v, u))
    if len(covers) != 12:
        failures.append(("cover count", len(covers)))
    if covers != set(hasse_quiver(tilting_poset(m, g)).arrows):
        failures.append(("covers differ from quiver arrows",))
    proper, zero_slots = tilde_index_sets(g)
    slots = sorted(proper | zero_slots)
    vec_of = {}
    for labels, vec in tilting_summands(m, g):
        for label in labels:
            vec_of[label] = vec
    checked = 0
    for src in slots:
        for tgt in slots:
            block = endo_block_dim(m, g, src, tgt)
            hom = hom_dim(m, vec_of[src], vec_of[tgt], 0)
            checked += 1
            if block != hom:
                failures.append(("block/hom mismatch", src, tgt, block, hom))
    if checked != 144:
        failures.append(("slot pair count", checked))
    _report(
        7,
        "degree-0 hom is a partial order with 12 covers on the unit 4-cycle; "
        "block dimensions match hom_dim on all 144 slot pairs",
        failures,
    )


def test_08_boundary_cases():
    # The smallest regular case (all parameters zero) gives the one-element
    # poset of rank 1; a positive parameter is rejected with its index.
    failures = []
    m = ExponentMatrix.from_rows([[0, 1], [1, 0]])
    g = detect_gorenstein(m)
    if g.p != (0, 0):
        failures.append(("parameters", g.p))
    poset = tilting_poset(m, g)
    if poset.elements != ((0, 0),):
        failures.append(("elements", poset.elements))
    if grothendieck_rank(g) != 1:
        failures.append(("rank", grothendieck_rank(g)))
    m2, g2 = cyclic_order((0, 0, 0, 1))
    try:
        tilting_summands(m2, g2)
        failures.append(("positive parameter accepted",))
    except PositiveParameterError as exc:
        if exc.witness != 3:
            failures.append(("positive parameter witness", exc.witness))
    _report(
        8,
        "p = (0, 0) gives the one-element poset of rank 1; a positive "
        "parameter is rejected with its index",
        failures,
    )
