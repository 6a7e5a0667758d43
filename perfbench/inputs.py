"""Seeded input generators and the closed-form answers the oracles check.

Nothing here calls into ``tiledorder``: every expected value is computed from
the construction of the input (closed forms for cyclic orders, planted
witnesses for rejections), so a change to the package cannot change what the
benchmark believes is correct.  Matrices are tuples of row tuples and indices
are 0-based, as in the package.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

Rows = tuple


# ---------------------------------------------------------------- matrices


def cyclic_rows(w) -> Rows:
    """m(i,j) = weight of the forward path i -> i+1 -> ... -> j around the cycle."""
    n = len(w)
    prefix = [0]
    for x in w:
        prefix.append(prefix[-1] + x)
    total = prefix[-1]
    return tuple(
        tuple(
            prefix[j] - prefix[i] if i <= j else total - prefix[i] + prefix[j]
            for j in range(n)
        )
        for i in range(n)
    )


def cyclic_params(w) -> tuple:
    """Closed form p_i = 1 + w_i - sum(w); nu is i -> i+1."""
    total = sum(w)
    return tuple(1 + x - total for x in w)


def relabel(rows: Rows, pi) -> Rows:
    """new(pi(i), pi(j)) = old(i, j)."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[pi[i]][pi[j]] = rows[i][j]
    return tuple(tuple(row) for row in out)


def shifted(rows: Rows, s) -> Rows:
    """Conjugate by s: m(i,j) + s(i) - s(j)."""
    n = len(rows)
    return tuple(tuple(rows[i][j] + s[i] - s[j] for j in range(n)) for i in range(n))


def is_basic(rows: Rows) -> bool:
    n = len(rows)
    return all(rows[i][j] + rows[j][i] > 0 for i in range(n) for j in range(i + 1, n))


def is_graded(rows: Rows) -> bool:
    return all(x >= 0 for row in rows for x in row)


def is_gorenstein_with(rows: Rows, nu, p) -> bool:
    """O(n^2) check of the defining relation m(nu(i), j) + m(j, i) = 1 - p_i."""
    n = len(rows)
    return all(
        rows[nu[i]][j] + rows[j][i] == 1 - p[i] for i in range(n) for j in range(n)
    )


def floor_profile(r: int, g: int, length: int) -> tuple:
    return tuple((q + 1) * r // g - q * r // g for q in range(length))


def orbits_of(images) -> list:
    """Orbits listed from their smallest element, following the permutation."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        orbit = []
        i = start
        while not seen[i]:
            seen[i] = True
            orbit.append(i)
            i = images[i]
        out.append(orbit)
    return out


def is_floor_aligned(twist, images, avg: Fraction) -> bool:
    """Every orbit's twist sequence is a rotation of the floor profile of avg."""
    for orbit in orbits_of(images):
        seq = [twist[i] for i in orbit]
        target = list(floor_profile(avg.numerator, avg.denominator, len(orbit)))
        if not any(seq[t:] + seq[:t] == target for t in range(len(seq))):
            return False
    return True


# ------------------------------------------------------------- text forms


def vector_str(v) -> str:
    return "[" + ", ".join(str(x) for x in v) + "]"


def rational_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vector_label(v) -> str:
    return "0" if not any(v) else "(" + ",".join(str(x) for x in v) + ")"


def _matrix_block(rows) -> str:
    body = ",\n".join(f"    {json.dumps(list(row))}" for row in rows)
    return f"  [\n{body}\n  ]"


def order_text(rows=None, weights=None) -> str:
    """The canonical order-file text (the format the package pins)."""
    if weights is not None:
        return '{\n  "kind": "cyclic",\n' f'  "weights": {json.dumps(list(weights))}\n' "}\n"
    return '{\n  "kind": "matrix",\n  "m":\n' + _matrix_block(rows) + "\n}\n"


def mdata_text(rows, twist, images) -> str:
    return (
        "{\n"
        f'  "m":\n{_matrix_block(rows)},\n'
        f'  "a": {json.dumps(list(twist))},\n'
        f'  "nu": {json.dumps(list(images))}\n'
        "}\n"
    )


def dot_text(vertices, arrows) -> str:
    lines = ["digraph hasse {"]
    lines += [f'  "{vector_label(v)}";' for v in vertices]
    lines += [f'  "{vector_label(a)}" -> "{vector_label(b)}";' for a, b in arrows]
    return "\n".join(lines) + "\n}\n"


# ------------------------------------------------------ random building blocks


def weights_with_sum(rng: random.Random, n: int, total: int, lo: int, hi: int) -> tuple:
    """n weights in [lo, hi] summing to total, spread at random."""
    if not n * lo <= total <= n * hi:
        raise ValueError(f"no weights in [{lo},{hi}] of length {n} sum to {total}")
    w = [lo] * n
    for _ in range(total - n * lo):
        i = rng.randrange(n)
        while w[i] == hi:
            i = rng.randrange(n)
        w[i] += 1
    return tuple(w)


def permutation(rng: random.Random, n: int) -> list:
    pi = list(range(n))
    rng.shuffle(pi)
    return pi


def shift_vector(rng: random.Random, n: int) -> tuple:
    return tuple(rng.randint(-6, 6) for _ in range(n))


# ----------------------------------------------------------- accept inputs


def shuffled_cyclic(rng: random.Random, n: int, total: int, shift=True):
    """A cyclic order relabeled by a random permutation and conjugated by a
    random shift, with its closed-form (nu, p).

    Weights are 1..3.  Returns (rows, nu_images, p).  With nu = pi(i) ->
    pi(i+1) the Nakayama permutation is not i -> i+1, and the shift moves the
    parameters off the closed form p_i = 1 + w_i - sum(w) to
    p_i + s(i) - s(nu(i)).
    """
    w = weights_with_sum(rng, n, total, 1, 3)
    pi = permutation(rng, n)
    rows = relabel(cyclic_rows(w), pi)
    nu = [0] * n
    p = [0] * n
    for i, pi_ in enumerate(cyclic_params(w)):
        nu[pi[i]] = pi[(i + 1) % n]
        p[pi[i]] = pi_
    s = shift_vector(rng, n) if shift else (0,) * n
    rows = shifted(rows, s)
    p = [p[x] + s[x] - s[nu[x]] for x in range(n)]
    return rows, tuple(nu), tuple(p)


def total_for_period(rng: random.Random, n: int, g: int) -> int:
    """A sum W of n weights in 1..3 whose cyclic order has period g = n / gcd(n, W)."""
    choices = [t for t in range(n, 3 * n + 1) if n // math.gcd(n, t) == g]
    if not choices:
        raise ValueError(f"no weight sum gives period {g} at n={n}")
    return rng.choice(choices)


def multi_orbit_data(rng: random.Random, g: int, lengths):
    """Equivariant data (matrix, twist, perm) with several orbits and period g.

    Every orbit length is a multiple of g.  The twist is floor-aligned to a
    random average r/g (r coprime to g) and the matrix is filled pair-orbit by
    pair-orbit from a random base value >= 2 through the equivariance
    relation m(nu i, nu j) = m(i,j) - a(i) + a(j), which keeps it entrywise
    non-negative (floor profiles have partial sums within 1 of the line).  A
    random relabeling and a random shift then hide all of that; cycle sums,
    and so the existence of a normalization, are unchanged.

    Returns (rows, twist, images, avg) with avg = r/g.
    """
    if any(length % g for length in lengths):
        raise ValueError("orbit lengths must be multiples of g")
    n = sum(lengths)
    r = rng.choice([x for x in range(-2 * g, 2 * g + 1) if x and math.gcd(x, g) == 1])
    labels = permutation(rng, n)
    images = [0] * n
    twist = [0] * n
    at = 0
    for length in lengths:
        orbit = labels[at:at + length]
        at += length
        offset = rng.randrange(length)
        profile = floor_profile(r, g, length)
        for q, i in enumerate(orbit):
            images[i] = orbit[(q + 1) % length]
            twist[i] = profile[(q + offset) % length]
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if m[i][j] is not None:
                continue
            value = 0 if i == j else rng.randint(2, 5)
            a, b = i, j
            while m[a][b] is None:
                m[a][b] = value
                value = value - twist[a] + twist[b]
                a, b = images[a], images[b]
    for i in range(n):
        for j in range(n):
            if m[images[i]][images[j]] != m[i][j] - twist[i] + twist[j] or m[i][j] < 0:
                raise RuntimeError("multi-orbit construction is inconsistent")
    s = shift_vector(rng, n)
    rows = shifted(tuple(tuple(row) for row in m), s)
    twist = tuple(twist[i] + s[i] - s[images[i]] for i in range(n))
    return rows, twist, tuple(images), Fraction(r, g)


# ----------------------------------------------------------- reject inputs


def late_triangle_violation(rng: random.Random, n: int):
    """A relabeled, shifted cyclic order with one entry raised past a triangle.

    Row a = n - 1 gets m(a,c) = 1 + min over j of m(a,j) + m(j,c).  Raising
    m(a,c) can only break triangles (a, j, c), so the first violation in
    lexicographic scan order is (a, j0, c) with j0 the smallest minimizer,
    and the scan has to pass every earlier row before it finds it.

    Returns (rows, witness, basic, graded).
    """
    rows, _, _ = shuffled_cyclic(rng, n, rng.randint(n, 2 * n))
    a = n - 1
    c = rng.randrange(n - 1)
    middle = [j for j in range(n) if j not in (a, c)]
    best = min(rows[a][j] + rows[j][c] for j in middle)
    j0 = min(j for j in middle if rows[a][j] + rows[j][c] == best)
    m = [list(row) for row in rows]
    m[a][c] = best + 1
    m = tuple(tuple(row) for row in m)
    return m, (a, j0, c), is_basic(m), is_graded(m)


def late_not_gorenstein(rng: random.Random, n: int):
    """A basic, valid order that is not Gorenstein, failing late.

    Start from the cyclic order of weights w and raise m(a, a+1) by one.  The
    triangle inequality survives (any detour around the cycle costs the full
    sum W >= 2), and exactly the columns a-1 and a+1 lose their constant row
    while no other row becomes constant.  The relabeling sends those two
    columns to n-2 and n-1, so detection scans n-2 good columns before it
    fails at column n-2.  A shift does not change which rows are constant.

    Returns (rows, witness).
    """
    w = weights_with_sum(rng, n, rng.randint(n, 2 * n), 1, 3)
    base = [list(row) for row in cyclic_rows(w)]
    a = rng.randrange(n)
    base[a][(a + 1) % n] += 1
    rest = [i for i in range(n) if i not in ((a - 1) % n, (a + 1) % n)]
    targets = list(range(n - 2))
    rng.shuffle(targets)
    pi = [0] * n
    for i, t in zip(rest, targets):
        pi[i] = t
    late = [n - 2, n - 1]
    rng.shuffle(late)
    pi[(a - 1) % n], pi[(a + 1) % n] = late
    rows = shifted(relabel(tuple(tuple(r) for r in base), pi), shift_vector(rng, n))
    return rows, n - 2


def long_negative_cycle(rng: random.Random, n: int):
    """Equivariant data whose only negative simple cycle has length n.

    The circulant c(j - i mod n) with c(1) = -1 and c(d) >= n - d for d >= 2
    is equivariant for the n-cycle with a constant twist.  A simple cycle
    with r long steps winds q <= r times, so its sum is at least (r - q)n
    >= 0 unless every step is 1: the Hamiltonian cycle 0 -> 1 -> ... is the
    unique negative one and the shortest negative closed walk.  Shift and
    relabeling keep that; the witness is the relabeled cycle rotated to start
    at its smallest index.

    Returns (rows, twist, images, witness).
    """
    c = [0, -1] + [n - d + rng.randint(0, 3) for d in range(2, n)]
    rows = tuple(tuple(c[(j - i) % n] for j in range(n)) for i in range(n))
    t = rng.randint(-3, 3)
    s = shift_vector(rng, n)
    rows = shifted(rows, s)
    twist = [t + s[i] - s[(i + 1) % n] for i in range(n)]
    pi = permutation(rng, n)
    rows = relabel(rows, pi)
    new_twist = [0] * n
    images = [0] * n
    for i in range(n):
        new_twist[pi[i]] = twist[i]
        images[pi[i]] = pi[(i + 1) % n]
    cycle = [pi[i] for i in range(n)]
    start = cycle.index(min(cycle))
    return rows, tuple(new_twist), tuple(images), tuple(cycle[start:] + cycle[:start])


# --------------------------------------------------------- poset oracle


def cyclic_quiver(w):
    """Hasse quiver of the cyclic order of weights w >= 1, from the line rules.

    The poset has one line per row rho holding -p[rho-1] vertices (rho, j).
    Arrows: (a) (rho, j) -> (rho, j+1); (b) (rho, j) -> (rho-1, j + w[rho-1])
    for 1 <= j <= -p[rho-2] - w[rho-1]; (c) the last vertex of each line -> 0.
    Vertex (rho, j) is the exponent vector max(m(rho, x) - j, 0).

    Returns (vertices, arrows), both sorted like the package's Quiver.
    """
    n = len(w)
    rows = cyclic_rows(w)
    p = cyclic_params(w)
    zero = (0,) * n

    def vec(rho, j):
        return tuple(max(x - j, 0) for x in rows[rho])

    vertices = [zero]
    arrows = []
    for rho in range(n):
        line = -p[(rho - 1) % n]
        w_prev = w[(rho - 1) % n]
        for j in range(1, line + 1):
            v = vec(rho, j)
            vertices.append(v)
            if j < line:
                arrows.append((v, vec(rho, j + 1)))
            if j <= -p[(rho - 2) % n] - w_prev:
                arrows.append((v, vec((rho - 1) % n, j + w_prev)))
            if j == line:
                arrows.append((v, zero))
    return tuple(sorted(vertices)), tuple(sorted(arrows))


def tilting_listing(rows, nu, p) -> list:
    """The `tilting` subcommand's summand lines, from the definition.

    Summand (s, j) is max(row nu(s) - j, 0) for 1 <= j <= 1 - p_s; equal
    vectors share a line, in first-appearance order.
    """
    groups: dict = {}
    for s in range(len(rows)):
        for j in range(1, 2 - p[s]):
            v = tuple(max(x - j, 0) for x in rows[nu[s]])
            groups.setdefault(v, []).append(f"({s},{j})")
    return [" ".join(labels) + " -> " + vector_label(v) for v, labels in groups.items()]
