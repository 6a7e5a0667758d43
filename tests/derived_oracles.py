"""A derived invariant of the tilting poset, computed without the package.

The abstract says that CM^Z A is equivalent to the bounded derived category
of the incidence algebra of an explicit poset.  A Morita shift is a graded
Morita equivalence, so every frame of one order with all p_i <= 0 and
N-graded rows must give derived-equivalent incidence algebras, and so equal
Coxeter polynomials.  For a poset P:
- the Cartan matrix C over P's elements sorted lexicographically, C[x][y] = 1
  iff x <= y componentwise.  The lexicographic order extends the
  componentwise one, so C is upper unitriangular;
- C^-1 (the Moebius function) by exact back-substitution;
- the Coxeter matrix Phi = -C^T C^-1;
- its characteristic polynomial by Berkowitz's division-free algorithm
  (Berkowitz 1984), exact over the integers.

Limits: the Coxeter polynomial is not a complete derived invariant, so
agreement is evidence, not proof.  Truncating the summands at j - 1 in place
of j passes every frame comparison; truncating at j + 1 fails many.  The
work is O(k^3) for C^-1 and Phi and O(k^4) for the polynomial, so keep
posets to k <= 40 elements.
"""

from __future__ import annotations


def cartan(elements) -> list[list[int]]:
    """C[x][y] = 1 iff x <= y componentwise, over the sorted elements."""
    els = sorted(elements)
    return [[int(all(map(int.__le__, x, y))) for y in els] for x in els]


def unitriangular_inverse(c: list[list[int]]) -> list[list[int]]:
    """The inverse of an upper unitriangular integer matrix, by back-substitution."""
    k = len(c)
    inv = [[int(i == j) for j in range(k)] for i in range(k)]
    for i in range(k - 1, -1, -1):
        for j in range(i + 1, k):
            if c[i][j]:
                inv[i] = [a - c[i][j] * b for a, b in zip(inv[i], inv[j])]
    return inv


def coxeter_matrix(elements) -> list[list[int]]:
    """Phi = -C^T C^-1 of the incidence algebra of the elements' poset."""
    c = cartan(elements)
    inv = unitriangular_inverse(c)
    cols = list(zip(*inv))
    return [[-sum(map(int.__mul__, ct, col)) for col in cols] for ct in zip(*c)]


def charpoly(a: list[list[int]]) -> list[int]:
    """Coefficients of det(x I - a), leading 1 first, by Berkowitz's recursion.

    With a = [[h, R], [S, B]], the coefficients are T times those of B, T
    the lower triangular Toeplitz matrix whose first column is 1, -h, -R S,
    -R B S, ..., -R B^(n-2) S.  No division is needed.
    """
    n = len(a)
    if n == 0:
        return [1]
    h, r = a[0][0], a[0][1:]
    v = [row[0] for row in a[1:]]
    b = [row[1:] for row in a[1:]]
    column = [1, -h]
    for _ in range(n - 1):
        column.append(-sum(map(int.__mul__, r, v)))
        v = [sum(map(int.__mul__, row, v)) for row in b]
    inner = charpoly(b)
    return [
        sum(column[i - j] * inner[j] for j in range(min(i + 1, n)))
        for i in range(n + 1)
    ]


def coxeter_polynomial(elements) -> list[int]:
    """The characteristic polynomial of the Coxeter matrix of the poset."""
    return charpoly(coxeter_matrix(elements))
