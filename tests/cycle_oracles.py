"""Cycle computations kept as independent test oracles.

Most enumerate permutations or cycles outright, so their cost is factorial;
the Floyd-Warshall check is cubic.  Each rejects inputs above a small size.
The package's own cycle test is `tiledorder.find_negative_cycle`
(Bellman-Ford predecessors); the tests compare it, and the normalization it
drives, against these definitions, and its passes against
`scalar_bellman_ford`, the entry-by-entry loop it replaced, which also
serves `nonneg_conjugate`.

`cycle_sum`, `conjugate_matrix` and `nonneg_conjugate` are direct
definitions that no command of the package needs; the tests check the
package's cycle test and conjugations against them.  Only they raise
`IndexOutOfRangeError` and `NegativeDiagonalError`.
"""

from __future__ import annotations

from itertools import combinations, permutations as iter_permutations
from typing import Optional, Sequence

from tiledorder import DomainError, NegativeCycleError, TooLargeError
from tiledorder.conjugation import _square
from tiledorder.orders import Rows, Vector, check_shift, conjugate_rows

BRUTEFORCE_LIMIT = 8
MIN_CYCLE_LIMIT = 10
ENUMERATION_LIMIT = 7
FLOYD_WARSHALL_LIMIT = 30


class NotMinCycleError(DomainError):
    """Raised by normalized_cycle_conjugate for a cycle that is not minimal."""

    code = "NotMinCycle"


class IndexOutOfRangeError(DomainError):
    code = "IndexOutOfRange"


class NegativeDiagonalError(DomainError):
    code = "NegativeDiagonal"


def cycle_sum(matrix: Sequence[Sequence[int]], seq: Sequence[int]) -> int:
    """Sum of m(i_k, i_{k+1}) around the cyclic sequence seq (indices may repeat)."""
    rows = _square(matrix)
    n = len(rows)
    idx = tuple(seq)
    if len(idx) == 0:
        raise IndexOutOfRangeError("cycle sequence must be non-empty")
    for i in idx:
        if not 0 <= i < n:
            raise IndexOutOfRangeError(f"index {i} out of range for n={n}", witness=i)
    return sum(rows[idx[k]][idx[(k + 1) % len(idx)]] for k in range(len(idx)))


def conjugate_matrix(matrix: Sequence[Sequence[int]], s: Sequence[int]) -> Rows:
    rows = _square(matrix)
    return conjugate_rows(rows, check_shift(s, len(rows)))


def scalar_bellman_ford(rows: Rows) -> tuple[list[int], Optional[tuple[int, ...]]]:
    """Shortest-path potentials from a virtual zero-weight source, by the
    package's Bellman-Ford before it skipped rows or packed them: one scalar
    test per entry and pass, whose relaxations the package must repeat.

    Returns (dist, None) when no negative cycle exists, in which case
    m(i,j) + dist(i) - dist(j) >= 0 for all i != j.  Otherwise returns
    (_, cycle), a deterministic simple cycle of negative sum in forward
    order, smallest index first; a negative diagonal entry is reported as a
    singleton before any relaxation.

    Relaxing j through i sets pred[j] = i, after which dist(j) >= dist(i) +
    m(i,j), as dist(i) only decreases; the relaxation closing a cycle of
    pred is strict, so every such cycle is negative (Cherkassky and Goldberg,
    Math. Programming 85, 1999).  Without a negative cycle n - 1 passes
    settle dist.  Let x be relaxed in pass n + 1: had its pred chain ended at
    an unrelaxed vertex after a simple path P, dist(x) >= m(P), though
    dist(x) <= m(P) held before that relaxation.  So n steps back from x lie
    on a cycle of pred.
    """
    n = len(rows)
    for i in range(n):
        if rows[i][i] < 0:
            return [], (i,)
    dist = [0] * n
    pred = [-1] * n
    for _ in range(n + 1):
        last = -1
        for i in range(n):
            di = dist[i]
            row = rows[i]
            for j in range(n):
                if i != j and di + row[j] < dist[j]:
                    dist[j] = di + row[j]
                    pred[j] = i
                    last = j
        if last < 0:
            return dist, None
    for _ in range(n):
        last = pred[last]
    cycle = [last]
    v = pred[last]
    while v != last:
        cycle.append(v)
        v = pred[v]
    cycle.reverse()
    start = cycle.index(min(cycle))
    return [], tuple(cycle[start:] + cycle[:start])


def nonneg_conjugate(matrix: Sequence[Sequence[int]]) -> Vector:
    """A shift s with m(i,j) + s(i) - s(j) >= 0 everywhere, when one exists.

    s is the vector of shortest-path potentials from a virtual source with
    zero-weight edges to every vertex, so the result is deterministic.  Raises
    NegativeDiagonalError(i) when some m(i,i) < 0 (no conjugate can fix the
    diagonal; the cycle search reports these, and only these, as singleton
    cycles) and NegativeCycleError with a witness cycle when the cycle test
    fails.

    s needs no check: the last Bellman-Ford pass relaxed nothing, so dist(j)
    <= dist(i) + m(i,j) for i != j, and the diagonal is non-negative.
    """
    rows = _square(matrix)
    dist, cycle = scalar_bellman_ford(rows)
    if cycle is not None and len(cycle) == 1:
        i = cycle[0]
        raise NegativeDiagonalError(
            f"diagonal entry ({i},{i}) is negative", witness=i
        )
    if cycle is not None:
        raise NegativeCycleError(
            f"negative cycle {cycle} with sum {cycle_sum(rows, cycle)}",
            witness=cycle,
        )
    return tuple(dist)


def is_cycle_nonneg_bruteforce(matrix: Sequence[Sequence[int]]) -> bool:
    """Exhaustive oracle: every permutation trace sum(m(i, sigma(i))) is >= 0.

    For zero-diagonal matrices this is equivalent to all directed cycle sums
    being non-negative (permutations decompose into disjoint cycles and fixed
    points contribute nothing).  Factorial cost; rejected above n = 8.
    """
    rows = _square(matrix)
    n = len(rows)
    if n > BRUTEFORCE_LIMIT:
        raise TooLargeError(f"n={n} exceeds brute-force limit {BRUTEFORCE_LIMIT}")
    return all(
        sum(rows[i][sigma[i]] for i in range(n)) >= 0
        for sigma in iter_permutations(range(n))
    )


def min_cycle(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Minimum cycle sum over multiplicity-free cycles of length >= 2.

    Ties are broken by shortest length, then lexicographically on the cycle
    written from its smallest index.  Exhaustive; rejected above n = 10.
    """
    rows = _square(matrix)
    n = len(rows)
    if n > MIN_CYCLE_LIMIT:
        raise TooLargeError(f"n={n} exceeds min-cycle limit {MIN_CYCLE_LIMIT}")
    if n < 2:
        raise TooLargeError("min_cycle needs at least two indices")
    best: Optional[tuple[int, int, tuple[int, ...]]] = None
    for k in range(2, n + 1):
        for subset in combinations(range(n), k):
            first = subset[0]
            for rest in iter_permutations(subset[1:]):
                seq = (first,) + rest
                value = sum(rows[seq[t]][seq[(t + 1) % k]] for t in range(k))
                key = (value, k, seq)
                if best is None or key < best:
                    best = key
    value, _, seq = best
    return seq, value


def negative_simple_cycles(matrix: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """Every simple cycle of negative sum, written from its smallest index.

    Singletons (i,) stand for the diagonal entries, so this holds for any
    diagonal, unlike is_cycle_nonneg_bruteforce.  Exhaustive; rejected above
    n = 7.
    """
    rows = _square(matrix)
    n = len(rows)
    if n > ENUMERATION_LIMIT:
        raise TooLargeError(f"n={n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    found = set()
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            for rest in iter_permutations(subset[1:]):
                seq = (subset[0],) + rest
                if sum(rows[seq[t]][seq[(t + 1) % k]] for t in range(k)) < 0:
                    found.add(seq)
    return found


def has_negative_cycle_floyd_warshall(matrix: Sequence[Sequence[int]]) -> bool:
    """Whether some closed walk has negative sum, by Floyd-Warshall.

    d(i,j) starts at m(i,j), diagonal included.  At the end it is the sum of
    some walk i -> j of at least one edge, and at most that of every simple
    path i -> j (simple cycle through i when i = j), so some d(i,i) < 0
    exactly when a negative cycle exists.  Cubic; rejected above n = 30.
    """
    rows = _square(matrix)
    n = len(rows)
    if n > FLOYD_WARSHALL_LIMIT:
        raise TooLargeError(
            f"n={n} exceeds Floyd-Warshall limit {FLOYD_WARSHALL_LIMIT}"
        )
    d = [list(row) for row in rows]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            di = d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return any(d[i][i] < 0 for i in range(n))


def normalized_cycle_conjugate(
    matrix: Sequence[Sequence[int]], cycle: Sequence[int]
) -> Vector:
    """Shift that zeroes a minimum cycle except for its closing edge.

    Given a multiplicity-free cycle attaining the minimum cycle sum of the
    restriction of m to its support, returns s (zero off the cycle) with
    (sm)(c_k, c_{k+1}) = 0 for k < last, (sm)(c_last, c_0) equal to that
    minimum, and (sm) non-negative on the cycle's support.  Raises
    NotMinCycleError when the given cycle fails any of this.
    """
    rows = _square(matrix)
    n = len(rows)
    idx = tuple(cycle)
    if len(idx) < 2 or len(set(idx)) != len(idx):
        raise NotMinCycleError(
            "cycle must be multiplicity-free with length >= 2", witness=idx
        )
    for i in idx:
        if not 0 <= i < n:
            raise IndexOutOfRangeError(f"index {i} out of range for n={n}", witness=i)

    s = [0] * n
    run = 0
    for k in range(1, len(idx)):
        run += rows[idx[k - 1]][idx[k]]
        s[idx[k]] = run

    sub = tuple(tuple(rows[a][b] for b in idx) for a in idx)
    _, sub_min = min_cycle(sub)
    conj = conjugate_matrix(rows, s)
    closing = conj[idx[-1]][idx[0]]
    ok = (
        closing == sub_min
        and all(conj[idx[k]][idx[k + 1]] == 0 for k in range(len(idx) - 1))
        and all(conj[a][b] >= 0 for a in idx for b in idx)
    )
    if not ok:
        raise NotMinCycleError(
            "cycle does not attain the minimum cycle sum of its restriction",
            witness=idx,
        )
    return tuple(s)
