"""Two Hasse cover computations, kept as independent test oracles.

`pairwise_hasse_quiver` is the direct O(k^2 * n) definition: test every
ordered pair with the componentwise order, record the strict down-set of
each element, and keep i -> j when nothing lies strictly between.
`bitset_hasse_quiver` compares the vectors too, one coordinate at a time,
with k-bit sets.  `tiledorder.hasse_quiver` reads the covers off the summand
labels instead and must agree with both arrow for arrow on every poset,
including cyclic orders with zero weights, where `cyclic_hasse_oracle` does
not describe the covers.
"""

from __future__ import annotations

from itertools import groupby

from tiledorder import Quiver, TiltingPoset
from tiledorder.tilting import check_hasse_size


def leq(v, w) -> bool:
    """Componentwise order on exponent vectors."""
    return all(a <= b for a, b in zip(v, w))


def pairwise_hasse_quiver(poset: TiltingPoset) -> Quiver:
    """Cover arrows of the poset, drawn from larger to smaller element."""
    els = poset.elements
    k = len(els)
    below = [0] * k  # bit j set when els[j] < els[i]
    for i in range(k):
        for j in range(k):
            if i != j and leq(els[j], els[i]):
                below[i] |= 1 << j
    above = [0] * k
    for i in range(k):
        mask = below[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            above[j] |= 1 << i
    arrows = []
    for i in range(k):
        mask = below[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if not below[i] & above[j]:  # nothing strictly between
                arrows.append((els[i], els[j]))
    return Quiver(vertices=els, arrows=tuple(sorted(arrows)))


def bitset_hasse_quiver(poset: TiltingPoset) -> Quiver:
    """Cover arrows of the poset, drawn from larger to smaller element.

    below[i] is the bitset of the elements u <= els[i], i itself included: the
    AND over coordinates c of {u : u_c <= els[i]_c}, where one sort per
    coordinate gives every such prefix set.  The elements are sorted
    lexicographically, and the lexicographic order extends the componentwise
    one, so the highest bit j of below[i] minus i is maximal below els[i]:
    i -> j is a cover.  Clearing below[j] and repeating finds every cover of i
    and nothing else, a transitive reduction (Aho, Garey and Ullman, 1972).
    That is O(k * n + arrows) big-int operations on k-bit integers and k * k / 8
    bytes of bitsets; posets above HASSE_LIMIT elements raise TooLargeError.
    """
    els = poset.elements
    k = len(els)
    check_hasse_size(k)
    below = [-1] * k
    for column in zip(*els):
        mask = 0
        by_value = sorted(range(k), key=column.__getitem__)
        for _, group in groupby(by_value, key=column.__getitem__):
            group = list(group)
            for j in group:
                mask |= 1 << j
            for j in group:
                below[j] &= mask
    arrows = []
    for i, v in enumerate(els):
        covers = []
        cand = below[i] ^ (1 << i)
        while cand:
            j = cand.bit_length() - 1
            covers.append((v, els[j]))
            cand &= ~below[j]
        arrows.extend(reversed(covers))  # ascending (i, j) is the sorted order
    return Quiver(vertices=els, arrows=tuple(arrows))
