"""The pairwise Hasse cover computation, kept as an independent test oracle.

This is the direct O(k^2 * n) definition: test every ordered pair with the
componentwise order, record the strict down-set of each element, and keep
i -> j when nothing lies strictly between.  `tiledorder.hasse_quiver` must
agree with it arrow for arrow on every poset, including cyclic orders with
zero weights, where `cyclic_hasse_oracle` does not describe the covers.
"""

from __future__ import annotations

from tiledorder import Quiver, TiltingPoset


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
