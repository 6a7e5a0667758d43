"""Small conveniences that only the tests use.

The package itself never needs the identity permutation, the images of a
permutation power or the boolean form of the negative-cycle test, so they
live here, built on the package's public API.
"""

from __future__ import annotations

from collections.abc import Sequence

from tiledorder import Permutation, find_negative_cycle


def identity(n: int) -> Permutation:
    """The identity permutation of {0, ..., n-1}."""
    return Permutation(tuple(range(n)))


def power_images(perm: Permutation, k: int) -> tuple[int, ...]:
    """Images of the k-th power of perm (k >= 0)."""
    out = list(range(perm.n))
    for _ in range(k):
        out = [perm.images[i] for i in out]
    return tuple(out)


def is_cycle_nonneg(matrix: Sequence[Sequence[int]]) -> bool:
    """True when every directed cycle sum (diagonal included) is non-negative."""
    return find_negative_cycle(matrix) is None
