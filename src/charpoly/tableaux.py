"""Counting standard Young tableaux of straight and skew shapes.

``dim_syt`` uses the hook length formula; ``skew_syt_count`` counts
monotone paths in the Young lattice by the corner-removal recursion
f(outer \\ inner) = sum over internal corners v of f((outer - v) \\ inner),
memoized globally (the cache is shared by the many queries the
coefficient formulas generate, and is thread-safe).
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .partitions import (
    Partition,
    contains,
    hook_lengths,
    internal_corners,
    remove_corner,
)


def dim_syt(mu: Partition) -> int:
    """Number of standard Young tableaux of shape ``mu`` (hook formula).

    Equals the dimension of the corresponding irreducible representation;
    dim_syt of the empty partition is 1.
    """
    hooks = hook_lengths(mu)
    prod = 1
    for h in hooks.values():
        prod *= h
    n_fact = factorial(mu.size)
    assert n_fact % prod == 0, f"hook product does not divide {mu.size}!"
    return n_fact // prod


@cache
def _skew_count(outer: Partition, inner: Partition) -> int:
    if not contains(outer, inner):
        return 0
    if outer == inner:
        return 1
    return sum(
        _skew_count(remove_corner(outer, v), inner) for v in internal_corners(outer)
    )


def skew_syt_count(outer: Partition, inner: Partition) -> int:
    """Number of standard Young tableaux of skew shape outer \\ inner.

    Counts monotone Young-lattice paths from ``inner`` up to ``outer``;
    0 when ``inner`` is not contained in ``outer``, 1 when they coincide.
    """
    return _skew_count(Partition(outer), Partition(inner))


def a_coeff(lam: Partition, h: int) -> int:
    """Tableaux of shape ``lam`` whose entries 1..h start the first h rows.

    Equals the skew count of ``lam`` minus a column of h boxes, and in
    particular vanishes for h > length of ``lam``.
    """
    if h < 0:
        raise ValueError(f"h must be nonnegative, got {h}")
    return skew_syt_count(lam, Partition([1] * h))
