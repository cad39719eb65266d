"""Counting standard Young tableaux of straight and skew shapes.

``dim_syt`` uses the hook length formula, taking the hook product as
one falling factorial per run of equal-height columns; ``skew_syt_count``
uses Aitken's determinant f(outer \\ inner) = N! det[1 / (outer_i -
inner_j - i + j)!] (Aitken 1943; Stanley, EC2 Cor. 7.16.3), taken in
integers by fraction-free elimination.  Counts are memoized globally,
one entry per distinct (outer, inner) pair asked for.
"""

from __future__ import annotations

from functools import cache
from math import factorial, perm, prod

from .partitions import Partition, contains, transpose


def dim_syt(mu: Partition) -> int:
    """Number of standard Young tableaux of shape ``mu`` (hook formula).

    Equals the dimension of the corresponding irreducible representation;
    dim_syt of the empty partition is 1.
    """
    parts = (*mu, 0)
    # the columns j in [parts[c], parts[c-1]) all have height c, so in row
    # i < c their hooks (arm + leg + 1, 0-based) are consecutive integers
    # falling from p - parts[c] + c - i - 1: one falling factorial per run
    steps = [c for c in range(1, len(parts)) if parts[c] < parts[c - 1]]
    hooks = prod(
        perm(p - parts[c] + c - i - 1, parts[c - 1] - parts[c])
        for i, p in enumerate(mu)
        for c in steps
        if c > i
    )
    n_fact = factorial(mu.size)
    assert n_fact % hooks == 0, f"hook product does not divide {mu.size}!"
    return n_fact // hooks


def _det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Fraction-free: every division is exact.  A zero pivot is replaced by
    swapping in a lower row; ``m`` is overwritten.
    """
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


@cache
def _skew_count(outer: Partition, inner: Partition) -> int:
    if not contains(outer, inner):
        return 0
    if outer and len(outer) > outer[0]:
        # the conjugate shape has the same count and a smaller matrix
        outer, inner = transpose(outer), transpose(inner)
    ell = len(outer)
    # row i of Aitken's matrix times a_i!, so entry (i, j) is the falling
    # factorial a_i! / (a_i - b_j)!, which vanishes for b_j > a_i
    a = [p - i + ell for i, p in enumerate(outer, 1)]
    b = [q - j + ell for j, q in enumerate(inner + (0,) * (ell - len(inner)), 1)]
    m = [[perm(ai, bj) for bj in b] for ai in a]
    scale = prod(map(factorial, a))
    num = factorial(outer.size - inner.size) * _det(m)
    assert num % scale == 0, f"Aitken determinant not integral for {outer} / {inner}"
    return num // scale


def skew_syt_count(outer: Partition, inner: Partition) -> int:
    """Number of standard Young tableaux of skew shape outer \\ inner.

    0 when ``inner`` is not contained in ``outer``, 1 when they coincide.
    """
    if type(outer) is not Partition:
        outer = Partition(outer)
    if type(inner) is not Partition:
        inner = Partition(inner)
    return _skew_count(outer, inner)


def a_coeff(lam: Partition, h: int) -> int:
    """Tableaux of shape ``lam`` whose entries 1..h start the first h rows.

    Equals the skew count of ``lam`` minus a column of h boxes, and in
    particular vanishes for h > length of ``lam``.
    """
    if h < 0:
        raise ValueError(f"h must be nonnegative, got {h}")
    return skew_syt_count(lam, Partition([1] * h))
