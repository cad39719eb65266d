"""Stable character polynomials on cycles, in shifted binomial bases.

For a fixed partition ``lam`` of k and a cycle of length r (extended by
fixed points), the character of the shape (n - k, lam) is a degree-k
polynomial in n.  Written as

    sum over h of (-1)^h * b[h] * C(n - r, k - h),

each coefficient ``b[h]`` is a signed count of skew standard tableaux of
``lam`` over the r-primary partitions of h.  This module builds those
coefficient vectors, the plain-basis dimension polynomial (whose shift-1
form is the r = 1 expansion) and the r past which the vectors no longer
change, one algorithm each; the second derivations that check them live
in ``verification``.

Expansions sum only the coefficients that can be nonzero.  An r-primary
partition of h has at least h - r parts, so none fits inside ``lam``
once h > len(lam) + r and ``char_poly`` computes b[h] only for
h <= len(lam) + r.  The dimension coefficient a_h counts a column of h
boxes inside ``lam``, so ``a_vector`` computes it only for
h <= len(lam).  ``coeff_b`` and ``a_coeff`` themselves still sum every h
they are asked for, which is what the vanishing checks test: ``coeff_b``
skips only the primaries that do not fit inside ``lam``, so a primary
with too few rows for its h would still count.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import NamedTuple

from .binom_poly import BinomPoly
from .partitions import Partition, _known_valid, contains
from .tableaux import _skew_count, a_coeff


class Family(Enum):
    """Which clause of the r-primary definition produced a partition."""

    COLUMN = "column"
    TYPE_TWO = "type2"
    TYPE_THREE = "type3"


class SignedPartition(NamedTuple):
    """An r-primary partition with its r-sign."""

    partition: Partition
    sign: int
    family: Family


@cache
def r_primary(r: int, h: int) -> tuple[SignedPartition, ...]:
    """The r-primary partitions of ``h`` with their r-signs, as a tuple.

    Three disjoint families:

    * columns (1^t) for 0 <= t <= r - 1, sign +1;
    * (r-u-v, 2^u, 1^v) of size r + u with u, v >= 0 and u + v <= r - 2,
      sign (-1)^(r-u-v);
    * (r+1-u, 2^u, 1^v) of size r + 1 + u + v with 0 <= u <= r - 1 and
      v >= 0, sign (-1)^(r-u).

    Listed columns first, then the second family by increasing v, then
    the third by increasing u.  There are 1 of them for h < r, r - 1 for
    r <= h < 2r, and r for h >= 2r.  Memoized on (r, h), since every
    coefficient b[h] asks for them again.
    """
    if r < 1:
        raise ValueError(f"cycle length must be positive, got {r}")
    if h < 0:
        raise ValueError(f"size must be nonnegative, got {h}")
    # each part list below descends as built (a column of 1s, or a first
    # part of at least 2 over 2s and 1s), so it needs no check
    out = []
    if h <= r - 1:
        out.append(SignedPartition(_known_valid([1] * h), 1, Family.COLUMN))
    u = h - r
    if 0 <= u <= r - 2:
        for v in range(r - 1 - u):
            nu = _known_valid([r - u - v] + [2] * u + [1] * v)
            out.append(SignedPartition(nu, (-1) ** (r - u - v), Family.TYPE_TWO))
    rem = h - r - 1
    if rem >= 0:
        for u in range(min(r - 1, rem) + 1):
            nu = _known_valid([r + 1 - u] + [2] * u + [1] * (rem - u))
            out.append(SignedPartition(nu, (-1) ** (r - u), Family.TYPE_THREE))
    return tuple(out)


def coeff_b(lam: Partition, h: int, r: int) -> int:
    """Coefficient b[h] of the shift-r expansion for ``lam``: the signed
    sum of skew tableau counts over the r-primary partitions of h.

    A primary nu counts only if it fits inside ``lam``; the pair memo is
    asked only about the primaries that fit, so it holds no zeros."""
    lam = Partition(lam)
    b = 0
    # the primaries are built as Partitions, so the pair memo is asked directly
    for nu, sign, _ in r_primary(r, h):
        if contains(lam, nu):
            b += sign * _skew_count(lam, nu)
    return b


class CharPolyExpansion(NamedTuple):
    """The shift-r coefficient vector b[0..k] for a partition of k."""

    lam: Partition
    r: int
    b: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.lam.size

    @property
    def poly(self) -> BinomPoly:
        """The expansion as a polynomial: c[k - h] = (-1)^h b[h]."""
        k = self.k
        coeffs = [0] * (k + 1)
        for h, bh in enumerate(self.b):
            coeffs[k - h] = bh if h % 2 == 0 else -bh
        return BinomPoly(self.r, coeffs)


def char_poly(lam: Partition, r: int) -> CharPolyExpansion:
    """Full coefficient vector of the character polynomial of ``lam`` on
    r-cycles.  Evaluating the polynomial at n >= k + lam_1 + r gives the
    character of (n - k, lam) at an r-cycle with n - r fixed points.

    Only b[0..min(k, len(lam) + r)] are summed; the rest are 0, since no
    r-primary partition of a larger h fits inside ``lam``."""
    lam = Partition(lam)
    if r < 1:
        raise ValueError(f"cycle length must be positive, got {r}")
    k = lam.size
    # an r-primary partition of h has at least h - r parts
    top = min(k, lam.length + r)
    b = tuple(coeff_b(lam, h, r) for h in range(top + 1)) + (0,) * (k - top)
    return CharPolyExpansion(lam, r, b)


def stable_tail_start(lam: Partition, expansions: list[CharPolyExpansion]) -> int | None:
    """Index in ``expansions`` (ascending in r) where a provably infinite
    run of identical coefficient vectors starts, or None.

    The vectors stabilize for every cycle length above the tail value
    exactly when they already match through k + 1, since past k the
    vector is the plain tableau-count one.  Only the cycle lengths up to
    k + 1 missing from ``expansions`` are expanded.
    """
    start = len(expansions) - 1
    while start > 0 and expansions[start - 1].b == expansions[-1].b:
        start -= 1
    r_start, reference = expansions[start].r, expansions[start].b
    known = {exp.r for exp in expansions[start:]}
    for r in range(r_start + 1, lam.size + 2):
        if r not in known and char_poly(lam, r).b != reference:
            return None
    return start


def a_vector(lam: Partition) -> list[int]:
    """The dimension coefficients a_coeff(lam, h) for h = 0..k.

    Only h <= len(lam) are counted; the rest are 0, since a column of
    more than len(lam) boxes does not fit inside ``lam``."""
    lam = Partition(lam)
    return [a_coeff(lam, h) for h in range(lam.length + 1)] + [0] * (lam.size - lam.length)


def dim_poly(lam: Partition) -> BinomPoly:
    """Dimension of (n - k, lam) as a polynomial in the plain binomial
    basis: sum of (-1)^h a_coeff(lam, h) C(n, k - h), taken from
    ``a_vector``, so only h <= len(lam) are counted."""
    a = a_vector(lam)
    return BinomPoly(0, [ah if h % 2 == 0 else -ah for h, ah in enumerate(a)][::-1])
