"""Exact symmetric-group character evaluation.

Three independent evaluators:

* ``character_mn`` -- the Murnaghan--Nakayama recursion, peeling border
  strips for one cycle at a time; this is the ground truth everything
  else is checked against.
* ``character_frobenius_transposition`` -- Frobenius's closed formula for
  the value at a transposition.
* ``character_recpart`` -- the vertical-strip expansion of the character
  of (n-k, lam) at an arbitrary permutation, in terms of characters of
  partitions of at most |lam| and binomials in the cycle counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Iterable

from .partitions import (
    Partition,
    partitions_of,
    skew_hooks,
    transpose,
    vertical_strip_inners,
)
from .tableaux import dim_syt


class SizeMismatch(ValueError):
    """Partition and cycle type describe different symmetric groups."""


class TooSmall(ValueError):
    """The formula needs a larger symmetric group."""


class OutOfStableRange(ValueError):
    """n is below the validity threshold of the stable-range formula."""


@dataclass(frozen=True)
class CycleType:
    """Cycle type of a permutation: all cycle lengths, fixed points included."""

    cycles: Partition

    def __init__(self, cycles: Iterable[int] = ()):
        object.__setattr__(self, "cycles", Partition(sorted(cycles, reverse=True)))

    @property
    def n(self) -> int:
        return self.cycles.size

    def multiplicities(self) -> dict[int, int]:
        """Map cycle length i -> number of cycles of that length."""
        return dict(Counter(self.cycles))


@cache
def _mn(mu: Partition, cycles: tuple[int, ...]) -> int:
    if not cycles:
        assert not mu
        return 1
    r, rest = cycles[0], cycles[1:]
    total = 0
    for hook in skew_hooks(mu, r):
        term = _mn(hook.complement, rest)
        total += -term if hook.leg_length % 2 else term
    return total


def character_mn(mu: Partition, ct: CycleType) -> int:
    """Character of the representation of shape ``mu`` at a permutation of
    cycle type ``ct``, by the Murnaghan--Nakayama rule.

    Cycles are peeled in weakly decreasing length order; the value is
    independent of that order.
    """
    mu = Partition(mu)
    if mu.size != ct.n:
        raise SizeMismatch(f"|mu| = {mu.size} but cycle type fills {ct.n}")
    return _mn(mu, tuple(ct.cycles))


def character_frobenius_transposition(mu: Partition) -> int:
    """Character of shape ``mu`` at a transposition, by Frobenius's formula.

    Computed as an exact rational f^mu / C(n,2) * sum_i [C(mu_i,2) -
    C(mu^t_i,2)], asserted to be an integer.
    """
    mu = Partition(mu)
    n = mu.size
    if n < 2:
        raise TooSmall(f"need n >= 2 for a transposition, got n = {n}")
    row_sum = sum(comb(p, 2) for p in mu) - sum(comb(q, 2) for q in transpose(mu))
    value = Fraction(dim_syt(mu), comb(n, 2)) * row_sum
    assert value.denominator == 1, f"non-integer character for {mu}"
    return int(value)


def character_recpart(lam: Partition, ct: CycleType) -> int:
    """Character of shape (n - k, lam) at a permutation of cycle type ``ct``,
    where k = |lam| and n is the size of ``ct``.

    Sums, over inner partitions kappa whose complement in ``lam`` is a
    vertical strip, signed characters of kappa times binomials in the
    cycle multiplicities.  Requires n >= k + lam_1 so that (n - k, lam)
    is a partition in the stable range.
    """
    lam = Partition(lam)
    k = lam.size
    n = ct.n
    if n < k + (lam[0] if lam else 0):
        raise OutOfStableRange(
            f"need n >= {k + (lam[0] if lam else 0)} for lam = {lam}, got n = {n}"
        )
    x = ct.multiplicities()
    total = 0
    for kappa in vertical_strip_inners(lam):
        sign = -1 if (k - kappa.size) % 2 else 1
        for alpha in partitions_of(kappa.size):
            weight = 1
            for i, a_i in Counter(alpha).items():
                weight *= comb(x.get(i, 0), a_i)
                if weight == 0:
                    break
            if weight == 0:
                continue
            total += sign * weight * character_mn(kappa, CycleType(alpha))
    return total


def centralizer_order(ct: CycleType) -> int:
    """Order of the centralizer of a permutation of cycle type ``ct``:
    prod_i i^{x_i} x_i!."""
    z = 1
    for i, x_i in ct.multiplicities().items():
        z *= i**x_i * factorial(x_i)
    return z
