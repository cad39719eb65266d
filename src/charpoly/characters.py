"""Exact symmetric-group character evaluation.

Every value here comes from one step, the Murnaghan--Nakayama strip
peel: remove the r-cell border strips with sign (-1)^leg, then count the
shape that is left by the hook formula.  Fixed points are never peeled.

* ``character_mn`` -- the Murnaghan--Nakayama recursion, peeling border
  strips for one non-trivial cycle at a time and ending at the hook
  formula on what is left; this is the ground truth everything else is
  checked against.
* ``character_frobenius_transposition`` -- Frobenius's closed formula for
  the value at a transposition.
* ``character_recpart`` -- the vertical-strip expansion of the character
  of (n-k, lam) at an arbitrary permutation.  For a fixed lam and a fixed
  set of non-trivial cycles (the support) it is a polynomial in n, built
  once by ``recpart_poly`` in one layered strip pass over the vertical-
  strip inners of lam and then evaluated at n.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import comb
from typing import Iterable

from .binom_poly import BinomPoly, eval_poly
from .partitions import (
    Partition,
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


class CycleType:
    """Cycle type of a permutation: all cycle lengths, fixed points included.

    Immutable and hashable; the lengths are kept as a sorted Partition.
    """

    __slots__ = ("cycles",)

    def __init__(self, cycles: Iterable[int] = ()):
        object.__setattr__(self, "cycles", Partition(sorted(cycles, reverse=True)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not CycleType:
            return NotImplemented
        return self.cycles == other.cycles

    def __hash__(self) -> int:
        return hash(self.cycles)

    def __repr__(self) -> str:
        return f"CycleType(cycles={self.cycles!r})"

    @property
    def n(self) -> int:
        return self.cycles.size

    def multiplicities(self) -> dict[int, int]:
        """Map cycle length i -> number of cycles of that length."""
        return dict(Counter(self.cycles))


@cache
def _mn(mu: Partition, cycles: tuple[int, ...]) -> int:
    # peel exactly ``cycles``, in order; the shape left is counted by the
    # hook formula, i.e. as the character at the identity
    if not cycles:
        return dim_syt(mu)
    r, rest = cycles[0], cycles[1:]
    total = 0
    for hook in skew_hooks(mu, r):
        term = _mn(hook.complement, rest)
        total += -term if hook.leg_length % 2 else term
    return total


def character_mn(mu: Partition, ct: CycleType) -> int:
    """Character of the representation of shape ``mu`` at a permutation of
    cycle type ``ct``, by the Murnaghan--Nakayama rule.

    Only the cycles of length at least 2 are peeled, in weakly decreasing
    length order (the value is independent of that order); the fixed
    points are never peeled but counted by the hook formula on the shape
    that is left.  The recursion depth is the number of non-trivial cycles.
    """
    mu = Partition(mu)
    if mu.size != ct.n:
        raise SizeMismatch(f"|mu| = {mu.size} but cycle type fills {ct.n}")
    return _mn(mu, tuple(c for c in ct.cycles if c > 1))


def character_frobenius_transposition(mu: Partition) -> int:
    """Character of shape ``mu`` at a transposition, by Frobenius's formula.

    Computed as f^mu * sum_i [C(mu_i,2) - C(mu^t_i,2)] / C(n,2) in
    integers, asserting that the division is exact.
    """
    mu = Partition(mu)
    n = mu.size
    if n < 2:
        raise TooSmall(f"need n >= 2 for a transposition, got n = {n}")
    row_sum = sum(comb(p, 2) for p in mu) - sum(comb(q, 2) for q in transpose(mu))
    value, rem = divmod(dim_syt(mu) * row_sum, comb(n, 2))
    assert rem == 0, f"non-integer character for {mu}"
    return value


def recpart_poly(lam: Partition, support: Iterable[int]) -> BinomPoly:
    """Character of shape (n - k, lam), k = |lam|, at the cycles ``support``
    (all of length at least 2) plus n - |support| fixed points, as a
    polynomial in n over the basis C(n - |support|, j).

    One layered strip pass: the layer starts as the inner partitions
    kappa whose complement in ``lam`` is a vertical strip, each with sign
    (-1)^{|lam| - |kappa|}.  Each support cycle is either peeled or left
    out, so for every cycle r the layer's signed r-strip peel is added to
    the layer.  The j-th coefficient is then the sum of the coefficients
    times the hook formula over the final shapes of size j.  Its value at
    n is the character for n >= max(k + lam_1, |support|).
    """
    lam, support = Partition(lam), CycleType(support)
    if 1 in support.cycles:
        raise ValueError(f"support must hold cycles of length >= 2, got {list(support.cycles)}")
    layer = {
        kappa: -1 if (lam.size - kappa.size) % 2 else 1
        for kappa in vertical_strip_inners(lam)
    }
    for r in support.cycles:
        peeled = dict(layer)
        for kappa, c in layer.items():
            for hook in skew_hooks(kappa, r):
                nu = hook.complement
                peeled[nu] = peeled.get(nu, 0) + (-c if hook.leg_length % 2 else c)
        layer = peeled
    coeffs = [0] * (lam.size + 1)
    for nu, c in layer.items():
        coeffs[nu.size] += c * dim_syt(nu)
    return BinomPoly(support.n, coeffs)


def character_recpart(lam: Partition, ct: CycleType) -> int:
    """Character of shape (n - k, lam) at a permutation of cycle type ``ct``,
    where k = |lam| and n is the size of ``ct``.

    Evaluates ``recpart_poly`` at the cycles of ``ct`` of length at least
    2, at n.  Requires n >= k + lam_1 so that (n - k, lam) is a partition
    in the stable range.
    """
    lam = Partition(lam)
    k = lam.size
    n = ct.n
    if n < k + (lam[0] if lam else 0):
        raise OutOfStableRange(
            f"need n >= {k + (lam[0] if lam else 0)} for lam = {lam}, got n = {n}"
        )
    return eval_poly(recpart_poly(lam, [c for c in ct.cycles if c >= 2]), n)

