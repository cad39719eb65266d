"""Exact symmetric-group character evaluation.

Every value here comes from one step, the Murnaghan--Nakayama strip
peel: ``_peel`` moves each coefficient of a layer {beta-set int:
coefficient} through the r-cell border strips with sign (-1)^leg, and
the shapes left are counted straight from their beads by the
beta-number formula (``tableaux._beta_dim``), cached per beta-set.
Fixed points are never peeled, and a shape (n - k, lam) left with n - r
fixed points costs a few factors, not n: its long top row is one short
falling factorial.  Frobenius's formula counts by the hook formula
(``dim_syt``), so comparing the two checks one route against the other.

* ``character_mn`` -- the Murnaghan--Nakayama rule, one layer per
  non-trivial cycle; the ground truth everything else is checked against.
* ``character_frobenius_transposition`` -- Frobenius's closed formula for
  the value at a transposition.
* ``character_recpart`` -- the vertical-strip expansion of the character
  of (n-k, lam) at an arbitrary permutation.  For a fixed lam and a fixed
  set of non-trivial cycles (the support) it is a polynomial in n, built
  once by ``recpart_poly`` with the same peel and then evaluated at n.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import comb
from typing import Iterable

from .binom_poly import BinomPoly, eval_poly
from .partitions import (
    Partition,
    _beta,
    _known_valid,
    _size,
    _strips,
    transpose,
    vertical_strip_inners,
)
from .tableaux import _beta_dim, dim_syt


class SizeMismatch(ValueError):
    """Partition and cycle type describe different symmetric groups."""


# check-only; kept here because perfbench/checks.py imports character_frobenius_transposition
class TooSmall(ValueError):
    """The formula needs a larger symmetric group."""


# check-only; kept here because perfbench/checks.py imports character_recpart
class OutOfStableRange(ValueError):
    """n is below the validity threshold of the stable-range formula."""


class CycleType:
    """Cycle type of a permutation: all cycle lengths, fixed points included.

    Immutable and hashable; the lengths are kept as a sorted Partition.
    """

    __slots__ = ("cycles",)

    def __init__(self, cycles: Iterable[int] = ()):
        cycles = sorted(cycles, reverse=True)
        # sorted, so Partition's checks can fail only at the last length
        parts = _known_valid(cycles) if cycles and cycles[-1] >= 1 else Partition(cycles)
        object.__setattr__(self, "cycles", parts)

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

    # check-only; kept here because perfbench/checks.py calls it
    def multiplicities(self) -> dict[int, int]:
        """Map cycle length i -> number of cycles of that length."""
        return dict(Counter(self.cycles))


@cache
def _leaf_dim(mask: int) -> int:
    # the one memo: peels end again and again on the same few shapes
    return _beta_dim(mask)


def _peel(layer: dict[int, int], r: int) -> dict[int, int]:
    """The signed r-strip peel of ``layer``, a map beta-set -> coefficient:
    each r-strip moves its coefficient times (-1)^leg to what it leaves."""
    peeled: dict[int, int] = {}
    for mask, c in layer.items():
        for leg, rest in _strips(mask, r):
            peeled[rest] = peeled.get(rest, 0) + (-c if leg & 1 else c)
    return peeled


def _mn(mu: Partition, cycles: Iterable[int]) -> int:
    # peel exactly ``cycles``, in order, one layer per cycle; each shape
    # left is counted from its beads, i.e. as the character at the identity
    layer = {_beta(mu, len(mu)): 1}
    for r in cycles:
        layer = _peel(layer, r)
    return sum(c * _leaf_dim(mask) for mask, c in layer.items())


def character_mn(mu: Partition, ct: CycleType) -> int:
    """Character of the representation of shape ``mu`` at a permutation of
    cycle type ``ct``, by the Murnaghan--Nakayama rule.

    Only the cycles of length at least 2 are peeled, in weakly decreasing
    length order (the value is independent of that order); the fixed
    points are never peeled but counted, as f^shape, on each shape that
    is left.  There is no recursion: each cycle peels one layer of
    beta-sets, so the depth of the stack does not grow with the input.
    """
    mu = Partition(mu)
    cycles = ct.cycles
    if sum(mu) != sum(cycles):
        raise SizeMismatch(f"|mu| = {mu.size} but cycle type fills {ct.n}")
    # ``cycles`` is weakly decreasing, so the 1s, if any, are its tail
    return _mn(mu, cycles[: cycles.index(1)] if cycles and cycles[-1] == 1 else cycles)


# check-only; kept here because perfbench/checks.py imports it
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


# check-only; kept here because perfbench/checks.py imports character_recpart
def recpart_poly(lam: Partition, support: Iterable[int]) -> BinomPoly:
    """Character of shape (n - k, lam), k = |lam|, at the cycles ``support``
    (all of length at least 2) plus n - |support| fixed points, as a
    polynomial in n over the basis C(n - |support|, j).

    One layered strip pass: the layer starts as the inner partitions
    kappa whose complement in ``lam`` is a vertical strip, each with sign
    (-1)^{|lam| - |kappa|} and len(lam) beads, so that equal shapes share
    one key.  Each support cycle r is peeled or left out: the layer's
    r-strip peel is added to the layer.  The j-th coefficient sums the
    coefficients times f^shape over the final shapes of size j,
    each size read off its beads.
    Its value at n is the character for n >= max(k + lam_1, |support|).
    """
    lam, support = Partition(lam), CycleType(support)
    if 1 in support.cycles:
        raise ValueError(f"support must hold cycles of length >= 2, got {list(support.cycles)}")
    layer = {
        _beta(kappa, len(lam)): -1 if (lam.size - kappa.size) % 2 else 1
        for kappa in vertical_strip_inners(lam)
    }
    for r in support.cycles:
        for mask, c in _peel(layer, r).items():
            layer[mask] = layer.get(mask, 0) + c
    coeffs = [0] * (lam.size + 1)
    for mask, c in layer.items():
        coeffs[_size(mask)] += c * _leaf_dim(mask)
    return BinomPoly(support.n, coeffs)


# check-only; kept here because perfbench/checks.py and perfbench/test_smoke.py import it
def character_recpart(lam: Partition, ct: CycleType) -> int:
    """Character of shape (n - k, lam) at a permutation of cycle type ``ct``,
    where k = |lam| and n is the size of ``ct``.

    Evaluates ``recpart_poly`` at the cycles of ``ct`` of length at least
    2, at n.  Requires n >= k + lam_1 so that (n - k, lam) is a partition
    in the stable range.
    """
    lam, n = Partition(lam), ct.n
    need = lam.size + (lam[0] if lam else 0)
    if n < need:
        raise OutOfStableRange(f"need n >= {need} for lam = {lam}, got n = {n}")
    return eval_poly(recpart_poly(lam, [c for c in ct.cycles if c >= 2]), n)

