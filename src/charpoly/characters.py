"""Exact symmetric-group character evaluation.

Every value here comes from one step, the Murnaghan--Nakayama strip
peel: ``_peel`` moves each coefficient of a layer {beta-set int:
coefficient} through the r-cell border strips with sign (-1)^leg.
``character_mn`` peels every non-trivial cycle but the last one so, and
reads the last one off each shape of the layer before it as that
shape's character at one r-cycle (``_at_cycle``).  Each leaf's f is
read back from MN's memo of dimensions when it is there, and otherwise
counted from the shape's own f by the bead ratio, one bead moved by r
(James--Kerber 1981, 2.7).  Every f in the memo is counted from its
beads by the beta-number formula (``tableaux._beta_dim``), and only
there.  Fixed points are never peeled: the cycle type
keeps them as a count, and a shape (n - k, lam) with n - r fixed points
costs a few factors, not n, since its long top row is one short falling
factorial.  A shape with more rows than columns is peeled as its
conjugate, times the sign of the permutation, so a peel holds one bead
per row or per column, whichever is fewer.  Frobenius's formula and the
vertical-strip expansion count f by the hook formula (``dim_syt``) and
never read the memo, so comparing them with MN checks one route against
the other.

* ``character_mn`` -- the Murnaghan--Nakayama rule, one layer per
  non-trivial cycle; the ground truth everything else is checked against.
* ``character_frobenius_transposition`` -- Frobenius's closed formula for
  the value at a transposition.
* ``character_recpart`` -- the vertical-strip expansion of the character
  of (n-k, lam) at an arbitrary permutation.  For a fixed lam and a fixed
  set of non-trivial cycles (the support) it is a polynomial in n, built
  by ``recpart_poly`` with the same peel and then evaluated at n;
  ``recpart_polys`` builds those of many supports of one lam in one pass,
  peeling each shared prefix of cycles once.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from math import comb, perm, prod
from typing import Iterable, Mapping, Sequence

from .binom_poly import BinomPoly, eval_poly
from .partitions import (
    Partition,
    _beads,
    _beta,
    _known_valid,
    _shape,
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


class CycleType(namedtuple("CycleType", ("support", "fixed"))):
    """Cycle type of a permutation: its cycles of length at least 2, as a
    sorted Partition (``support``), and its number of fixed points
    (``fixed``), so a permutation of n with few moved points costs a few
    numbers, not n.

    An immutable tuple (support, fixed), so it compares, hashes, copies
    and pickles as one, and no hash lists the n cycles; it prints as
    ``cycles``: all the lengths as one sorted Partition, built when it is
    asked for.  The constructor takes all the cycle lengths, fixed points
    included, in any order;
    ``of_counts`` takes the number of cycles of each length, and a pickle
    holds those counts, not the n cycles.  A ``collections.namedtuple``,
    not a ``typing.NamedTuple``, since the constructor normalises and
    ``typing.NamedTuple`` refuses a ``__new__``; ``_make``, and so
    ``_replace``, go through ``of_counts`` and check and normalise too.
    """

    __slots__ = ()

    def __new__(cls, cycles: Iterable[int] = ()) -> CycleType:
        return cls.of_counts(Counter(cycles))

    @classmethod
    def of_counts(cls, counts: Mapping[int, int]) -> CycleType:
        """The cycle type with ``counts[c]`` cycles of length c."""
        lengths = sorted(counts, reverse=True)
        if lengths and lengths[-1] < 1:
            raise ValueError(f"cycle lengths must be >= 1, got {lengths[-1]}")
        support: list[int] = []
        for c in lengths:
            if counts[c] < 0:
                raise ValueError(f"cycle counts must be >= 0, got {counts[c]} of length {c}")
            if c > 1:
                support += [c] * counts[c]
        return tuple.__new__(cls, (_known_valid(support), counts.get(1, 0)))

    @classmethod
    def _make(cls, iterable: Iterable) -> CycleType:
        """The cycle type with the fields (support, fixed) of ``iterable``:
        the cycles ``support``, in any order, and ``fixed`` fixed points,
        built by ``of_counts``; ``_replace`` builds through this."""
        support, fixed = iterable
        counts = Counter(support)
        counts[1] += fixed
        return cls.of_counts(counts)

    def __reduce__(self):
        # the counts of each length, not the default's fields, which
        # __new__ would read as cycle lengths
        return type(self).of_counts, (self.multiplicities(),)

    def __repr__(self) -> str:
        return f"CycleType(cycles={self.cycles!r})"

    @property
    def n(self) -> int:
        return sum(self.support) + self.fixed

    @property
    def cycles(self) -> Partition:
        return _known_valid(self.support + (1,) * self.fixed)

    def multiplicities(self) -> dict[int, int]:
        """Map cycle length i -> number of cycles of that length."""
        counts = Counter(self.support)
        if self.fixed:
            counts[1] = self.fixed
        return dict(counts)


class _Dims(dict):
    """f^shape per beta-set int, counted by ``_beta_dim`` the first time
    it is asked for: ``dims[mask]`` counts a missing one, ``dims.get(mask)``
    only reads."""

    __slots__ = ()

    def __missing__(self, mask: int) -> int:
        dim = self[mask] = _beta_dim(mask)
        return dim


# MN's memo of dimensions: peels end again and again on the same few
# shapes.  Only ``_beta_dim`` writes it; the bead ratio reads it and never
# writes it, so a slip in the ratio stays one wrong value, a counterexample,
# and never becomes a later parent's f, whose next ratio would not divide
_leaf_dims = _Dims()


def _peel(layer: dict[int, int], r: int) -> dict[int, int]:
    """The signed r-strip peel of ``layer``, a map beta-set -> coefficient:
    each r-strip moves its coefficient times (-1)^leg to what it leaves."""
    peeled: dict[int, int] = {}
    for mask, c in layer.items():
        for leg, rest in _strips(mask, r):
            peeled[rest] = peeled.get(rest, 0) + (-c if leg & 1 else c)
    return peeled


def _by_ratio(mask: int, r: int, leaves: list[int]) -> int:
    """The sum of (-1)^leg f^leaf over ``leaves``, r-strip leaves of the
    beta-set ``mask``, each counted from f of ``mask`` (read from the memo)
    by the bead ratio (James--Kerber 1981, 2.7).  A leaf moves one bead b
    of the n-box shape to the gap b - r, so

        f^leaf = f (b)_r / (n)_r prod_(c != b) (b - r - c) / (b - c)

    over the other beads c.  The product's sign is (-1)^leg, for the leg
    beads between b - r and b, so the peel's sign is in it already.  Both
    products stay small, and one exact division per leaf brings in f.
    As (b)_r / (n)_r = b! (n - r)! / ((b - r)! n!), it is taken as
    (m)_k / (n)_k with k = min(r, n - b) and m = min(b, n - r), so a bead
    moved near the top of a long row builds no n!."""
    f = _leaf_dims[mask]
    # the beads of zero parts, at the bottom, change no ratio
    zeros = (~mask & mask + 1).bit_length() - 1
    beads = _beads(mask >> zeros)
    n = sum(beads) - len(beads) * (len(beads) - 1) // 2
    total = 0
    for leaf in leaves:
        b = (mask ^ leaf).bit_length() - 1 - zeros
        t, k = b - r, min(r, n - b)
        num, den = perm(min(b, n - r), k), perm(n, k)
        for c in beads:
            if c != b:
                num *= t - c
                den *= b - c
        dim, rem = divmod(f * num, den)
        assert rem == 0, f"bead ratio not integral moving bead {b} by {r}"
        total += dim
    return total


def _at_cycle(mask: int, r: int) -> int:
    """The character of the shape with beta-set ``mask`` at one r-cycle
    plus fixed points: its r-strip leaves' f, each with the sign (-1)^leg.
    A leaf already in the memo is read back; the new ones are counted from
    the shape's own f by ``_by_ratio``."""
    total, new = 0, []
    for leg, rest in _strips(mask, r):
        dim = _leaf_dims.get(rest)
        if dim is None:
            new.append(rest)
        else:
            total += -dim if leg & 1 else dim
    return total + _by_ratio(mask, r, new) if new else total


def _mn(mu: Partition, cycles: Sequence[int]) -> int:
    # peel exactly ``cycles``, in order, one layer per cycle; the last cycle
    # is read off each shape of the layer before it by ``_at_cycle``, and a
    # lone cycle straight off mu
    mask = _beta(mu, len(mu))
    if not cycles:
        return _leaf_dims[mask]
    if len(cycles) == 1:
        return _at_cycle(mask, cycles[0])
    layer = {mask: 1}
    for r in cycles[:-1]:
        layer = _peel(layer, r)
    r = cycles[-1]
    return sum(c * _at_cycle(mask, r) for mask, c in layer.items())


def character_mn(mu: Partition, ct: CycleType) -> int:
    """Character of the representation of shape ``mu`` at a permutation of
    cycle type ``ct``, by the Murnaghan--Nakayama rule.

    Only the cycles of length at least 2 are peeled, in weakly decreasing
    length order (the value is independent of that order), the last one
    with each leaf's f read back or counted by the bead ratio; the fixed
    points are never peeled but counted, as f^shape, on each shape that
    is left.  There is no recursion: each cycle peels one layer of
    beta-sets, so the depth of the stack does not grow with the input.
    Reading n and the non-trivial cycles off ``ct`` costs nothing per
    fixed point.  A shape with more rows than columns is evaluated on its
    conjugate, times the sign of the permutation (chi^mu' = sgn chi^mu),
    so its cost follows its columns, not its rows.
    """
    if type(mu) is not Partition:
        mu = Partition(mu)
    support, fixed = ct
    moved = sum(support)
    if sum(mu) != moved + fixed:
        raise SizeMismatch(f"|mu| = {mu.size} but cycle type fills {moved + fixed}")
    if mu and len(mu) > mu[0]:
        # sgn = (-1)^(sum (c - 1)) over the cycles; a fixed point adds 0
        odd = (moved - len(support)) & 1
        value = _mn(transpose(mu), support)
        return -value if odd else value
    return _mn(mu, support)


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
def recpart_polys(
    lam: Partition, supports: Iterable[Sequence[int]]
) -> dict[Sequence[int], BinomPoly]:
    """Character of shape (n - k, lam), k = |lam|, at each support's cycles
    (all of length at least 2) plus n - |support| fixed points, as a
    polynomial in n over the basis C(n - |support|, j): a map from each of
    ``supports`` (hashable, in any order) to its ``BinomPoly``.

    One layered strip pass per lam: the layer starts as the inner
    partitions kappa whose complement in ``lam`` is a vertical strip, each
    with sign (-1)^{|lam| - |kappa|} and len(lam) beads, so that equal
    shapes share one key.  Each cycle r of a support, in decreasing order,
    is peeled or left out: the layer of a support is the layer of its
    prefix plus that layer's r-strip peel at its last cycle r, so a prefix
    that several supports share is peeled once.  The j-th coefficient sums
    the coefficients times f^shape over the final shapes of size j, each
    f counted by the hook formula of the decoded shape, once per beta-set
    in a call.  Its value at n is the character for
    n >= max(k + lam_1, |support|).
    """
    lam = Partition(lam)
    layers = {
        (): {
            _beta(kappa, len(lam)): -1 if (lam.size - kappa.size) % 2 else 1
            for kappa in vertical_strip_inners(lam)
        }
    }
    dims: dict[int, tuple[int, int]] = {}  # beta-set -> (size, f) of its shape
    polys = {}
    for support in supports:
        ct = CycleType(support)
        if ct.fixed:
            raise ValueError(f"support must hold cycles of length >= 2, got {list(ct.cycles)}")
        cycles = ct.support
        done = len(cycles)
        while cycles[:done] not in layers:
            done -= 1
        layer = layers[cycles[:done]]
        for i in range(done, len(cycles)):
            peeled = _peel(layer, cycles[i])
            layer = dict(layer)
            for mask, c in peeled.items():
                layer[mask] = layer.get(mask, 0) + c
            layers[cycles[: i + 1]] = layer
        coeffs = [0] * (lam.size + 1)
        for mask, c in layer.items():
            size_dim = dims.get(mask)
            if size_dim is None:
                shape = _shape(mask)
                size_dim = dims[mask] = shape.size, dim_syt(shape)
            coeffs[size_dim[0]] += c * size_dim[1]
        polys[support] = BinomPoly(ct.n, coeffs)
    return polys


# check-only; kept here because perfbench/checks.py imports character_recpart
def recpart_poly(lam: Partition, support: Iterable[int]) -> BinomPoly:
    """Character of shape (n - k, lam), k = |lam|, at the cycles ``support``
    (all of length at least 2) plus n - |support| fixed points, as a
    polynomial in n over the basis C(n - |support|, j): ``recpart_polys``
    for this one support.  Its value at n is the character for
    n >= max(k + lam_1, |support|).
    """
    support = tuple(support)
    return recpart_polys(lam, [support])[support]


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
    return eval_poly(recpart_poly(lam, ct.support), n)

