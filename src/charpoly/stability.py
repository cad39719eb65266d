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
in ``verification``, among them ``coeff_b``, the definition summed term
by term through the oracles' own memo of pair counts.

Each count f(lam / nu) = f^lam s*_nu(lam) / (k)_h (Okounkov and
Olshanski's dimension formula) is f^lam times one ``tableaux._Record.term``
of lam's hook table over (k)_h.  ``char_poly`` is the one caller of that
kernel: it adds up the terms of the primaries of each h that fit inside
lam, walked by loop bounds of its own, divides once per h, and keeps the
finished vector on the shape's record, so asking again for the same
shape and r costs one lookup, and neither a pair nor a primary is
memoized.  ``r_primary`` writes the three families out afresh on each
call and shares no enumeration with the kernel, so a slip in the
kernel's bounds or signs shows against ``coeff_b``, which sums over
``r_primary``.  The dimension vector is the kernel's stable limit:
from r = lam_1 + len(lam) on each h <= len(lam) has one primary that
fits, the column (1^h), so ``a_vector`` and ``dim_poly`` read
``char_poly`` at that r.

Expansions sum only the coefficients that can be nonzero.  An r-primary
partition of h has at least h - r parts, so none fits inside ``lam``
once h > len(lam) + r, and from the stable r on no primary of
h > len(lam) fits at all: ``char_poly`` computes b[h] only for
h <= len(lam) + r, and only for h <= len(lam) from there on.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .binom_poly import BinomPoly
from .partitions import Partition, _known_valid
from .tableaux import _Record, _record


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


def r_primary(r: int, h: int) -> tuple[SignedPartition, ...]:
    """The r-primary partitions of ``h`` with their r-signs, as a tuple.

    Three disjoint families:

    * the column (1^t) for each 0 <= t <= r - 1, sign +1;
    * (r-u-v, 2^u, 1^v) of size r + u with u, v >= 0 and u + v <= r - 2,
      sign (-1)^(r-u-v);
    * (r+1-u, 2^u, 1^v) of size r + 1 + u + v with 0 <= u <= r - 1 and
      v >= 0, sign (-1)^(r-u).

    Listed the column first, then the second family by increasing v, then
    the third by increasing u.  There are 1 of them for h < r, r - 1 for
    r <= h < 2r, and r for h >= 2r.  Built afresh on each call, from the
    families as written here; ``char_poly`` walks only the primaries that
    fit inside its shape, with loops of its own.
    """
    if r < 1:
        raise ValueError(f"cycle length must be positive, got {r}")
    if h < 0:
        raise ValueError(f"size must be nonnegative, got {h}")
    # the parts descend as built (a column of 1s, or a first part of at
    # least 2 over 2s and 1s), so they need no check
    out = [SignedPartition(_known_valid([1] * h), 1, Family.COLUMN)] if h <= r - 1 else []
    u = h - r
    if 0 <= u <= r - 2:
        out += (SignedPartition(_known_valid([r - u - v] + [2] * u + [1] * v),
                                (-1) ** (r - u - v), Family.TYPE_TWO) for v in range(r - 1 - u))
    rem = h - r - 1
    if rem >= 0:
        out += (SignedPartition(_known_valid([r + 1 - u] + [2] * u + [1] * (rem - u)),
                                (-1) ** (r - u), Family.TYPE_THREE)
                for u in range(min(r - 1, rem) + 1))
    return tuple(out)


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


def _b_vector(lam: Partition, rec: _Record, r: int, top: int) -> tuple[int, ...]:
    """b[0..top] of the shift-r expansion for ``lam``, read off the hook
    table of its record ``rec``: b[h] is f^lam times the signed
    ``rec.term`` of each primary of h that fits, summed, over (k)_h.  The
    primary (a, 2^u, 1^v) of ``r_primary``'s families is the hook
    (a-1 | v) when u = 0 and otherwise (a-1, 0 | u+v, u-1).

    Only the primaries whose first row and first column fit inside lam's
    are walked, by the bounds of the loops: the column (1^h) for
    h <= len(lam), the second family's v from r - u - lam_1 and below
    len(lam) - u, and the third family's u from r + 1 - lam_1, once its
    len(lam) rows fit.  In the record's orientation one of the two bounds
    keeps the row indices inside the table and the other extends the
    table only for primaries that can fit.  Rows of 2 need no bound:
    s*_nu(lam) vanishes, and so does the minor, when nu does not fit.
    """
    width, height = (lam[0], len(lam)) if lam else (0, 0)
    # the bounds are kept off the builtin max and min, whose calls cost
    # more than the few terms of a small shape: u + v of the second family
    # stays below r - 1 and len(lam), and the third family's first row,
    # r + 1 - u, fits from this u on
    below = r - 1 if r <= height else height
    first_u = r + 1 - width if r >= width else 0
    b, falling = [], 1
    for h in range(top + 1):
        # the column (1^h) is (1, 1^(h-1)); the empty one has no hook, and its minor is 1
        total = (rec.term((0,), (h - 1,)) if h else 1) if h < r and h <= height else 0
        u = h - r
        if 0 <= u <= r - 2:  # (r-u-v, 2^u, 1^v), sign (-1)^a
            first_v = r - u - width
            for v in range(first_v if first_v > 0 else 0, below - u):
                a = r - u - v
                term = rec.term((a - 1, 0), (u + v, u - 1)) if u else rec.term((a - 1,), (v,))
                total += -term if a & 1 else term
        rem = h - r - 1
        if 0 <= rem < height:  # (r+1-u, 2^u, 1^(rem-u)), sign -(-1)^a
            for u in range(first_u, (rem if rem < r - 1 else r - 1) + 1):
                a = r + 1 - u
                term = rec.term((a - 1, 0), (rem, u - 1)) if u else rec.term((a - 1,), (rem,))
                total += term if a & 1 else -term
        count, left = divmod(rec.dim * total, falling)
        assert left == 0, f"hook-table sum not integral for {lam} at r={r}, h={h}"
        b.append(count)
        falling *= rec.size - h
    return tuple(b)


def _stable_r(lam: Partition) -> int:
    """lam_1 + len(lam), the cycle length from which ``char_poly(lam, r)``
    is the dimension vector (``stable_tail_start`` proves it); 1 for the
    empty shape."""
    return lam[0] + len(lam) if lam else 1


def char_poly(lam: Partition, r: int) -> CharPolyExpansion:
    """Full coefficient vector of the character polynomial of ``lam`` on
    r-cycles.  Evaluating the polynomial at n >= k + lam_1 + r gives the
    character of (n - k, lam) at an r-cycle with n - r fixed points.

    Only b[0..min(k, len(lam) + r)] are summed, and from r = lam_1 +
    len(lam) on only b[0..len(lam)]; the rest are 0, since no r-primary
    partition of a larger h fits inside ``lam``.  The vector is kept on
    lam's record, one per r asked."""
    if type(lam) is not Partition:
        lam = Partition(lam)
    if r < 1:
        raise ValueError(f"cycle length must be positive, got {r}")
    rec = _record(lam)
    b = rec.vectors.get(r)
    if b is None:
        k = lam.size
        # an r-primary partition of h has at least h - r parts, and from
        # the stable r on only the columns (1^h) with h <= len(lam) fit
        top = min(k, lam.length + (r if r < _stable_r(lam) else 0))
        b = rec.vectors[r] = _b_vector(lam, rec, r, top) + (0,) * (k - top)
    return CharPolyExpansion(lam, r, b)


def stable_tail_start(lam: Partition, expansions: list[CharPolyExpansion]) -> int | None:
    """Index in ``expansions`` (ascending in r) where a provably infinite
    run of identical coefficient vectors starts, or None.

    From r = lam_1 + len(lam) on, the vector is the dimension vector
    ``a_vector(lam)``.  No second- or third-family primary fits inside
    ``lam`` there: one with at most len(lam) rows has u + v <= len(lam) - 1,
    so its first part, r - u - v or r + 1 - u, is at least
    r - len(lam) + 1 > lam_1.  Every column (1^h) with h <= len(lam) is a
    primary, since len(lam) < r, and fits, and no longer column fits.
    So the run is infinite exactly when the vectors match through
    lam_1 + len(lam).  Each r up to there is asked of ``char_poly``, which
    reads the ones already expanded back from lam's record.
    """
    start = len(expansions) - 1
    while start > 0 and expansions[start - 1].b == expansions[-1].b:
        start -= 1
    r_start, reference = expansions[start].r, expansions[start].b
    for r in range(r_start + 1, _stable_r(lam) + 1):
        if char_poly(lam, r).b != reference:
            return None
    return start


def a_vector(lam: Partition) -> list[int]:
    """The dimension coefficients a_h for h = 0..k, the standard tableaux
    of ``lam`` whose entries 1..h start its first h rows: the stable limit
    ``char_poly(lam, r).b`` at r = lam_1 + len(lam), where each
    h <= len(lam) < r has one primary that fits, the column (1^h), so
    a_h = f(lam / 1^h).  This is the library's one route to a_h."""
    lam = Partition(lam)
    return list(char_poly(lam, _stable_r(lam)).b)


def dim_poly(lam: Partition) -> BinomPoly:
    """Dimension of (n - k, lam) as a polynomial in the plain binomial
    basis: sum of (-1)^h a_h C(n, k - h) over the dimension coefficients
    a_h, the stable expansion of ``a_vector`` read at shift 0."""
    lam = Partition(lam)
    return BinomPoly(0, char_poly(lam, _stable_r(lam)).poly.coeffs)
