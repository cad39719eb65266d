"""Stable character polynomials on cycles, in shifted binomial bases.

For a fixed partition ``lam`` of k and a cycle of length r (extended by
fixed points), the character of the shape (n - k, lam) is a degree-k
polynomial in n.  Written as

    sum over h of (-1)^h * b[h] * C(n - r, k - h),

each coefficient ``b[h]`` is a signed count of skew standard tableaux of
``lam`` over the r-primary partitions of h.  This module builds those
coefficient vectors, the two expansions of the plain dimension (shift 0
and shift 1), the transposition closed forms, and the constant-term
rules, each with an independent second derivation used by the
verification suites.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Sequence

from .binom_poly import BinomPoly
from .partitions import Partition, contains, transpose
from .tableaux import a_coeff, dim_syt, skew_syt_count


class CaseNotDefined(ValueError):
    """Raised when a transposition closed form is queried below its k range."""


class Family(Enum):
    """Which clause of the r-primary definition produced a partition."""

    COLUMN = "column"
    TYPE_TWO = "type2"
    TYPE_THREE = "type3"


@dataclass(frozen=True)
class SignedPartition:
    """An r-primary partition with its r-sign."""

    partition: Partition
    sign: int
    family: Family


def r_primary(r: int, h: int) -> list[SignedPartition]:
    """The r-primary partitions of ``h`` with their r-signs.

    Three disjoint families:

    * columns (1^t) for 0 <= t <= r - 1, sign +1;
    * (r-u-v, 2^u, 1^v) of size r + u with u, v >= 0 and u + v <= r - 2,
      sign (-1)^(r-u-v);
    * (r+1-u, 2^u, 1^v) of size r + 1 + u + v with 0 <= u <= r - 1 and
      v >= 0, sign (-1)^(r-u).

    Listed columns first, then the second family by increasing v, then
    the third by increasing u.  There are 1 of them for h < r, r - 1 for
    r <= h < 2r, and r for h >= 2r.
    """
    if r < 1:
        raise ValueError(f"cycle length must be positive, got {r}")
    if h < 0:
        raise ValueError(f"size must be nonnegative, got {h}")
    out = []
    if h <= r - 1:
        out.append(SignedPartition(Partition([1] * h), 1, Family.COLUMN))
    u = h - r
    if 0 <= u <= r - 2:
        for v in range(r - 1 - u):
            nu = Partition([r - u - v] + [2] * u + [1] * v)
            out.append(SignedPartition(nu, (-1) ** (r - u - v), Family.TYPE_TWO))
    rem = h - r - 1
    if rem >= 0:
        for u in range(min(r - 1, rem) + 1):
            nu = Partition([r + 1 - u] + [2] * u + [1] * (rem - u))
            out.append(SignedPartition(nu, (-1) ** (r - u), Family.TYPE_THREE))
    return out


def coeff_b(lam: Partition, h: int, r: int) -> int:
    """Coefficient b[h] of the shift-r expansion for ``lam``: the signed
    sum of skew tableau counts over the r-primary partitions of h."""
    lam = Partition(lam)
    return sum(
        sp.sign * skew_syt_count(lam, sp.partition) for sp in r_primary(r, h)
    )


def coeff_b_transposition_split(lam: Partition, h: int) -> tuple[int, int]:
    """The two transposition half-coefficients (b_plus, b_minus).

    For h <= 3, b_plus counts skew tableaux over the single row (h) and
    b_minus is 0; for h >= 4 they count over (3, 1^(h-3)) and
    (2, 2, 1^(h-4)).  Their difference is coeff_b(lam, h, 2).
    """
    lam = Partition(lam)
    if h < 0:
        raise ValueError(f"h must be nonnegative, got {h}")
    if h <= 3:
        return skew_syt_count(lam, Partition([h] if h else [])), 0
    plus = skew_syt_count(lam, Partition([3] + [1] * (h - 3)))
    minus = skew_syt_count(lam, Partition([2, 2] + [1] * (h - 4)))
    return plus, minus


@dataclass(frozen=True)
class CharPolyExpansion:
    """The shift-r coefficient vector b[0..k] for a partition of k."""

    lam: Partition
    r: int
    b: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.lam.size

    @property
    def shift(self) -> int:
        return self.r

    @property
    def poly(self) -> BinomPoly:
        """The expansion as a polynomial: c[k - h] = (-1)^h b[h]."""
        k = self.k
        coeffs = [0] * (k + 1)
        for h, bh in enumerate(self.b):
            coeffs[k - h] = bh if h % 2 == 0 else -bh
        return BinomPoly(self.r, coeffs)

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam),
            "r": self.r,
            "k": self.k,
            "shift": self.shift,
            "b": list(self.b),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def char_poly(lam: Partition, r: int) -> CharPolyExpansion:
    """Full coefficient vector of the character polynomial of ``lam`` on
    r-cycles.  Evaluating the polynomial at n >= k + lam_1 + r gives the
    character of (n - k, lam) at an r-cycle with n - r fixed points."""
    lam = Partition(lam)
    if r < 1:
        raise ValueError(f"cycle length must be positive, got {r}")
    b = tuple(coeff_b(lam, h, r) for h in range(lam.size + 1))
    return CharPolyExpansion(lam, r, b)


def dim_poly(lam: Partition) -> BinomPoly:
    """Dimension of (n - k, lam) as a polynomial in the plain binomial
    basis: sum of (-1)^h a_coeff(lam, h) C(n, k - h)."""
    lam = Partition(lam)
    k = lam.size
    coeffs = [0] * (k + 1)
    for h in range(k + 1):
        a = a_coeff(lam, h)
        coeffs[k - h] = a if h % 2 == 0 else -a
    return BinomPoly(0, coeffs)


def dim_poly_alt(lam: Partition) -> BinomPoly:
    """Second dimension formula, in the shift-1 basis: the r = 1 case of
    the cycle expansion.  Function-equal to dim_poly."""
    return char_poly(lam, 1).poly


def constant_coeff(lam: Partition, r: int) -> int:
    """The constant-term coefficient b[k] for ``lam`` of k: the r-sign
    when ``lam`` is r-primary, else 0."""
    lam = Partition(lam)
    for sp in r_primary(r, lam.size):
        if sp.partition == lam:
            return sp.sign
    return 0


def _complement_is_vertical_strip(lam: Partition, kappa: Partition) -> bool:
    return all(
        lam[i] - (kappa[i] if i < len(kappa) else 0) in (0, 1)
        for i in range(len(lam))
    )


def constant_coeff_vertical_strip(lam: Partition, r: int) -> int:
    """Second derivation of the constant term, from the vertical-strip
    expansion of the character.

    Only the empty inner partition and the hooks (i, 1^(r-i)) survive for
    a single r-cycle with no fixed points: the former contributes 1 when
    ``lam`` is itself a vertical strip (a column), and each fitting hook
    whose complement in ``lam`` is a vertical strip contributes (-1)^i.
    """
    lam = Partition(lam)
    if r < 1:
        raise ValueError(f"cycle length must be positive, got {r}")
    total = 1 if all(p <= 1 for p in lam) else 0
    for i in range(1, r + 1):
        kappa = Partition([i] + [1] * (r - i))
        if not contains(lam, kappa):
            continue
        if _complement_is_vertical_strip(lam, kappa):
            total += -1 if i % 2 else 1
    return total


_BASIS2_MIN_K = {1: 0, 2: 2, 3: 3, 4: 4}


def basis2_partition(case: int, k: int) -> Partition:
    """The partition of k handled by the given transposition closed form:
    (1^k), (2, 1^{k-2}), (3, 1^{k-3}) or (2, 2, 1^{k-4})."""
    if case not in _BASIS2_MIN_K:
        raise ValueError(f"case must be 1..4, got {case}")
    if k < _BASIS2_MIN_K[case]:
        raise CaseNotDefined(f"case {case} needs k >= {_BASIS2_MIN_K[case]}, got {k}")
    head = {1: [], 2: [2], 3: [3], 4: [2, 2]}[case]
    return Partition(head + [1] * (k - sum(head)))


def basis2_closed_form(case: int, k: int) -> tuple[int, ...]:
    """Coefficient vector b[0..k] of one of the four transposition closed
    forms, transcribed term by term (including the explicit zero at h = 3
    in case 4)."""
    if case not in _BASIS2_MIN_K:
        raise ValueError(f"case must be 1..4, got {case}")
    if k < _BASIS2_MIN_K[case]:
        raise CaseNotDefined(f"case {case} needs k >= {_BASIS2_MIN_K[case]}, got {k}")
    b = [0] * (k + 1)
    if case == 1:
        b[0] = 1
        if k >= 1:
            b[1] = 1
    elif case == 2:
        b[0] = b[1] = k - 1
        b[2] = 1
    elif case == 3:
        b[0] = b[1] = comb(k - 1, 2)
        b[2] = k - 2
        for h in range(3, k + 1):
            b[h] = 1
    else:
        b[0] = b[1] = k * (k - 3) // 2
        b[2] = k - 3
        b[3] = 0
        for h in range(4, k + 1):
            b[h] = -1
    return tuple(b)


def basis2_closed_forms(k: int) -> dict[int, tuple[Partition, tuple[int, ...]]]:
    """All transposition closed forms defined at this k, keyed by case."""
    out = {}
    for case in (1, 2, 3, 4):
        if k >= _BASIS2_MIN_K[case]:
            out[case] = (basis2_partition(case, k), basis2_closed_form(case, k))
    return out


def shape_in_n(lam: Partition) -> str:
    """Render the stable shape (n - k, lam) as it appears under chi or f,
    e.g. "(n-6,3,3)"; the empty partition gives "(n)"."""
    lam = Partition(lam)
    if not lam:
        return "(n)"
    return f"(n-{lam.size}" + "".join(f",{p}" for p in lam) + ")"


def format_terms(b: Sequence[int], arg: str, latex: bool = False) -> str:
    """Render sum of (-1)^h b[h] C(arg, k-h) as text ("5C(n-2,6) -5C(n-2,5)")
    or LaTeX ("5\\binom{n-2}{6} -5\\binom{n-2}{5}"), skipping zero terms."""
    k = len(b) - 1
    pieces = []
    for h, bh in enumerate(b):
        if bh == 0:
            continue
        signed = bh if h % 2 == 0 else -bh
        if latex:
            binom = f"\\binom{{{arg}}}{{{k - h}}}"
        else:
            binom = f"C({arg},{k - h})"
        if not pieces:
            pieces.append(f"{signed}{binom}")
        else:
            pieces.append(f"{'+' if signed >= 0 else '-'}{abs(signed)}{binom}")
    return " ".join(pieces) if pieces else "0"


def latex_expansion_line(exp: CharPolyExpansion, *, collapsed_from: int | None = None) -> str:
    """One display-math line in the style of the worked (3,3) table.

    With ``collapsed_from`` the line stands for every cycle length >= that
    value: the subscript becomes "r >= a" and the shift is the symbol r.
    """
    if collapsed_from is not None:
        sigma = f"\\sigma_{{r\\geq{collapsed_from}}}"
        arg = "n-r"
    else:
        sigma = f"\\sigma_{{{exp.r}}}"
        arg = f"n-{exp.r}"
    terms = format_terms(exp.b, arg, latex=True)
    return f"\\[\\chi^{{{shape_in_n(exp.lam)}}}({sigma}) = {terms}\\]"


def latex_dimension_line(lam: Partition) -> str:
    """The dimension row: f^{(n-k,lam)} in the plain binomial basis."""
    lam = Partition(lam)
    b = [a_coeff(lam, h) for h in range(lam.size + 1)]
    return f"\\[f^{{{shape_in_n(lam)}}} = {format_terms(b, 'n', latex=True)}\\]"
