"""Integer-valued polynomials in a shifted binomial basis.

A :class:`BinomPoly` with shift ``s`` and coefficients ``c`` is the
polynomial ``sum(c[m] * C(x - s, m))``, where ``C(a, m)`` is the falling
factorial ``a (a-1) ... (a-m+1) / m!``.  For any fixed ``s`` these
binomials are an integral basis of the integer-valued polynomials, so the
representation is unique and evaluation at integers stays in ``int``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb, factorial
from typing import Sequence


def binomial(a: int, m: int) -> int:
    """C(a, m) for any integer ``a`` and m >= 0, via the falling factorial.

    Zero when 0 <= a < m; signed and nonzero for negative ``a``.
    """
    if m < 0:
        raise ValueError(f"lower index must be nonnegative, got {m}")
    if a >= 0:
        return comb(a, m)
    num = 1
    for t in range(m):
        num *= a - t
    return num // factorial(m)


@dataclass(frozen=True)
class BinomPoly:
    """Coefficients over the basis {C(x - shift, m)}_m, trailing zeros stripped."""

    shift: int
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        """Largest m with a nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        return eval_poly(self, x)

    def to_json(self) -> str:
        return json.dumps({"shift": self.shift, "coeffs": list(self.coeffs)})

    @classmethod
    def from_json(cls, text: str) -> "BinomPoly":
        data = json.loads(text)
        return cls(data["shift"], data["coeffs"])


def eval_poly(p: BinomPoly, x: int) -> int:
    """Evaluate ``p`` at the integer ``x``."""
    return sum(c * binomial(x - p.shift, m) for m, c in enumerate(p.coeffs))


def interpolate(values: Sequence[int], shift: int) -> BinomPoly:
    """The unique polynomial of degree < len(values) in basis {C(x - shift, m)}
    taking the given values at x = shift, shift + 1, ...

    The m-th coefficient is the m-th forward difference of the values.
    """
    diffs = list(values)
    coeffs = []
    while diffs:
        coeffs.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return BinomPoly(shift, coeffs)


def reshift(p: BinomPoly, new_shift: int) -> BinomPoly:
    """Rewrite ``p`` in the basis shifted by ``new_shift``; same function."""
    if new_shift == p.shift or not p.coeffs:
        return BinomPoly(new_shift, p.coeffs)
    values = [eval_poly(p, new_shift + i) for i in range(len(p.coeffs))]
    return interpolate(values, new_shift)
