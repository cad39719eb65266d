"""Integer-valued polynomials in a shifted binomial basis.

A :class:`BinomPoly` with shift ``s`` and coefficients ``c`` is the
polynomial ``sum(c[m] * C(x - s, m))``, where ``C(a, m)`` is the falling
factorial ``a (a-1) ... (a-m+1) / m!``.  For any fixed ``s`` these
binomials are an integral basis of the integer-valued polynomials, so the
representation is unique and evaluation at integers stays in ``int``.
"""

from __future__ import annotations

from typing import Sequence


class BinomPoly:
    """Coefficients over the basis {C(x - shift, m)}_m, trailing zeros stripped.

    Immutable and hashable; equal when shift and coefficients are.
    """

    __slots__ = ("shift", "coeffs")

    def __init__(self, shift: int, coeffs: Sequence[int] = ()):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not BinomPoly:
            return NotImplemented
        return self.shift == other.shift and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.shift, self.coeffs))

    def __repr__(self) -> str:
        return f"BinomPoly(shift={self.shift!r}, coeffs={self.coeffs!r})"


def eval_poly(p: BinomPoly, x: int) -> int:
    """Evaluate ``p`` at the integer ``x``.

    The basis values come from a running binomial,
    C(a, m + 1) = C(a, m) (a - m) / (m + 1) with a = x - shift; the
    division is exact for every integer a, negative included, since
    C(a, m) (a - m) = (m + 1) C(a, m + 1).
    """
    a = x - p.shift
    total, basis = 0, 1
    for m, c in enumerate(p.coeffs):
        total += c * basis
        basis = basis * (a - m) // (m + 1)
    return total


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
