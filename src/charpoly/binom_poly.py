"""Integer-valued polynomials in a shifted binomial basis.

A :class:`BinomPoly` with shift ``s`` and coefficients ``c`` is the
polynomial ``sum(c[m] * C(x - s, m))``, where ``C(a, m)`` is the falling
factorial ``a (a-1) ... (a-m+1) / m!``.  For any fixed ``s`` these
binomials are an integral basis of the integer-valued polynomials, so the
representation is unique and evaluation at integers stays in ``int``.
Evaluation is all the library needs; interpolation and reshifting, which
only the checks use, live in ``verification``.
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
