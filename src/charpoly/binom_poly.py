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

from collections import namedtuple
from typing import Iterable, Sequence


class BinomPoly(namedtuple("BinomPoly", ("shift", "coeffs"))):
    """Coefficients over the basis {C(x - shift, m)}_m, trailing zeros stripped.

    An immutable tuple (shift, coeffs), so it compares, hashes, copies and
    pickles as one.  A ``collections.namedtuple``, not a
    ``typing.NamedTuple``, since the constructor strips the zeros and
    ``typing.NamedTuple`` refuses a ``__new__``; ``_make``, and so
    ``_replace``, go through the constructor and strip them too.
    """

    __slots__ = ()

    def __new__(cls, shift: int, coeffs: Sequence[int] = ()) -> BinomPoly:
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        return super().__new__(cls, shift, coeffs)

    @classmethod
    def _make(cls, iterable: Iterable) -> BinomPoly:
        """The polynomial with the fields (shift, coeffs) of ``iterable``,
        built by the constructor; ``_replace`` builds through this."""
        shift, coeffs = iterable
        return cls(shift, coeffs)


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
