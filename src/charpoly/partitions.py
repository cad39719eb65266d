"""Partitions and shape-level combinatorics: transpose, containment,
border strips on the beta-set, vertical strips and enumeration.

All values here are immutable and all functions are pure, so everything
is safe to share between threads and to memoize.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from typing import Iterable, Iterator, NamedTuple


class NotWeaklyDecreasing(ValueError):
    """Raised when an input sequence is not a valid partition."""


class Partition(tuple):
    """A partition as a weakly decreasing tuple of positive integers.

    The constructor canonicalizes: trailing zeros are stripped and the
    empty partition is ``Partition()``.  Negative parts or an increase
    between adjacent parts raise :class:`NotWeaklyDecreasing`.  A value
    that already is a ``Partition`` is returned as it is.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:
            return parts
        parts = tuple(parts)
        # one C-level pass; the loop only finds the first fault for the message
        if parts and not (parts[-1] >= 0 and all(map(operator.ge, parts, parts[1:]))):
            for i, p in enumerate(parts):
                if p < 0:
                    raise NotWeaklyDecreasing(f"negative part {p} in {parts}")
                if i + 1 < len(parts) and parts[i + 1] > p:
                    raise NotWeaklyDecreasing(
                        f"parts {p}, {parts[i + 1]} increase in {parts}"
                    )
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        return tuple.__new__(cls, parts)

    @property
    def size(self) -> int:
        """Number of boxes, i.e. the integer this partition partitions."""
        return sum(self)

    @property
    def length(self) -> int:
        """Number of (positive) parts."""
        return len(self)

    def __repr__(self) -> str:
        return f"Partition{tuple(self)!r}" if self else "Partition()"


def _known_valid(parts: Iterable[int]) -> Partition:
    """``parts`` as a Partition without validation, for callers that build
    weakly decreasing positive parts with no trailing zero."""
    return tuple.__new__(Partition, parts)


class SkewHook(NamedTuple):
    """A border strip as Murnaghan--Nakayama reads it: its leg length (the
    number of rows it spans, minus one) and the partition it leaves."""

    leg_length: int
    complement: Partition


def transpose(lam: Partition) -> Partition:
    """Transpose (conjugate) partition: column lengths of ``lam``."""
    cols: list[int] = []
    for i in range(len(lam), 0, -1):
        below = lam[i] if i < len(lam) else 0
        cols += [i] * (lam[i - 1] - below)
    return _known_valid(cols)


def contains(lam: Partition, nu: Partition) -> bool:
    """True iff the diagram of ``nu`` fits inside the diagram of ``lam``."""
    return len(nu) <= len(lam) and all(map(operator.le, nu, lam))


def skew_hooks(lam: Partition, r: int) -> list[SkewHook]:
    """All border strips of ``lam`` with exactly ``r`` cells.

    Found on the beta-set of ``lam`` (James--Kerber 1981, 2.7): the j-th
    row from the bottom carries the bead lam_{l-j} + j, j = 0 .. l-1.
    A strip exists for each bead b with b - r >= 0 not a bead, and moving
    the bead there removes it.  Its leg length is the number of beads
    strictly between b - r and b; the complement is the moved beta-set
    minus the staircase 0, 1, .., l-1, with zero parts dropped.  Hooks
    are listed by increasing top row, i.e. by decreasing bead.  For
    r = 1 these are the internal corners with leg length 0.
    """
    if r < 1:
        raise ValueError(f"hook size must be positive, got {r}")
    if type(lam) is not Partition:
        lam = Partition(lam)
    beta = [p + j for j, p in enumerate(reversed(lam))]
    hooks = []
    for t in range(len(beta) - 1, -1, -1):
        pos = beta[t] - r
        if pos < 0:
            break
        below = bisect_left(beta, pos)  # beads under pos; beta ascends
        if beta[below] == pos:
            continue
        moved = beta[:below] + [pos] + beta[below:t] + beta[t + 1 :]
        parts = [c - j for j, c in enumerate(moved)]
        # read bottom-up the parts increase, so any zeros come first
        comp = _known_valid(reversed(parts[parts.count(0) :]))
        hooks.append(SkewHook(t - below, comp))
    return hooks


def vertical_strip_inners(lam: Partition) -> list[Partition]:
    """All partitions obtained by removing at most one box per row of ``lam``.

    Includes ``lam`` itself; sorted in decreasing lexicographic order.
    """
    inners = []
    for mask in range(1 << len(lam)):
        parts = [p - ((mask >> i) & 1) for i, p in enumerate(lam)]
        if all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)):
            if not parts or parts[-1] >= 0:
                inners.append(Partition(parts))
    inners.sort(reverse=True)
    return inners


def partitions_of(n: int) -> Iterator[Partition]:
    """Generate all partitions of ``n`` in decreasing lexicographic order."""

    def rec(remaining: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield _known_valid(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    yield from rec(n, n, [])


def subpartitions(lam: Partition) -> Iterator[Partition]:
    """Generate every partition contained in ``lam``."""

    def rec(i: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        yield _known_valid(prefix)
        if i >= len(lam):
            return
        for part in range(1, min(cap, lam[i]) + 1):
            prefix.append(part)
            yield from rec(i + 1, part, prefix)
            prefix.pop()

    yield from rec(0, lam[0] if lam else 0, [])
