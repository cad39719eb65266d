"""Partitions, Young diagrams, and shape-level combinatorics.

Conventions: English notation, 1-based (row, col) coordinates, rows
indexed downward.  A cell (i, j) belongs to the diagram of ``lam`` iff
``j <= lam[i-1]``.  All values here are immutable and all functions are
pure, so everything is safe to share between threads and to memoize.
"""

from __future__ import annotations

import operator
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


class Cell(NamedTuple):
    """A box of a Young diagram, 1-based (row, col)."""

    row: int
    col: int


class SkewHook(NamedTuple):
    """A border strip: connected boundary cells whose removal leaves a partition."""

    cells: tuple[Cell, ...]
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

    Found on the beta-set of ``lam`` (James--Kerber 1981, 2.7): with
    l = len(lam), row i carries the bead beta_i = lam_i - i + l.  A strip
    whose top cell is in row i exists iff beta_i - r >= 0 is not a bead;
    moving the bead there removes it.  Its leg length is the number of
    beads strictly between beta_i - r and beta_i, the beads of rows
    i+1 .. i+leg.  In the complement each row k from i to i+leg-1
    becomes lam_{k+1} - 1, and row i+leg takes its length from position
    beta_i - r.  Each hook's cells run along the rim from the
    bottom-left one; hooks are listed by increasing top row.  For
    r = 1 these are the internal corners with leg length 0.
    """
    if r < 1:
        raise ValueError(f"hook size must be positive, got {r}")
    if type(lam) is not Partition:
        lam = Partition(lam)
    ell = len(lam)
    beta = [p - i + ell - 1 for i, p in enumerate(lam)]
    beads = set(beta)
    hooks = []
    for top, b in enumerate(beta):
        pos = b - r
        if pos < 0:
            break
        if pos in beads:
            continue
        bottom = top
        while bottom + 1 < ell and beta[bottom + 1] > pos:
            bottom += 1
        inner = [q - 1 for q in lam[top + 1 : bottom + 1]]
        inner.append(pos - ell + 1 + bottom)
        cells = tuple(
            Cell(row + 1, col)
            for row in range(bottom, top - 1, -1)
            for col in range(inner[row - top] + 1, lam[row] + 1)
        )
        # a zero can only end the complement, when the strip reaches the last row
        while inner and not inner[-1]:
            inner.pop()
        comp = _known_valid(lam[:top] + tuple(inner) + lam[bottom + 1 :])
        hooks.append(SkewHook(cells, bottom - top, comp))
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


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Generate all partitions of ``n`` in decreasing lexicographic order."""
    if max_part is None:
        max_part = n

    def rec(remaining: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield _known_valid(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    yield from rec(n, max_part, [])


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
