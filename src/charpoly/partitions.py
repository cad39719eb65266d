"""Partitions, Young diagrams, and shape-level combinatorics.

Conventions: English notation, 1-based (row, col) coordinates, rows
indexed downward.  A cell (i, j) belongs to the diagram of ``lam`` iff
``j <= lam[i-1]``.  All values here are immutable and all functions are
pure, so everything is safe to share between threads and to memoize.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


class NotWeaklyDecreasing(ValueError):
    """Raised when an input sequence is not a valid partition."""


class EmptyPartition(ValueError):
    """Raised when an operation needs a non-empty partition."""


class NotACorner(ValueError):
    """Raised when a cell is not an internal corner of the partition."""


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
        for i, p in enumerate(parts):
            if p < 0:
                raise NotWeaklyDecreasing(f"negative part {p} in {parts}")
            if i + 1 < len(parts) and parts[i + 1] > p:
                raise NotWeaklyDecreasing(
                    f"parts {p}, {parts[i + 1]} increase in {parts}"
                )
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        return super().__new__(cls, parts)

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
    if not lam:
        return Partition()
    return Partition(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def contains(lam: Partition, nu: Partition) -> bool:
    """True iff the diagram of ``nu`` fits inside the diagram of ``lam``."""
    if len(nu) > len(lam):
        return False
    return all(nu[i] <= lam[i] for i in range(len(nu)))


def internal_corners(lam: Partition) -> list[Cell]:
    """Cells removable from ``lam``, in increasing row order.

    These are exactly the boxes of hook length 1.
    """
    if not lam:
        raise EmptyPartition("the empty partition has no corners")
    corners = []
    for i, p in enumerate(lam):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if p > below:
            corners.append(Cell(i + 1, p))
    return corners


def remove_corner(lam: Partition, v: Cell) -> Partition:
    """Partition obtained by removing the internal corner ``v`` from ``lam``."""
    if v not in internal_corners(lam):
        raise NotACorner(f"{v} is not an internal corner of {lam}")
    parts = list(lam)
    parts[v.row - 1] -= 1
    return Partition(parts)


def hook_lengths(lam: Partition) -> dict[Cell, int]:
    """Hook length of every cell: arm + leg + 1."""
    t = transpose(lam)
    return {
        Cell(i, j): (lam[i - 1] - j) + (t[j - 1] - i) + 1
        for i in range(1, len(lam) + 1)
        for j in range(1, lam[i - 1] + 1)
    }


def boundary_cells(lam: Partition) -> list[Cell]:
    """Boundary (rim) of ``lam``: cells (i, j) with (i+1, j+1) outside.

    Returned in rim order, from the bottom-left cell to the end of the
    first row; consecutive cells share an edge and the diagonal j - i
    increases by one at each step.
    """
    cells = []
    for i in range(1, len(lam) + 1):
        lo = max(1, lam[i] if i < len(lam) else 0)
        cells.extend(Cell(i, j) for j in range(lo, lam[i - 1] + 1))
    cells.sort(key=lambda c: c.col - c.row)
    return cells


def _strip_complement(lam: Partition, window: list[Cell]) -> Partition | None:
    """Partition left after removing ``window``, or None if not left-aligned."""
    last = {}
    first = {}
    for c in window:
        first[c.row] = min(first.get(c.row, c.col), c.col)
        last[c.row] = max(last.get(c.row, c.col), c.col)
    parts = list(lam)
    for i, hi in last.items():
        if hi != lam[i - 1]:
            return None
        parts[i - 1] = first[i] - 1
    for i in range(len(parts) - 1):
        if parts[i + 1] > parts[i]:
            return None
    return Partition(parts)


def skew_hooks(lam: Partition, r: int) -> list[SkewHook]:
    """All border strips of ``lam`` with exactly ``r`` cells.

    Enumerated by sliding an r-cell window along the rim and keeping the
    windows whose removal leaves a partition.  For r = 1 this is the set
    of internal corners with leg length 0.  Sorted lexicographically by
    topmost-then-leftmost cell.
    """
    if r < 1:
        raise ValueError(f"hook size must be positive, got {r}")
    rim = boundary_cells(lam)
    hooks = []
    for start in range(len(rim) - r + 1):
        window = rim[start : start + r]
        comp = _strip_complement(lam, window)
        if comp is None:
            continue
        rows = {c.row for c in window}
        hooks.append(SkewHook(tuple(window), len(rows) - 1, comp))
    hooks.sort(key=lambda h: min(h.cells))
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
            yield Partition(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    yield from rec(n, max_part, [])


def subpartitions(lam: Partition) -> Iterator[Partition]:
    """Generate every partition contained in ``lam``."""

    def rec(i: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        yield Partition(prefix)
        if i >= len(lam):
            return
        for part in range(1, min(cap, lam[i]) + 1):
            prefix.append(part)
            yield from rec(i + 1, part, prefix)
            prefix.pop()

    yield from rec(0, lam[0] if lam else 0, [])
