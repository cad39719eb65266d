"""Partitions and shape-level combinatorics: transpose, containment,
vertical strips, and the beta-set of a shape held as one int, one bit
per bead (``_beta`` encodes, ``_shape`` decodes, ``_beads`` lists the
beads).  ``_strips`` is the one border-strip step, for the character
peel in ``characters``.

All values here are immutable and all functions are pure, so everything
is safe to share between threads and to memoize.
"""

from __future__ import annotations

import operator
from itertools import accumulate, chain, groupby, product
from typing import Iterable, Iterator


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


def transpose(lam: Partition) -> Partition:
    """Transpose (conjugate) partition: column lengths of ``lam``."""
    cols: list[int] = []
    for i in range(len(lam), 0, -1):
        below = lam[i] if i < len(lam) else 0
        cols += [i] * (lam[i - 1] - below)
    return _known_valid(cols)


def contains(lam: Partition, nu: Partition) -> bool:
    """True iff the diagram of ``nu`` fits inside the diagram of ``lam``.

    Containment implies ``nu <= lam`` as tuples (at the first part where
    they differ, nu's is smaller, or nu is a prefix of lam), so that one
    comparison rejects about half of all pairs before the part-by-part one.
    """
    return nu <= lam and len(nu) <= len(lam) and all(map(operator.le, nu, lam))


def _beta(lam: Partition, beads: int) -> int:
    """The beta-set of ``lam`` with ``beads`` >= len(lam) beads as one int,
    one bit per bead: part i (from 0) at bit lam_i + beads - 1 - i, and
    the missing parts at the bottom bits."""
    mask = (1 << beads - len(lam)) - 1
    top = beads - 1
    for p in lam:
        mask |= 1 << p + top
        top -= 1
    return mask


def _shape(mask: int) -> Partition:
    """The partition with beta-set ``mask``: each bead's part is the number
    of gaps below it, read here as the runs of 0s between beads."""
    parts = accumulate(map(len, bin(mask)[2:].split("1")[:0:-1]))
    return _known_valid([p for p in parts if p][::-1])


def _beads(mask: int) -> list[int]:
    """The bead positions of the beta-set ``mask``, in descending order:
    the one loop that peels the bits off a beta-set."""
    beads = []
    while mask:
        top = mask.bit_length() - 1
        beads.append(top)
        mask -= 1 << top
    return beads


def _strips(mask: int, r: int) -> Iterator[tuple[int, int]]:
    """(leg length, beta-set left) for each r-cell border strip of the
    beta-set ``mask``, by decreasing bead.  A strip is a bead at t + r
    over a gap at t, and the beads strictly between make its leg."""
    free = mask >> r & ~mask
    between = (1 << r - 1) - 1
    while free:
        t = free.bit_length() - 1
        free ^= 1 << t
        yield (mask >> t + 1 & between).bit_count(), mask ^ (1 << t | 1 << t + r)


# check-only (recpart_polys); kept here because perfbench/checks.py imports character_recpart
def vertical_strip_inners(lam: Partition) -> list[Partition]:
    """All partitions obtained by removing at most one box per row of ``lam``.

    Includes ``lam`` itself; sorted in decreasing lexicographic order.
    Built by blocks of equal parts: in a block of m parts v only the
    bottom j rows can lose a box (0 <= j <= m), and any choice of j per
    block leaves a partition, since v - 1 is at least the next block's
    value.  So there are prod(m + 1) inners, one per choice, and taking
    j in increasing order block by block, the top block first, lists
    them in decreasing order.
    """
    blocks = []
    for v, run in groupby(lam):
        m = len(list(run))
        # a part 1 that loses its box is gone, not a trailing 0
        low = (v - 1,) if v > 1 else ()
        blocks.append([(v,) * (m - j) + low * j for j in range(m + 1)])
    return [_known_valid(chain.from_iterable(rows)) for rows in product(*blocks)]
