"""Counting standard Young tableaux of straight and skew shapes.

``dim_syt`` uses the hook length formula, taking the hook product as
one falling factorial per run of equal-height columns.

``skew_syt_count`` uses Aitken's determinant f(outer \\ inner) = N!
det[1 / (outer_i - inner_j - i + j)!] (Aitken 1943; Stanley, EC2 Cor.
7.16.3).  With a_i = outer_i - i + ell, row i times a_i! has entries
P[i][b] = a_i! / (a_i - b)! at the columns b = inner_j - j + ell.  An
empty inner takes the columns b = ell - 1, ..., 0, the block P0 with
D = det P0; any inner of Durfee rank d swaps d of them, the holes
ell - 1 - beta_i, for the columns ell + alpha_j, where (alpha | beta)
are its Frobenius coordinates.  So each outer is reduced once, in the
orientation with fewer rows, by fraction-free Gauss--Jordan elimination
to adj P0 = D P0^-1, and then

    f(outer \\ inner) = (-1)^(sum beta) N! det[V[beta_i][ell + alpha_j]]
                        / (D^(d-1) prod a_i!),

where V[:, b] = adj P0 P[:, b] (Macdonald, Symmetric Functions, I.3,
the Giambelli pattern).  A count costs one d x d minor, and the
r-primary inners of the character polynomials have d <= 2, so ``_det``
takes minors of size <= 2 by their closed forms and only larger ones by
Bareiss elimination.  Reduced columns are formed the first time a count
needs them.  Two global memos hold the work: one record per outer (the
reduction and its columns) and one count per (outer, inner) pair asked
for.
"""

from __future__ import annotations

from functools import cache
from math import factorial, perm, prod
from operator import mul

from .partitions import Partition, contains, transpose


def dim_syt(mu: Partition) -> int:
    """Number of standard Young tableaux of shape ``mu`` (hook formula).

    Equals the dimension of the corresponding irreducible representation;
    dim_syt of the empty partition is 1.
    """
    parts = (*mu, 0)
    # the columns j in [parts[c], parts[c-1]) all have height c, so in row
    # i < c their hooks (arm + leg + 1, 0-based) are consecutive integers
    # falling from p - parts[c] + c - i - 1: one falling factorial per run
    steps = [c for c in range(1, len(parts)) if parts[c] < parts[c - 1]]
    hooks = prod(
        perm(p - parts[c] + c - i - 1, parts[c - 1] - parts[c])
        for i, p in enumerate(mu)
        for c in steps
        if c > i
    )
    n_fact = factorial(mu.size)
    assert n_fact % hooks == 0, f"hook product does not divide {mu.size}!"
    return n_fact // hooks


def _det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix.

    Up to 2 x 2 by the closed forms, which cover every r-primary inner;
    larger by Bareiss elimination, fraction-free, so every division is
    exact.  A zero pivot is replaced by swapping in a lower row; ``m`` is
    overwritten.
    """
    n = len(m)
    if n <= 2:
        if n == 2:
            (a, b), (c, d) = m
            return a * d - b * c
        return m[0][0] if n else 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


class _Reduced:
    """Aitken's matrix of one outer shape, reduced against its empty-inner
    columns.

    ``ell`` rows in the orientation with fewer rows (``transposed`` says
    whether that is the conjugate), ``scale`` = prod a_i!, ``det`` = D =
    det P0 and ``adj`` = adj P0 = D P0^-1.  ``columns`` holds the reduced
    columns V[:, b] = adj P[:, b], formed the first time a count needs
    them.
    """

    __slots__ = ("transposed", "ell", "a", "scale", "det", "adj", "columns")

    def __init__(self, outer: Partition) -> None:
        self.transposed = bool(outer) and len(outer) > outer[0]
        if self.transposed:
            outer = transpose(outer)
        ell = self.ell = len(outer)
        self.a = [p - i + ell for i, p in enumerate(outer, 1)]
        self.scale = prod(map(factorial, self.a))
        # P0 takes the columns b = ell - 1, ..., 0 of an empty inner, so row
        # k of the reduced matrix has its pivot in column b = ell - 1 - k.
        # Its leading k x k minor is prod_{i<=k} a_i! / |top k rows|! times
        # the tableau count of the top k rows of outer, so no pivot is 0
        self.det, self.adj = _adjugate(
            [[perm(ai, b) for b in range(ell - 1, -1, -1)] for ai in self.a]
        )
        self.columns: dict[int, list[int]] = {}

    def column(self, b: int) -> list[int]:
        """The reduced column V[:, b], formed on first use."""
        col = self.columns.get(b)
        if col is None:
            col = self.columns[b] = _reduced_column(self, b)
        return col


def _adjugate(m: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det m, adj m) by fraction-free Gauss--Jordan elimination on [m | I].

    Every division is exact, and the left block ends as det(m) I.  The
    leading minors of ``m`` must be nonzero, so no row is swapped.
    """
    n = len(m)
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        row_k = rows[k]
        pivot = row_k[k]
        assert pivot, f"zero pivot {k} in the reduction of {m}"
        for i, row_i in enumerate(rows):
            if i != k:
                lead = row_i[k]
                rows[i] = [(x * pivot - lead * y) // prev for x, y in zip(row_i, row_k)]
        prev = pivot
    return prev, [row[n:] for row in rows]


def _reduced_column(rec: _Reduced, b: int) -> list[int]:
    """V[:, b] = adj P0 times column b of Aitken's row-scaled matrix."""
    col = [perm(ai, b) for ai in rec.a]
    return [sum(map(mul, row, col)) for row in rec.adj]


# one record per outer shape asked for
_reduced = cache(_Reduced)


def _frobenius(nu: Partition) -> tuple[list[int], list[int]]:
    """Frobenius coordinates (alpha | beta) of ``nu``: alpha_j = nu_j - j
    and beta_j = nu'_j - j for j up to the Durfee rank."""
    alpha = []
    for j, p in enumerate(nu, 1):
        if p < j:
            break
        alpha.append(p - j)
    beta, height = [], len(nu)
    for j in range(1, len(alpha) + 1):
        while nu[height - 1] < j:
            height -= 1
        beta.append(height - j)
    return alpha, beta


# one entry per (outer, inner) pair asked for; the outer's reduction is
# shared through ``_reduced``, so a pair costs one minor of Durfee-rank size
@cache
def _skew_count(outer: Partition, inner: Partition) -> int:
    if not contains(outer, inner):
        return 0
    rec = _reduced(outer)
    alpha, beta = _frobenius(inner)
    if rec.transposed:
        alpha, beta = beta, alpha
    cols = [rec.column(rec.ell + a) for a in alpha]
    minor = [[col[b] for col in cols] for b in beta]
    # f = (-1)^sum(beta) N! det(minor) D / (prod a_i! D^d)
    num = factorial(outer.size - inner.size) * _det(minor) * rec.det
    if sum(beta) & 1:
        num = -num
    count, rem = divmod(num, rec.scale * rec.det ** len(alpha))
    assert rem == 0, f"Aitken determinant not integral for {outer} / {inner}"
    return count


def skew_syt_count(outer: Partition, inner: Partition) -> int:
    """Number of standard Young tableaux of skew shape outer \\ inner.

    0 when ``inner`` is not contained in ``outer``, 1 when they coincide.
    """
    if type(outer) is not Partition:
        outer = Partition(outer)
    if type(inner) is not Partition:
        inner = Partition(inner)
    return _skew_count(outer, inner)


def a_coeff(lam: Partition, h: int) -> int:
    """Tableaux of shape ``lam`` whose entries 1..h start the first h rows.

    Equals the skew count of ``lam`` minus a column of h boxes, and in
    particular vanishes for h > length of ``lam``.
    """
    if h < 0:
        raise ValueError(f"h must be nonnegative, got {h}")
    return skew_syt_count(lam, Partition([1] * h))
