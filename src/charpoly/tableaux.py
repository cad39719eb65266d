"""Counting standard Young tableaux of straight and skew shapes.

``dim_syt`` uses the hook length formula, taking the hook product as
one falling factorial per run of equal-height columns.

``skew_syt_count`` uses Aitken's determinant f(outer \\ inner) = N!
det[1 / (outer_i - inner_j - i + j)!] (Aitken 1943; Stanley, EC2 Cor.
7.16.3) in closed form.  With a_i = outer_i - i + ell, row i times a_i!
has entries P[i][b] = (a_i)_b, the falling factorial, at the columns
b = inner_j - j + ell.  An empty inner takes the columns b = ell - 1,
..., 0: a Vandermonde matrix in the falling-factorial basis, with
D = prod_(i<j) (a_i - a_j), so f^outer = |outer|! D / prod a_i!.  An
inner of Durfee rank d swaps d of those columns, the holes
ell - 1 - beta_i, for the columns ell + alpha_j, where (alpha | beta)
are its Frobenius coordinates.  Column b of P holds the values at the
a_i of (x)_b, which agree there with its remainder R_b modulo
Q(x) = prod (x - a_i); so the inverse of the empty-inner block maps it
to the coefficients of R_b, and

    f(outer \\ inner) = (-1)^(sum beta) f^outer det[R_(ell + alpha_j) at
                        (x)_(ell - 1 - beta_i)] / (|outer|)_|inner|,

the dimension formula f^outer s*_inner(outer) / (|outer|)_|inner| of
Okounkov and Olshanski (Shifted Schur functions, 1997): entry (i, j)
times (-1)^beta_i is the shifted Schur function of the hook
(alpha_j | beta_i) at outer, so the signed minor is their Giambelli
formula for s*.  No matrix is inverted.

The hook table.  Each outer is taken once, in the orientation with fewer
rows: Q is built in the falling-factorial basis from
(x)_k (x - a) = (x)_(k+1) + (k - a) (x)_k, R_ell = (x)_ell - Q, and
R_(b+1) is (x - b) R_b less its top coefficient times Q, all in
integers because Q is monic.  Column j of the table is R_(ell + j) read
from the top, so the hook (x | y) sits at column x, row y; a column is
formed the first time a count reads it.  ``_Record.term`` is the one
reader, and the r-primary inners of the character polynomials have
Durfee rank <= 2, so it takes their minors in closed form.

Two global memos hold the work, both per shape: one record per outer
shape (Q, f^outer, the remainders and the coefficient vectors that
``stability.char_poly`` reads off them) and one set of Frobenius
coordinates per inner.  A skew count is one ``term`` read off the
record, so no count is memoized per (outer, inner) pair; ``verify``'s
oracles keep their own memo of pair counts in ``verification``.

``_beta_dim`` counts f^lam from a beta-set by the beta-number formula
(James--Kerber 1981, 2.7), with the long top row of a stable shape
(n - k, lam) as one short falling factorial; it gives f^outer to each
record and is the one writer of Murnaghan--Nakayama's memo of
dimensions in ``characters``, from which its bead ratio starts.
``dim_syt`` stays the hook-run formula, a second route to the same
numbers, and the one the oracles count f with.
"""

from __future__ import annotations

from functools import cache
from math import factorial, perm, prod

from .partitions import Partition, _beads, _beta, contains, transpose


# check-only (the second route to _beta_dim); kept here because perfbench/checks.py imports it
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


def _beta_dim(mask: int) -> int:
    """f^lam, the number of standard tableaux of shape lam, from the
    beta-set ``mask`` of lam (one bit per bead, as ``partitions._beta``
    writes it; beads of zero parts are allowed).

    Over the beads b_1 > ... > b_ell of the nonzero parts this is the
    beta-number formula f = n! prod_(i<j) (b_i - b_j) / prod b_i!, read
    in the orientation with fewer beads: the conjugate's beads are the
    gaps below the top bead, reflected.  The top row is one short falling
    factorial, n! / b_1! = (n)_(n - b_1), times its differences
    prod_(j>1) (b_1 - b_j); every other row divides by its hook product
    b_i! / prod_(j>i) (b_i - b_j), in which the beads of its own run,
    b_i - 1 down to lo, cancel b_i! to the falling factorial (b_i)_lo.
    So the cost follows the shorter side of lam, not n.
    """
    mask >>= (~mask & mask + 1).bit_length() - 1  # the beads of zero parts
    if not mask:
        return 1
    top = mask.bit_length() - 1
    if 2 * mask.bit_count() > top + 1:
        # more beads than gaps below the top one: the gaps g, as top - g
        mask = int(format(mask ^ (1 << top + 1) - 1, f"0{top + 1}b")[::-1], 2)
    rows = _beads(mask)[:0:-1]  # the beads below the top one, ascending
    n = top + sum(rows) - len(rows) * (len(rows) + 1) // 2
    hooks, start = 1, 0
    for i, b in enumerate(rows):
        if i and b != rows[i - 1] + 1:
            start = i  # rows[start] is the lowest bead of b's run
        hooks *= perm(b, rows[start]) // prod(map(b.__sub__, rows[:start]))
    dim, rem = divmod(perm(n, n - top) * prod(map(top.__sub__, rows)), hooks)
    assert rem == 0, f"hook product does not divide {n}!"
    return dim


def _det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination,
    fraction-free, so every division is exact: the minors of rank 3 and up
    of ``_Record.term``, which takes smaller ones in closed form.  A zero
    pivot is replaced by swapping in a lower row; ``m`` is overwritten.
    """
    n = len(m)
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
    return sign * m[n - 1][n - 1] if n else 1


class _Record:
    """One outer shape in closed form: Q, f^outer and the hook table.

    ``ell`` rows in the orientation with fewer rows (``transposed`` says
    whether that is the conjugate) and ``size`` boxes.  ``q`` holds the
    coefficients of Q below its leading (x)_ell and ``dim`` is f^outer.
    ``columns[j]`` holds R_(ell + j).  Both are read from the top: entry
    k is the coefficient of (x)_(ell - 1 - k).  Only ``extend`` and
    ``term`` touch ``columns``.  ``vectors`` holds the finished
    coefficient vectors of ``stability.char_poly``, keyed by r.
    """

    __slots__ = ("transposed", "size", "ell", "q", "dim", "columns", "vectors")

    def __init__(self, outer: Partition) -> None:
        self.transposed = bool(outer) and len(outer) > outer[0]
        if self.transposed:
            outer = transpose(outer)
        self.size = outer.size
        ell = self.ell = len(outer)
        self.q = _node_polynomial([p - i + ell for i, p in enumerate(outer, 1)])
        # f^outer = |outer|! D / prod a_i!, the empty inner's count, from the a_i
        self.dim = _beta_dim(_beta(outer, ell))
        self.columns: list[list[int]] = []
        self.vectors: dict[int, tuple[int, ...]] = {}

    def term(self, alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
        """s*_inner(outer) = (-1)^(sum beta) det[R_(ell + alpha_j) at
        (x)_(ell - 1 - beta_i)], for an inner (alpha | beta) that fits, in
        the outer's own orientation.  On a record of the conjugate alpha and
        beta are swapped first, and the sign is read from the swapped beta.
        The hook (x | y) is the entry at column x, row y; rank 2 is the
        closed 2 x 2 minor, and only rank 3 and up goes to ``_det``."""
        if self.transposed:
            alpha, beta = beta, alpha
        if not alpha:
            return 1
        columns = self.columns
        if alpha[0] >= len(columns):
            self.extend(alpha[0])
        if len(alpha) == 1:
            det = columns[alpha[0]][beta[0]]
        elif len(alpha) == 2:
            (x, s), (y, t) = alpha, beta
            det = columns[x][y] * columns[s][t] - columns[s][y] * columns[x][t]
        else:
            det = _det([[columns[a][b] for a in alpha] for b in beta])
        return -det if sum(beta) & 1 else det

    def extend(self, top: int) -> None:
        """Append the columns R_(ell + j) for j up to ``top``."""
        columns, ell = self.columns, self.ell
        # R_(ell - 1) = (x)_(ell - 1): below ell the remainder is the power
        col = columns[-1] if columns else [1] + [0] * (ell - 1)
        for b in range(ell - 1 + len(columns), ell + top):
            col = _column_step(self.q, col, b)
            columns.append(col)


def _node_polynomial(a: list[int]) -> list[int]:
    """Q(x) = prod (x - a_i) in the falling-factorial basis, from the top
    and without its leading 1: entry k is the coefficient of
    (x)_(len(a) - 1 - k).  Built one factor at a time by
    (x)_k (x - a) = (x)_(k+1) + (k - a) (x)_k."""
    q = [1]  # from the bottom while it is built: q[k] is the coefficient of (x)_k
    for a_i in a:
        q = [lo + (k - a_i) * hi for k, (lo, hi) in enumerate(zip([0, *q], [*q, 0]))]
    return q[-2::-1]


def _column_step(q: list[int], col: list[int], b: int) -> list[int]:
    """R_(b+1) from R_b, b >= len(q) - 1: (x - b) R_b less its top
    coefficient times the monic Q, so every step stays in integers."""
    top, n = col[0], len(col)
    return [
        below + (n - 1 - k - b) * c - top * qk
        for k, (c, below, qk) in enumerate(zip(col, [*col[1:], 0], q))
    ]


# one record per outer shape asked for
_record = cache(_Record)


@cache
def _frobenius(nu: Partition) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The Frobenius coordinates (alpha | beta) of ``nu`` and |nu|, where
    alpha_j = nu_j - j and beta_j = nu'_j - j for j up to the Durfee
    rank."""
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
    return tuple(alpha), tuple(beta), nu.size


def skew_syt_count(outer: Partition, inner: Partition) -> int:
    """Number of standard Young tableaux of skew shape outer \\ inner.

    0 when ``inner`` is not contained in ``outer``, 1 when they coincide.
    """
    if type(outer) is not Partition:
        outer = Partition(outer)
    if type(inner) is not Partition:
        inner = Partition(inner)
    if not contains(outer, inner):
        return 0
    rec = _record(outer)
    alpha, beta, size = _frobenius(inner)
    # f = f^outer s*_inner(outer) / (|outer|)_|inner|
    count, rem = divmod(rec.dim * rec.term(alpha, beta), perm(rec.size, size))
    assert rem == 0, f"Aitken determinant not integral for {outer} / {inner}"
    return count

