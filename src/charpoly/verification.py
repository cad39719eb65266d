"""Verification suites: every library invariant, swept at desk scale.

Each suite checks one identity over a bounded family of inputs; it
counts every check and describes a failing one where it fails.  The two
"band" suites probe windows where the stable-range formulas are claimed
but not relied upon; they report disagreements without failing a run.
A suite is declared once, as a function ``check_<name>(bounds, res)``
under ``@_suite`` (``@_suite(report_only=True)`` for a band): the
decorator names it, builds and times its result and appends it to
``SUITES``, so the report lists the suites in the order of this file,
with the bands at its end.

The oracles here recompute from definitions, independent of the
library's formulas, and exist only for cross-checking: tableau
enumeration memoized on the filled cells, counted upward from the inner
in one memo per inner shape that the outers around it share, for skew
counts; border strips as connected skew shapes lam / mu with no 2x2
block, read row by row with no beta-sets; and, for characters and the
stable-range polynomials, Murnaghan--Nakayama peeling every fixed point,
the Frobenius and vertical-strip evaluators (the latter as one
polynomial in n per support, built for all supports of one lam in one
pass), interpolation of Murnaghan--Nakayama values and the peel-order
and orthogonality laws.  None of them reads MN's memo of dimensions or
its bead ratio: the vertical-strip polynomial counts each f by the hook
formula, and the ascending peel ends on the empty shape, whose f is 1.
Frobenius's residue formula at one r-cycle (``character_residue``), in
integer power series with f from the hook formula, is a third route for
the paper's case that the tier-1 tests hold against Murnaghan--Nakayama;
no suite runs it yet.

Three suites hold the kernel's vectors against ``coeff_b``, the
definition summed over ``r_primary``: ``limit_stabilization`` checks
every b[h] at r > h against the dimension row ``stability.a_vector``
(``char_poly`` at r = lam_1 + len(lam), the library's one route to the
dimension coefficients a_h), ``transpose_small_h`` checks b[h] at r = 2
for h <= 3 against the conjugate's row, and ``constant_coeff_routes``
checks the constant term b[k] of ``char_poly`` against the r-sign and
the vertical strips.  The column removal difference stays an identity
of skew counts, a_(h-1) - a_h = f(lam / (2, 1^(h-2))), each column
count read from ``skew_syt_count``.

The second derivations and helpers that only the suites use live here
too, each next to its suite, each one plain function of its inputs: the
coefficient b[h] by its definition, summed over the memoized r-primaries
through the pair memo of skew counts, the partitions of n and those
inside a shape, a shape less each of its corners and plus each cell that
grows it (branching rules, both at the outer shape and at the inner one
for skew counts), hook lengths with each leg counted from the rows
below, the strip step decoded into hooks, centralizer orders,
interpolation and reshifting, the constant term from the r-signs and
from vertical strips, the four transposition closed forms and the
two-sided split of the transposition coefficients.

The sweeps build their inputs once, not once per check, and keep each
only as long as a later check reads it again: the partitions of each
size and the down-set of each outer shape (the partitions inside it, as
the same objects) once per process, the cycle supports once per sweep, a
cycle type with its fixed points once per (support, n), the recpart
polynomials of all supports in one batch per lam for both recpart suites
and the stable shape (n - k, lam) once per (lam, n).  The backtracking
sweep takes its pairs inner by inner, so that the oracle's one memo
serves every outer of an inner, and checks them outer by outer.  The
skew recursion reads each count once, straight from the library, keeps
the counts of two sizes of outer shape, one dict per outer keyed by its
down-set, and the cells that grow an inner as one list per inner, and
checks all inners of one outer in one bulk pass, as the containment
sweep does; the coefficient recurrence reads each b[h] from one dict per
shape of the previous size; and the peel-order sweep builds each size's
cycle types once and peels each shared prefix of their increasing cycles
once per shape.  The containment sweep asks ``contains`` once per pair
of shapes, keeping one ``bytes`` row per outer: the check at (lam, nu)
compares it with contains(lam', nu'), which it reads off the row of lam'
through the transpose permutation.  The suites that ask for a skew pair
again (``coeff_b``, the counts of ``_count_if_fits``, the backtracking
sweep and the dimension sweep) read it from one memo per (outer, inner)
pair, ``_skew_count``, kept here: the library counts a pair with one
read off its outer's hook table and memoizes no pair.  Likewise the
r-primaries of one (r, h), which ``coeff_b``, the size law and the
constant term ask for again, come from one memo per (r, h),
``_r_primary``: ``stability.r_primary`` writes the three families out
afresh on each call, and ``char_poly`` walks only the primaries that fit
with loops of its own, so the kernel and this oracle share no
enumeration.
"""

from __future__ import annotations

import random
import time
from functools import cache, lru_cache, wraps
from itertools import compress, repeat
from math import comb, factorial, perm, prod
from operator import eq, gt, itemgetter, not_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .binom_poly import BinomPoly, eval_poly
from .characters import (
    CycleType,
    _mn,
    _peel,
    character_frobenius_transposition,
    character_mn,
    recpart_polys,
)
from .partitions import Partition, _beta, _known_valid, _shape, _strips, contains, transpose
from .tableaux import dim_syt, skew_syt_count
from . import stability


class Bounds(NamedTuple):
    """Sweep bounds; the defaults reproduce the full acceptance sweep."""

    max_k: int = 8
    max_r: int = 6
    n_window: int = 7


class SuiteResult:
    """Outcome of one suite: ``checks`` counts its checks,
    ``disagreements`` the failing ones, ``failures`` describes the first
    few of those and ``seconds`` is the time the suite took.

    A suite is one decorated function, named ``check_<name>``, that
    counts each check and describes a failing one on the spot::

        @_suite
        def check_dim_positive(bounds: Bounds, res: SuiteResult) -> None:
            for lam in _shapes_upto(bounds.max_k):
                if not res.check(dim_syt(lam) > 0):
                    res.fail(f"lam={list(lam)}: dim {dim_syt(lam)}")
    """

    _MAX_RECORDED = 3

    def __init__(self, name: str, *, report_only: bool = False):
        self.name = name
        self.checks = 0
        self.failures: list[str] = []
        self.report_only = report_only
        self.disagreements = 0
        self.seconds = 0.0

    @property
    def ok(self) -> bool:
        """False only for an asserted suite with a failing check."""
        return self.report_only or not self.disagreements

    def check(self, ok: bool) -> bool:
        """Count one check, and one disagreement unless ``ok``; return ``ok``."""
        self.checks += 1
        if not ok:
            self.disagreements += 1
        return ok

    def fail(self, message: str) -> None:
        """Describe a failing check; only the first few are kept."""
        if len(self.failures) < self._MAX_RECORDED:
            self.failures.append(message)

    def check_each(self, oks: Iterable[bool]) -> list[int]:
        """``check`` on each of ``oks`` in turn; return the failing indices."""
        oks = list(oks)
        self.checks += len(oks)
        failed = list(compress(range(len(oks)), map(not_, oks)))
        self.disagreements += len(failed)
        return failed


# (name, suite) in report order, filled by ``_suite`` in the order of the file
SUITES: list[tuple[str, Callable[[Bounds], SuiteResult]]] = []


def _suite(body=None, *, report_only: bool = False):
    """Register ``check_<name>`` as the suite ``<name>``, as ``@_suite`` or
    ``@_suite(report_only=True)``.

    The body takes ``(bounds, res)`` and fills ``res``; the registered
    function takes ``bounds``, builds the result, runs the body and
    returns the result with the time it took.  It keeps the body's
    ``__name__``, ``__qualname__`` and ``__module__``, by which a caller
    can map a suite to its function."""

    def register(body: Callable[[Bounds, SuiteResult], None]) -> Callable[[Bounds], SuiteResult]:
        name = body.__name__.removeprefix("check_")

        @wraps(body)
        def run(bounds: Bounds) -> SuiteResult:
            res = SuiteResult(name, report_only=report_only)
            started = time.perf_counter()
            body(bounds, res)
            res.seconds = time.perf_counter() - started
            return res

        SUITES.append((name, run))
        return run

    return register if body is None else register(body)


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


# the sweeps list sizes up to max(max_k + 4, max_r), at most 18 at the CLI's caps
@cache
def _partitions(n: int) -> dict[Partition, Partition]:
    """The partitions of ``n`` in the order of ``partitions_of``, listed
    once per process, each keyed by itself: a sweep finds there the one
    object it keeps for a shape it has built afresh."""
    return {p: p for p in partitions_of(n)}


def _shapes_upto(size: int) -> Iterator[Partition]:
    for k in range(size + 1):
        yield from _partitions(k)


def _cycle_supports(max_size: int) -> list[Partition]:
    """Cycle types with no fixed points, of size at most ``max_size``."""
    out = [Partition()]
    for m in range(2, max_size + 1):
        out.extend(p for p in _partitions(m) if p[-1] >= 2)
    return out


# ---------------------------------------------------------------------------
# independent oracles


def syt_count_backtracking(outer: Partition, inner: Partition) -> int:
    """Count skew standard tableaux by filling cells 1..m directly.

    The cells of ``inner`` start filled.  A value may be placed in a cell
    of ``outer`` once its left and upper neighbours are filled.  The count
    is taken upward from the inner: the number of ways to reach a set of
    filled cells from the inner's depends only on that set, so it is
    memoized on it, in one memo per inner shape that every outer around
    that shape shares.  This counts the linear extensions of the cell
    poset over its down-sets, with no reference to the Young-lattice
    recursion, Aitken's determinant, the hook formula or corner removal.
    """
    if type(outer) is not Partition:
        outer = Partition(outer)
    if type(inner) is not Partition:
        inner = Partition(inner)
    if not contains(outer, inner):
        return 0
    start, memo = _fillings(inner)
    cells = frozenset(_cells(outer))
    count = memo.get(cells)
    return _fill(start, memo, cells) if count is None else count


# the cell (i, j) as the int i << 32 | j: a set of ints hashes faster than
# one of tuples, and the right and lower neighbours are c + 1 and c + 2^32
def _cells(lam: Partition) -> list[int]:
    return [i << 32 | j for i, p in enumerate(lam, 1) for j in range(1, p + 1)]


# the last inner only: the sweeps ask for the outers of one inner in a row
@lru_cache(maxsize=1)
def _fillings(inner: Partition) -> tuple[frozenset, dict[frozenset, int]]:
    """The cells of ``inner`` and the memo of ``_fill`` from them, keyed by
    the set of filled cells (at most one entry per partition between
    ``inner`` and the outers asked), which starts as the one way to reach
    the inner's own cells.  A plain dict, not a memoized closure, which
    would refer to itself: evicted, it is freed at once, not by the
    collector."""
    start = frozenset(_cells(inner))
    return start, {start: 1}


def _fill(start: frozenset, memo: dict[frozenset, int], filled: frozenset) -> int:
    """The number of ways to reach ``filled``, a down-set of the cell
    poset not yet in ``memo``, from its subset ``start``: the last value
    sits in a cell of ``filled`` outside ``start`` that holds neither its
    right nor its lower neighbour."""
    count = 0
    for c in filled:
        if c in start or c + 1 in filled or c + (1 << 32) in filled:
            continue
        rest = filled - {c}
        known = memo.get(rest)
        count += _fill(start, memo, rest) if known is None else known
    memo[filled] = count
    return count


def subpartitions(lam: Partition) -> Iterator[Partition]:
    """Generate every partition contained in ``lam``, each one before its
    extensions by a further row and smaller last parts first, from the
    empty partition on.

    Iterative, an odometer over the rows: no recursion, so no depth
    limit however many rows ``lam`` has.
    """
    rows = len(lam)
    parts: list[int] = []
    while True:
        yield _known_valid(parts)
        if len(parts) < rows:
            parts.append(1)
            continue
        # advance the lowest row that can still grow (it is capped by lam
        # and by the row above it) and drop the rows below it
        while parts:
            i = len(parts) - 1
            p = parts[i] + 1
            if p <= lam[i] and (i == 0 or p <= parts[i - 1]):
                parts[i] = p
                break
            parts.pop()
        else:
            return


def border_strips_bruteforce(lam: Partition) -> dict[int, set[tuple]]:
    """All border strips of ``lam`` from the definition, grouped by size.

    A border strip is lam / mu for a partition mu contained in ``lam``
    whose skew shape is non-empty, edge-connected and holds no 2x2 block.
    Walks every mu once and reads lam / mu by rows: row i is the run of
    columns mu_i + 1 .. lam_i.  Two non-empty rows i, i + 1 share the
    columns mu_i + 1 .. lam_{i+1}, so they touch along an edge iff
    lam_{i+1} >= mu_i + 1 and form a 2x2 block iff lam_{i+1} >= mu_i + 2;
    an empty row between non-empty ones cuts the shape.  So lam / mu is a
    border strip iff, from its first non-empty row to its last, each row
    meets the next in exactly one column, lam_{i+1} = mu_i + 1: that rule
    makes row i + 1 non-empty too (mu_{i+1} <= mu_i < lam_{i+1}), so the
    non-empty rows are consecutive with no separate test.  Returns
    {r: {(leg length, mu)}} with a (possibly empty) set for each r in
    1..|lam|, the leg length being the number of rows the strip spans,
    minus one.
    """
    lam = Partition(lam)
    found: dict[int, set[tuple]] = {r: set() for r in range(1, lam.size + 1)}
    size, last = lam.size, len(lam) - 1
    for mu in subpartitions(lam):
        # top: the first row where mu_i < lam_i, none if mu is lam
        m, top = len(mu), 0
        while top < m and mu[top] == lam[top]:
            top += 1
        if top > last:
            continue
        # bottom: the last such row, lam's last when mu is shorter
        bottom = last
        if m > last:
            while mu[bottom] == lam[bottom]:
                bottom -= 1
        # lam_{i+1} = mu_i + 1 for top <= i < bottom, mu_i = 0 past mu
        i = top
        while i < bottom and lam[i + 1] == (mu[i] if i < m else 0) + 1:
            i += 1
        if i == bottom:
            found[size - mu.size].add((bottom - top, mu))
    return found


# the sweeps that walk every inner of each outer up to max_k + 4: 8,855 inners
# in all at the default bounds, 175,652 at the CLI's caps
@cache
def _down_set(lam: Partition) -> tuple[Partition, ...]:
    """The partitions inside ``lam`` in the order of ``subpartitions``,
    ``lam`` last, each the object ``_partitions`` holds for its shape;
    listed once per process."""
    return tuple(_partitions(sum(nu))[nu] for nu in subpartitions(lam))


# ---------------------------------------------------------------------------
# partition-level suites


def _shrunk(lam: Partition) -> list[Partition]:
    """lam less one cell, at each internal corner by increasing row."""
    return [
        Partition(lam[:i] + (p - 1,) + lam[i + 1 :])
        for i, p in enumerate(lam)
        if p > (lam[i + 1] if i + 1 < len(lam) else 0)
    ]


def hook_lengths(lam: Partition) -> list[int]:
    """Hook length of every cell, row by row: arm + leg + 1, the leg
    counted from the rows of ``lam`` below the cell."""
    return [
        p - j + sum(q >= j for q in lam[i:]) for i, p in enumerate(lam) for j in range(1, p + 1)
    ]


@_suite
def check_partition_corner_count(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(bounds.max_k + 4):
        if not lam:
            continue
        if not res.check(len(_shrunk(lam)) == len(set(lam))):
            res.fail(f"lam={list(lam)}: corners != distinct part values")


@_suite
def check_partition_contains_transpose(bounds: Bounds, res: SuiteResult) -> None:
    nus = list(_shapes_upto(bounds.max_k + 4))
    nus_t = list(map(transpose, nus))
    for lam, lam_t in zip(nus, nus_t):
        if not res.check(transpose(lam_t) == lam):
            res.fail(f"lam={list(lam)}: transpose not an involution")
    # the check at (lam, nu) reads contains(lam', nu'), which the check at
    # (lam', nu') reads too: ask contains once per pair of indexed shapes,
    # the listed ones first, then each transpose off the list, one bytes
    # row per outer, and read each second value through the transpose
    at: dict[Partition, int] = {}
    for nu in nus + nus_t:
        at.setdefault(nu, len(at))
    rows = [bytes(map(contains, repeat(lam), at)) for lam in at]
    cols = [at[nu_t] for nu_t in nus_t]
    # itemgetter of one index returns the item itself, not a 1-tuple
    flip = itemgetter(*cols) if len(cols) > 1 else lambda row: [row[j] for j in cols]
    # one row of checks per outer, each row in one bulk pass
    for lam, row, col in zip(nus, rows, cols):
        for j in res.check_each(map(eq, row, flip(rows[col]))):
            res.fail(f"lam={list(lam)} nu={list(nus[j])}: containment not transpose-invariant")


class SkewHook(NamedTuple):
    """A border strip as Murnaghan--Nakayama reads it: its leg length (the
    number of rows it spans, minus one) and the partition it leaves."""

    leg_length: int
    complement: Partition


def skew_hooks(lam: Partition, r: int) -> list[SkewHook]:
    """All border strips of ``lam`` with exactly ``r`` cells by increasing
    top row: the strips of its beta-set (James--Kerber 1981, 2.7), decoded.
    For r = 1 these are the internal corners with leg length 0.
    """
    if r < 1:
        raise ValueError(f"hook size must be positive, got {r}")
    if type(lam) is not Partition:
        lam = Partition(lam)
    return [SkewHook(leg, _shape(rest)) for leg, rest in _strips(_beta(lam, len(lam)), r)]


@_suite
def check_skew_hook_bruteforce(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(bounds.max_k + 4):
        strips = border_strips_bruteforce(lam)
        for r in range(1, lam.size + 1):
            hooks = skew_hooks(lam, r)
            for hook in hooks:
                comp = hook.complement
                rows = sum(map(gt, lam, comp)) + len(lam) - len(comp)
                if not res.check(
                    comp.size == lam.size - r
                    and contains(lam, comp)
                    and hook.leg_length == rows - 1
                ):
                    res.fail(f"lam={list(lam)} r={r}: malformed hook {hook}")
            if not res.check(set(hooks) == strips[r]):
                res.fail(f"lam={list(lam)} r={r}: hook set differs from brute force")


@_suite
def check_hook_product_divides_factorial(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(bounds.max_k + 4):
        if not res.check(dim_syt(lam) * prod(hook_lengths(lam)) == factorial(lam.size)):
            res.fail(f"lam={list(lam)}: dim times hook product != size!")


# ---------------------------------------------------------------------------
# tableau-level suites


@_suite
def check_syt_branching(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(bounds.max_k + 4):
        if not lam:
            continue
        total = sum(map(dim_syt, _shrunk(lam)))
        if not res.check(dim_syt(lam) == total):
            res.fail(f"lam={list(lam)}: dim {dim_syt(lam)} != corner sum {total}")


def _grown(nu: Partition) -> list[Partition]:
    """nu with one cell added, at each row where that leaves a partition,
    each the object ``_partitions`` holds for its shape."""
    shapes = _partitions(sum(nu) + 1)
    return [
        shapes[_known_valid(nu[:i] + (p + 1,) + nu[i + 1 :])]
        for i, p in enumerate((*nu, 0))
        if i == 0 or nu[i - 1] > p
    ]


# the memo of skew counts per (outer, inner) pair for the suites that ask
# a pair again: ``coeff_b``, ``_count_if_fits``, the backtracking sweep and
# the dimension sweep (1,298 pairs at the default bounds); the skew
# recursion reads each of its pairs once and keeps none.  Every caller
# tests containment first, so no entry is a zero, and ``skew_syt_count``
# is looked up when a count is made, so a patched one takes effect once
# the memo is cleared
@cache
def _skew_count(outer: Partition, inner: Partition) -> int:
    return skew_syt_count(outer, inner)


def _count_if_fits(outer: Partition, inner: Partition) -> int:
    """f(outer / inner) through the pair memo, 0 when ``inner`` does not fit."""
    return _skew_count(outer, inner) if contains(outer, inner) else 0


@_suite
def check_skew_recursion(bounds: Bounds, res: SuiteResult) -> None:
    """Both branching rules of f(lam / nu), each count read once from
    ``skew_syt_count``: the largest entry sits in a corner of lam (sum
    over lam minus a corner) and the smallest in a cell that grows nu
    inside lam (sum over nu plus that cell).  The second compares inners
    of different Durfee ranks, which the first never does.  Only the
    counts of two sizes of outer are kept, one dict per outer keyed by
    its down-set, and each outer's inners are checked in one bulk pass."""
    growths = {nu: _grown(nu) for nu in _shapes_upto(bounds.max_k + 3)}
    below: dict[Partition, dict[Partition, int]] = {}
    for k in range(bounds.max_k + 5):
        level = {}
        for lam in _partitions(k):
            down = _down_set(lam)
            counts = level[lam] = dict(zip(down, map(skew_syt_count, repeat(lam), down)))
            if not lam:
                continue
            inners = down[:-1]  # lam itself is last
            smaller = [map(below[m].get, inners, repeat(0)) for m in _shrunk(lam)]
            by_outer = list(map(sum, zip(*smaller)))
            by_inner = [sum(map(counts.get, growths[nu], repeat(0))) for nu in inners]
            oks = [counts[nu] == o == i for nu, o, i in zip(inners, by_outer, by_inner)]
            for j in res.check_each(oks):
                nu = inners[j]
                res.fail(
                    f"lam={list(lam)} nu={list(nu)}: count {counts[nu]}, "
                    f"corner sum {by_outer[j]}, growth sum {by_inner[j]}"
                )
        below = level


@_suite
def check_column_removal_difference(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(bounds.max_k + 2):
        for h in range(2, lam.length + 1):
            # a_(h-1) - a_h, as the counts of lam less a column of h - 1 and h boxes
            short, tall = (skew_syt_count(lam, Partition([1] * j)) for j in (h - 1, h))
            lhs = short - tall
            rhs = _count_if_fits(lam, Partition([2] + [1] * (h - 2)))
            if not res.check(lhs == rhs):
                res.fail(f"lam={list(lam)} h={h}: {lhs} != {rhs}")


@_suite
def check_skew_count_vs_backtracking(bounds: Bounds, res: SuiteResult) -> None:
    """Every pair is checked, and described, outer by outer; the oracle
    keeps the memo of its last inner only, so the pairs are compared inner
    by inner first, into one flag per pair."""
    pairs = [(outer, inner) for outer in _shapes_upto(bounds.max_k) for inner in _down_set(outer)]
    oks = [False] * len(pairs)
    for i in sorted(range(len(pairs)), key=lambda i: pairs[i][1]):
        outer, inner = pairs[i]
        oks[i] = _skew_count(outer, inner) == syt_count_backtracking(outer, inner)
    for i in res.check_each(oks):
        outer, inner = pairs[i]
        res.fail(f"outer={list(outer)} inner={list(inner)}: counts differ")


@_suite
def check_dim_equals_skew_over_empty(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(bounds.max_k + 4):
        if not res.check(dim_syt(lam) == _skew_count(lam, Partition())):
            res.fail(f"lam={list(lam)}: hook formula != skew count")


# ---------------------------------------------------------------------------
# character-level suites


# each sweep meets the same (support, n) once per shape: about 300 pairs in
# all at the default bounds, at most 2,803 in one sweep at the CLI's caps
@lru_cache(maxsize=4096)
def _with_fixed_points(support: tuple[int, ...], n: int) -> CycleType:
    """The cycle type of the cycles ``support`` plus n - |support| fixed points."""
    return CycleType._make((support, n - sum(support)))


@_suite
def check_mn_identity_is_dimension(bounds: Bounds, res: SuiteResult) -> None:
    """MN at the identity, peeled and read off, against the backtracking
    count over the empty inner, whose one memo serves every shape."""
    for mu in _shapes_upto(bounds.max_k + 2):
        # MN's strip step at every 1-cycle, down to the empty shape
        peeled = _mn(mu, (1,) * mu.size)
        got = character_mn(mu, CycleType([1] * mu.size))
        want = syt_count_backtracking(mu, Partition())
        if not res.check(peeled == got == want):
            res.fail(
                f"mu={list(mu)}: MN peel {peeled}, MN at identity {got}, tableaux {want} differ"
            )
    # that memo now holds every shape asked (915 at --max-k 14, 1.4 MB) and
    # no later suite reads it
    _fillings.cache_clear()


@_suite
def check_frobenius_vs_mn(bounds: Bounds, res: SuiteResult) -> None:
    for n in range(2, bounds.max_k + 3):
        ct = CycleType([2] + [1] * (n - 2))
        for mu in _partitions(n):
            frob = character_frobenius_transposition(mu)
            mn = character_mn(mu, ct)
            if not res.check(frob == mn):
                res.fail(f"mu={list(mu)}: frobenius {frob} != mn {mn}")


def character_residue(mu: Partition, r: int) -> int:
    """Character of shape ``mu`` at one r-cycle plus |mu| - r fixed
    points, by Frobenius's residue formula (Frobenius 1900; Ivanov and
    Olshanski 2002): with phi(u) = prod_i (u + i) / (u - mu_i + i),

        (n)_r chi / f^mu = -(1/r) [u^-1] (u)_r phi(u) / phi(u - r).

    In t = 1/u, (u)_r phi(u) / phi(u - r) = u^r S(t), with S a product of
    factors 1 + c t and their inverses, so its [u^-1] is the coefficient
    of t^(r + 1) in S.  S is kept in integers, truncated past t^(r + 1),
    one factor at a time, and one exact division ends it.  f^mu comes
    from the hook formula; there are no beta-sets, strips or bead ratios.
    """
    n = mu.size
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= |mu| = {n}, got r = {r}")
    series = [1] + [0] * (r + 1)
    ups = [-j for j in range(r)]
    downs = []
    for i, p in enumerate(mu, 1):
        ups += [i, i - r - p]
        downs += [i - p, i - r]
    for c in ups:  # times 1 + c t
        for k in range(r + 1, 0, -1):
            series[k] += c * series[k - 1]
    for c in downs:  # over 1 + c t
        for k in range(1, r + 2):
            series[k] -= c * series[k - 1]
    value, rem = divmod(-dim_syt(mu) * series[r + 1], r * perm(n, r))
    assert rem == 0, f"residue not divisible for mu={list(mu)} r={r}"
    return value


# both recpart suites ask for the polynomials of every support of each lam:
# 19 batches of 209 polynomials in all at the default bounds.
# ``recpart_polys`` is looked up when a batch is made, so a patched one
# takes effect once the memo is cleared
@cache
def _recpart(lam: Partition, supports: tuple[Partition, ...]) -> dict[Partition, BinomPoly]:
    return recpart_polys(lam, supports)


def _recpart_cases(res: SuiteResult, bounds: Bounds, lo: int, hi: int) -> None:
    """Check recpart against MN into ``res`` at every n from
    max(k + lam_1 + lo, |support|) up to k + lam_1 + hi; the recpart
    polynomials of all supports are built in one batch per lam for both
    suites and the shape (n - k, lam) once per (lam, n)."""
    supports = tuple(_cycle_supports(bounds.max_r))
    for k in range(max(0, bounds.max_k - 3) + 1):
        for lam in _partitions(k):
            base = k + (lam[0] if lam else 0)
            shapes = {n: Partition([n - k] + list(lam)) for n in range(base + lo, base + hi)}
            polys = _recpart(lam, supports)
            for sup in supports:
                poly = polys[sup]
                for n in range(max(base + lo, sup.size), base + hi):
                    ct = _with_fixed_points(sup, n)
                    got = eval_poly(poly, n)
                    want = character_mn(shapes[n], ct)
                    if not res.check(got == want):
                        res.fail(
                            f"lam={list(lam)} support={list(sup)} n={n}: recpart {got} != mn {want}"
                        )


@_suite
def check_recpart_vs_mn(bounds: Bounds, res: SuiteResult) -> None:
    _recpart_cases(res, bounds, 6, 10)


def _ascending_walk(cts: Iterable[Partition]) -> list[tuple[int, int, tuple[int, ...]]]:
    """The cycle types ``cts`` as one walk over their cycles in increasing
    order: for each, its index in ``cts``, the length of the prefix it
    shares with the one before it in the walk and the cycles past that
    prefix.  The walk takes the increasing sequences in sorted order, so
    neighbours share the longest prefixes."""
    walk: list[tuple[int, int, tuple[int, ...]]] = []
    prev: tuple[int, ...] = ()
    for seq, i in sorted((ct[::-1], i) for i, ct in enumerate(cts)):
        shared = 0
        while shared < min(len(prev), len(seq)) and prev[shared] == seq[shared]:
            shared += 1
        walk.append((i, shared, seq[shared:]))
        prev = seq
    return walk


def _mn_ascending(mu: Partition, walk: list[tuple[int, int, tuple[int, ...]]]) -> list[int]:
    """``_mn(mu, reversed(ct))`` for each cycle type ct of ``walk``, by
    index: every cycle is peeled, the 1s first, with the same peel step,
    and a stack of layers keeps each shared prefix peeled once.  The
    cycles fill mu, so the last layer holds only the empty shape, whose
    coefficient is the value: no dimension is read."""
    values = [0] * len(walk)
    layers = [{_beta(mu, len(mu)): 1}]
    for i, shared, rest in walk:
        del layers[shared + 1 :]
        for r in rest:
            layers.append(_peel(layers[-1], r))
        values[i] = sum(layers[-1].values())
    return values


@_suite
def check_mn_peel_order(bounds: Bounds, res: SuiteResult) -> None:
    """Murnaghan--Nakayama does not depend on the order of the cycles:
    ``character_mn`` peels the cycles of length >= 2 in decreasing order
    and counts its last layer's leaves by the bead ratio, from the f of
    the shape it peels them off; the ascending walk peels every cycle,
    fixed points too, down to the empty shape and reads no dimension."""
    for n in range(bounds.max_k + 1):
        cts = _partitions(n)
        types = [CycleType(ct) for ct in cts]
        walk = _ascending_walk(cts)
        for mu in cts:
            ups = _mn_ascending(mu, walk)
            for ct, ctype, up in zip(cts, types, ups):
                down = character_mn(mu, ctype)
                if not res.check(down == up):
                    res.fail(
                        f"mu={list(mu)} ct={list(ct)}: peel order changed value {down} -> {up}"
                    )


def centralizer_order(ct: CycleType) -> int:
    """Order of the centralizer of a permutation of cycle type ``ct``:
    prod_i i^{x_i} x_i!."""
    z = 1
    for i, x_i in ct.multiplicities().items():
        z *= i**x_i * factorial(x_i)
    return z


@_suite
def check_column_orthogonality(bounds: Bounds, res: SuiteResult) -> None:
    for n in range(2, max(3, bounds.max_k)):
        for ct in (CycleType([1] * n), CycleType([2] + [1] * (n - 2))):
            total = sum(character_mn(mu, ct) ** 2 for mu in _partitions(n))
            if not res.check(total == centralizer_order(ct)):
                res.fail(f"n={n} ct={list(ct.cycles)}: {total} != centralizer order")


# ---------------------------------------------------------------------------
# binomial-basis suites


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


def _sample_polys(rng: random.Random, count: int = 40) -> list[BinomPoly]:
    polys = []
    for _ in range(count):
        degree = rng.randint(0, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-3, -1, 1, 2, 9])]
        polys.append(BinomPoly(rng.randint(-3, 8), coeffs))
    return polys


@_suite
def check_binom_round_trip(bounds: Bounds, res: SuiteResult) -> None:
    rng = random.Random(20260810)
    for p in _sample_polys(rng):
        values = [eval_poly(p, p.shift + i) for i in range(len(p.coeffs))]
        if not res.check(interpolate(values, p.shift) == p):
            res.fail(f"round trip failed for {p}")


@_suite
def check_reshift_preserves_values(bounds: Bounds, res: SuiteResult) -> None:
    rng = random.Random(987)
    xs = range(-4, 16)
    for p in _sample_polys(rng):
        values = [eval_poly(p, x) for x in xs]
        for new_shift in (-3, 0, 1, 5):
            q = reshift(p, new_shift)
            if not res.check([eval_poly(q, x) for x in xs] == values):
                res.fail(f"reshift to {new_shift} changed {p}")
            if not res.check(reshift(q, p.shift) == p):
                res.fail(f"reshift round trip failed for {p}")


@_suite
def check_forward_difference_coeffs(bounds: Bounds, res: SuiteResult) -> None:
    rng = random.Random(55)
    for _ in range(40):
        values = [rng.randint(-50, 50) for _ in range(rng.randint(1, 10))]
        coeffs = interpolate(values, 0).coeffs
        for m in range(len(values)):
            delta = sum((-1) ** (m - j) * comb(m, j) * values[j] for j in range(m + 1))
            got = coeffs[m] if m < len(coeffs) else 0
            if not res.check(got == delta):
                res.fail(f"coeff {m}: {got} != forward difference {delta}")


# ---------------------------------------------------------------------------
# stability suites


def _stable_character(lam: Partition, n: int, r: int) -> int:
    """Character of (n - |lam|, lam) at an r-cycle plus n - r fixed points."""
    return character_mn(Partition([n - lam.size] + list(lam)), _with_fixed_points((r,), n))


def _main_cases(
    res: SuiteResult, max_k: int, max_r: int, window: Callable[[int, int], range]
) -> None:
    """Check char_poly against MN into ``res`` at every n in
    window(k + lam_1, r), over |lam| <= max_k and 1 <= r <= max_r; the
    shape (n - k, lam) is built once per (lam, n), whichever r asks."""
    for lam in _shapes_upto(max_k):
        k = lam.size
        base = k + (lam[0] if lam else 0)
        shapes: dict[int, Partition] = {}
        for r in range(1, max_r + 1):
            poly = stability.char_poly(lam, r).poly
            for n in window(base, r):
                shape = shapes.get(n)
                if shape is None:
                    shape = shapes[n] = Partition([n - k] + list(lam))
                got = eval_poly(poly, n)
                want = character_mn(shape, _with_fixed_points((r,), n))
                if not res.check(got == want):
                    res.fail(f"lam={list(lam)} r={r} n={n}: poly {got} != mn {want}")


@_suite
def check_main_oracle(bounds: Bounds, res: SuiteResult) -> None:
    window = lambda base, r: range(base + r, base + r + bounds.n_window)
    _main_cases(res, bounds.max_k, bounds.max_r, window)


# the sweeps ask for the r-primaries of one (r, h) again and again (16,781
# calls on 151 keys at the default bounds), so the oracles keep them here;
# ``stability.r_primary`` is looked up when a tuple is made, so a patched
# one takes effect once the memo is cleared
@cache
def _r_primary(r: int, h: int) -> tuple[stability.SignedPartition, ...]:
    return stability.r_primary(r, h)


def coeff_b(lam: Partition, h: int, r: int) -> int:
    """Coefficient b[h] of the shift-r expansion for ``lam``: the signed
    sum of skew tableau counts over the r-primary partitions of h, the
    definition that ``stability.char_poly`` reads off the hook table.

    Every h asked for is summed, which is what the vanishing checks
    test.  A primary nu counts only if it fits inside ``lam``; the pair
    memo is asked only about the primaries that fit, so it holds no
    zeros."""
    if type(lam) is not Partition:
        lam = Partition(lam)
    b = 0
    # the primaries are built as Partitions, so the pair memo is asked directly
    for nu, sign, _ in _r_primary(r, h):
        if contains(lam, nu):
            b += sign * _skew_count(lam, nu)
    return b


@_suite
def check_coefficient_recurrence(bounds: Bounds, res: SuiteResult) -> None:
    """b[h] of lam is the sum of b[h] over lam minus each corner, for
    h < |lam|.  Each coefficient is computed once and read from the
    previous size's dict, which holds h <= |lam| for the next size."""
    rs = range(1, bounds.max_r + 1)
    below: dict[Partition, dict[tuple[int, int], int]] = {}
    for k in range(bounds.max_k + 1):
        # the top size is never a smaller shape, so it stops at h = k - 1
        hs = range(k + 1 if k < bounds.max_k else k)
        level = {}
        for lam in _partitions(k):
            coeffs = level[lam] = {(r, h): coeff_b(lam, h, r) for r in rs for h in hs}
            if not lam:
                continue
            smaller = [below[m] for m in _shrunk(lam)]
            for r in rs:
                for h in range(k):
                    total = sum(m[r, h] for m in smaller)
                    got = coeffs[r, h]
                    if not res.check(got == total):
                        res.fail(f"lam={list(lam)} h={h} r={r}: {got} != corner sum {total}")
        below = level


@_suite
def check_vanishing_bound(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(bounds.max_k):
        for r in range(1, bounds.max_r + 1):
            for h in range(lam.length + r + 1, lam.size + r + 2):
                got = coeff_b(lam, h, r)
                if not res.check(got == 0):
                    res.fail(f"lam={list(lam)} h={h} r={r}: expected 0 past length+r, got {got}")


@_suite
def check_limit_stabilization(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(bounds.max_k):
        a = stability.a_vector(lam)
        for h in range(lam.size + 1):
            want = a[h]
            for r in range(h + 1, bounds.max_r + 5):
                got = coeff_b(lam, h, r)
                if not res.check(got == want):
                    res.fail(f"lam={list(lam)} h={h} r={r}: {got} != a_vector {want}")


@_suite
def check_leading_coefficient(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(bounds.max_k):
        dim = dim_syt(lam)
        for r in range(1, bounds.max_r + 1):
            b0 = stability.char_poly(lam, r).b[0]
            if not res.check(b0 == dim):
                res.fail(f"lam={list(lam)} r={r}: b[0] = {b0} != dim")


@_suite
def check_transpose_small_h(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(bounds.max_k):
        a_t = [*stability.a_vector(transpose(lam)), 0, 0, 0]  # a_h = 0 past |lam|
        for h in range(4):
            got = coeff_b(lam, h, 2)
            want = a_t[h]
            if not res.check(got == want):
                res.fail(f"lam={list(lam)} h={h}: b2 {got} != transposed a {want}")


@_suite
def check_gamma_size_law(bounds: Bounds, res: SuiteResult) -> None:
    for r in range(1, bounds.max_r + 3):
        for h in range(3 * r + 1):
            gamma = _r_primary(r, h)
            want = 1 if h < r else (r - 1 if h < 2 * r else r)
            if not res.check(len(gamma) == want):
                res.fail(f"r={r} h={h}: |Gamma| = {len(gamma)} != {want}")
            if not res.check(len({sp.partition for sp in gamma}) == len(gamma)):
                res.fail(f"r={r} h={h}: duplicate primary partitions")
            if not res.check(all(sp.partition.size == h and sp.sign in (-1, 1) for sp in gamma)):
                res.fail(f"r={r} h={h}: wrong size or sign")


@_suite
def check_interpolation_route(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(max(0, bounds.max_k - 2)):
        k, lam1 = lam.size, lam[0] if lam else 0
        for r in range(1, max(1, bounds.max_r - 2) + 1):
            start = k + lam1 + r
            values = [_stable_character(lam, n, r) for n in range(start, start + k + 1)]
            got = reshift(interpolate(values, start), r)
            want = stability.char_poly(lam, r).poly
            if not res.check(got == want):
                res.fail(f"lam={list(lam)} r={r}: interpolated {got.coeffs} != {want.coeffs}")


@_suite
def check_frobenius_route(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(bounds.max_k):
        k, lam1 = lam.size, lam[0] if lam else 0
        poly = stability.char_poly(lam, 2).poly
        for n in range(k + lam1 + 2, k + lam1 + 2 + bounds.n_window):
            got = eval_poly(poly, n)
            want = character_frobenius_transposition(Partition([n - k] + list(lam)))
            if not res.check(got == want):
                res.fail(f"lam={list(lam)} n={n}: poly {got} != frobenius {want}")


def constant_coeff(lam: Partition, r: int) -> int:
    """The constant-term coefficient b[k] for ``lam`` of k: the r-sign
    when ``lam`` is r-primary, else 0."""
    lam = Partition(lam)
    return next((sp.sign for sp in _r_primary(r, lam.size) if sp.partition == lam), 0)


def constant_coeff_vertical_strip(lam: Partition, r: int) -> int:
    """Second derivation of the constant term, from the vertical-strip
    expansion of the character.

    Only the empty inner partition and the hooks (i, 1^(r-i)) survive for
    a single r-cycle with no fixed points: the former contributes 1 when
    ``lam`` is itself a vertical strip (a column), and each fitting hook
    whose complement in ``lam`` is a vertical strip contributes (-1)^i.
    """
    lam = Partition(lam)
    total = 1 if all(p <= 1 for p in lam) else 0
    for i in range(1, r + 1):
        kappa = Partition([i] + [1] * (r - i))
        # lam / kappa must be a vertical strip: at most one box per row
        if contains(lam, kappa) and all(
            p - (kappa[j] if j < len(kappa) else 0) <= 1 for j, p in enumerate(lam)
        ):
            total += -1 if i % 2 else 1
    return total


@_suite
def check_constant_coeff_routes(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(bounds.max_k + 1):
        for r in range(1, bounds.max_r + 1):
            via_primary = constant_coeff(lam, r)
            via_strips = constant_coeff_vertical_strip(lam, r)
            via_main = stability.char_poly(lam, r).b[-1]
            if not res.check(via_primary == via_strips == via_main):
                res.fail(
                    f"lam={list(lam)} r={r}: primary {via_primary}, strips {via_strips}, "
                    f"main {via_main}"
                )


def basis2_closed_forms(k: int) -> dict[int, tuple[Partition, tuple[int, ...]]]:
    """The transposition closed forms defined at this k, keyed by case:
    the partition (1^k), (2, 1^{k-2}), (3, 1^{k-3}) or (2, 2, 1^{k-4})
    and its coefficient vector b[0..k], transcribed term by term
    (including the explicit zero at h = 3 in case 4).  A case is absent
    below its smallest k."""
    forms = {1: ([1] * k, [1, 1][: k + 1] + [0] * (k - 1))}
    if k >= 2:
        forms[2] = ([2] + [1] * (k - 2), [k - 1, k - 1, 1] + [0] * (k - 2))
    if k >= 3:
        forms[3] = ([3] + [1] * (k - 3), [comb(k - 1, 2)] * 2 + [k - 2] + [1] * (k - 2))
    if k >= 4:
        forms[4] = ([2, 2] + [1] * (k - 4), [k * (k - 3) // 2] * 2 + [k - 3, 0] + [-1] * (k - 3))
    return {case: (Partition(lam), tuple(b)) for case, (lam, b) in forms.items()}


@_suite
def check_basis2_forms(bounds: Bounds, res: SuiteResult) -> None:
    for k in range(bounds.max_k + 5):
        for case, (lam, b) in basis2_closed_forms(k).items():
            got = stability.char_poly(lam, 2).b
            if not res.check(got == b):
                res.fail(f"case {case} k={k}: char_poly b {list(got)} != closed form {list(b)}")


def coeff_b_transposition_split(lam: Partition, h: int) -> tuple[int, int]:
    """The two transposition half-coefficients (b_plus, b_minus).

    For h <= 3, b_plus counts skew tableaux over the single row (h) and
    b_minus is 0; for h >= 4 they count over (3, 1^(h-3)) and
    (2, 2, 1^(h-4)).  Their difference is coeff_b(lam, h, 2).
    """
    lam = Partition(lam)
    if h <= 3:
        return _count_if_fits(lam, Partition([h] if h else [])), 0
    plus = _count_if_fits(lam, Partition([3] + [1] * (h - 3)))
    minus = _count_if_fits(lam, Partition([2, 2] + [1] * (h - 4)))
    return plus, minus


@_suite
def check_transposition_split(bounds: Bounds, res: SuiteResult) -> None:
    for lam in _shapes_upto(bounds.max_k):
        for h in range(lam.size + 2):
            plus, minus = coeff_b_transposition_split(lam, h)
            got = coeff_b(lam, h, 2)
            if not res.check(plus - minus == got):
                res.fail(f"lam={list(lam)} h={h}: {plus} - {minus} != b2 {got}")


# ---------------------------------------------------------------------------
# report-only bands, registered last so that the report ends with them


@_suite(report_only=True)
def check_main_band(bounds: Bounds, res: SuiteResult) -> None:
    window = lambda base, r: range(max(base, r), base + r)
    _main_cases(res, max(0, bounds.max_k - 2), max(1, bounds.max_r - 2), window)


@_suite(report_only=True)
def check_recpart_band(bounds: Bounds, res: SuiteResult) -> None:
    _recpart_cases(res, bounds, 0, 6)


def _run_one(args: tuple[str, Bounds]) -> SuiteResult:
    name, bounds = args
    return dict(SUITES)[name](bounds)


def run_suites(bounds: Bounds, jobs: int = 1) -> list[SuiteResult]:
    """Run every suite and return the results in registry order,
    independent of ``jobs``."""
    args = [(name, bounds) for name, _ in SUITES]
    # at most one process per suite: with fork, the pool starts all of
    # max_workers at the first submit
    workers = min(jobs, len(args))
    if workers <= 1:
        return [_run_one(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, args))


def render_report(results: Sequence[SuiteResult]) -> str:
    """Deterministic text report, one line per suite; a failing suite and
    a band with disagreements name their first failure."""
    lines = []
    for r in results:
        if r.report_only:
            first = f"; first: {r.failures[0]}" if r.disagreements else ""
            lines.append(
                f"band {r.name:<32} {r.checks:>6} checks, "
                f"{r.disagreements} disagreements (report only){first}"
            )
        elif r.ok:
            lines.append(f"ok   {r.name:<32} {r.checks:>6} checks")
        else:
            lines.append(
                f"FAIL {r.name:<32} {r.checks:>6} checks, "
                f"{r.disagreements} failures; first: {r.failures[0]}"
            )
    asserted = [r for r in results if not r.report_only]
    failed = sum(1 for r in results if not r.ok)
    total = sum(r.checks for r in results)
    verdict = "PASS" if failed == 0 else "FAIL"
    lines.append(
        f"{verdict} {len(asserted) - failed}/{len(asserted)} properties, {total} checks"
    )
    return "\n".join(lines)


def report_json_dict(results: Sequence[SuiteResult]) -> dict:
    return {
        "ok": all(r.ok for r in results),
        "total_checks": sum(r.checks for r in results),
        "properties": [
            {
                "name": r.name,
                "ok": r.ok,
                "checks": r.checks,
                "report_only": r.report_only,
                "disagreements": r.disagreements,
                "failures": list(r.failures),
            }
            for r in results
        ],
    }
