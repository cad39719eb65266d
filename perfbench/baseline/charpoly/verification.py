"""Verification suites: every library invariant, swept at desk scale.

Each suite checks one identity over a bounded family of inputs and
reports a pass/fail count plus the first counterexamples.  The two
"band" suites probe windows where the stable-range formulas are claimed
but not relied upon; they report disagreements without failing a run.

The brute-force oracles here (tableau backtracking, border-strip subset
enumeration) recompute from definitions, independent of the library's
recursions, and exist only for cross-checking.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, factorial
from typing import Callable, Iterator, Sequence

from .binom_poly import BinomPoly, eval_poly, interpolate, reshift
from .characters import (
    CycleType,
    _mn,
    centralizer_order,
    character_frobenius_transposition,
    character_mn,
    character_recpart,
)
from .partitions import (
    Partition,
    contains,
    hook_lengths,
    internal_corners,
    partitions_of,
    remove_corner,
    skew_hooks,
    subpartitions,
    transpose,
)
from .tableaux import a_coeff, dim_syt, skew_syt_count
from . import stability


@dataclass
class Bounds:
    """Sweep bounds; the defaults reproduce the full acceptance sweep."""

    max_k: int = 8
    max_r: int = 6
    n_window: int = 7


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    report_only: bool = False
    disagreements: int = 0

    _MAX_RECORDED = 3

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition: bool, describe: Callable[[], str]) -> None:
        self.checks += 1
        if not condition:
            if self.report_only:
                self.disagreements += 1
            elif len(self.failures) < self._MAX_RECORDED:
                self.failures.append(describe())
            else:
                self.disagreements += 1


def _shapes_upto(size: int) -> Iterator[Partition]:
    for k in range(size + 1):
        yield from partitions_of(k)


def _cycle_supports(max_size: int) -> list[Partition]:
    """Cycle types with no fixed points, of size at most ``max_size``."""
    out = [Partition()]
    for m in range(2, max_size + 1):
        out.extend(p for p in partitions_of(m) if p[-1] >= 2)
    return out


# ---------------------------------------------------------------------------
# independent oracles


def syt_count_backtracking(outer: Partition, inner: Partition) -> int:
    """Count skew standard tableaux by filling cells 1..m directly.

    A value may be placed in a cell once its left and upper neighbours
    inside the skew shape are filled; this re-derives the count with no
    reference to the Young-lattice recursion.
    """
    outer, inner = Partition(outer), Partition(inner)
    if not contains(outer, inner):
        return 0
    cells = [
        (i, j)
        for i in range(1, len(outer) + 1)
        for j in range((inner[i - 1] if i - 1 < len(inner) else 0) + 1, outer[i - 1] + 1)
    ]
    cellset = set(cells)
    filled: set[tuple[int, int]] = set()

    def fill(remaining: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for c in cells:
            if c in filled:
                continue
            i, j = c
            if (i, j - 1) in cellset and (i, j - 1) not in filled:
                continue
            if (i - 1, j) in cellset and (i - 1, j) not in filled:
                continue
            filled.add(c)
            total += fill(remaining - 1)
            filled.remove(c)
        return total

    return fill(len(cells))


def border_strips_bruteforce(lam: Partition, r: int) -> set[tuple]:
    """All r-cell border strips of ``lam`` by raw subset enumeration.

    Tries every r-subset of the boundary (cells (i, j) with (i+1, j+1)
    outside), keeps the edge-connected ones whose removal leaves rows
    that are still left-aligned prefixes in weakly decreasing order.
    Returns {(frozenset of (row, col), leg length, complement)}.
    """
    lam = Partition(lam)
    boundary = [
        (i, j)
        for i in range(1, len(lam) + 1)
        for j in range(1, lam[i - 1] + 1)
        if (i + 1 > len(lam)) or (j + 1 > lam[i])
    ]
    found = set()
    for combo in combinations(boundary, r):
        chosen = set(combo)
        seen = {combo[0]}
        queue = [combo[0]]
        while queue:
            i, j = queue.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in chosen and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        if len(seen) != r:
            continue
        rows = []
        ok = True
        for i in range(1, len(lam) + 1):
            left = [j for j in range(1, lam[i - 1] + 1) if (i, j) not in chosen]
            if left != list(range(1, len(left) + 1)):
                ok = False
                break
            rows.append(len(left))
        if not ok:
            continue
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            continue
        legs = len({i for i, _ in combo}) - 1
        found.add((frozenset(combo), legs, Partition(rows)))
    return found


# ---------------------------------------------------------------------------
# partition-level suites


def check_partition_corner_count(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("partition_corner_count")
    for lam in _shapes_upto(bounds.max_k + 4):
        if not lam:
            continue
        res.expect(
            len(internal_corners(lam)) == len(set(lam)),
            lambda lam=lam: f"lam={list(lam)}: corners != distinct part values",
        )
    return res


def check_partition_contains_transpose(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("partition_contains_transpose")
    shapes = [(lam, transpose(lam)) for lam in _shapes_upto(bounds.max_k + 4)]
    for lam, lam_t in shapes:
        res.expect(
            transpose(lam_t) == lam,
            lambda lam=lam: f"lam={list(lam)}: transpose not an involution",
        )
    for lam, lam_t in shapes:
        for nu, nu_t in shapes:
            res.expect(
                contains(lam, nu) == contains(lam_t, nu_t),
                lambda lam=lam, nu=nu: f"lam={list(lam)} nu={list(nu)}: containment not transpose-invariant",
            )
    return res


def check_skew_hook_bruteforce(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("skew_hook_bruteforce")
    for lam in _shapes_upto(bounds.max_k + 4):
        for r in range(1, lam.size + 1):
            hooks = skew_hooks(lam, r)
            for hook in hooks:
                res.expect(
                    len(hook.cells) == r
                    and hook.complement.size == lam.size - r
                    and contains(lam, hook.complement)
                    and hook.leg_length == len({c.row for c in hook.cells}) - 1,
                    lambda lam=lam, r=r, hook=hook: f"lam={list(lam)} r={r}: malformed hook {hook}",
                )
            got = {
                (frozenset((c.row, c.col) for c in h.cells), h.leg_length, h.complement)
                for h in hooks
            }
            res.expect(
                got == border_strips_bruteforce(lam, r),
                lambda lam=lam, r=r: f"lam={list(lam)} r={r}: hook set differs from brute force",
            )
    return res


def check_hook_product_divides_factorial(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("hook_product_divides_factorial")
    for lam in _shapes_upto(bounds.max_k + 4):
        prod = 1
        for h in hook_lengths(lam).values():
            prod *= h
        res.expect(
            factorial(lam.size) % prod == 0,
            lambda lam=lam: f"lam={list(lam)}: hook product does not divide size!",
        )
    return res


# ---------------------------------------------------------------------------
# tableau-level suites


def check_syt_branching(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("syt_branching")
    for lam in _shapes_upto(bounds.max_k + 4):
        if not lam:
            continue
        total = sum(dim_syt(remove_corner(lam, v)) for v in internal_corners(lam))
        res.expect(
            dim_syt(lam) == total,
            lambda lam=lam, total=total: f"lam={list(lam)}: dim {dim_syt(lam)} != corner sum {total}",
        )
    return res


def check_skew_recursion(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("skew_recursion")
    for lam in _shapes_upto(bounds.max_k + 4):
        if not lam:
            continue
        smaller = [remove_corner(lam, v) for v in internal_corners(lam)]
        for nu in subpartitions(lam):
            if nu == lam:
                continue
            total = sum(skew_syt_count(m, nu) for m in smaller)
            res.expect(
                skew_syt_count(lam, nu) == total,
                lambda lam=lam, nu=nu, total=total: f"lam={list(lam)} nu={list(nu)}: skew recursion broke",
            )
    return res


def check_column_removal_difference(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("column_removal_difference")
    for lam in _shapes_upto(bounds.max_k + 2):
        for h in range(2, lam.length + 1):
            lhs = a_coeff(lam, h - 1) - a_coeff(lam, h)
            rhs = skew_syt_count(lam, Partition([2] + [1] * (h - 2)))
            res.expect(
                lhs == rhs,
                lambda lam=lam, h=h, lhs=lhs, rhs=rhs: f"lam={list(lam)} h={h}: {lhs} != {rhs}",
            )
    return res


def check_skew_count_vs_backtracking(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("skew_count_vs_backtracking")
    for outer in _shapes_upto(bounds.max_k):
        for inner in subpartitions(outer):
            res.expect(
                skew_syt_count(outer, inner) == syt_count_backtracking(outer, inner),
                lambda outer=outer, inner=inner: f"outer={list(outer)} inner={list(inner)}: counts differ",
            )
    return res


def check_dim_equals_skew_over_empty(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("dim_equals_skew_over_empty")
    for lam in _shapes_upto(bounds.max_k + 4):
        res.expect(
            dim_syt(lam) == skew_syt_count(lam, Partition()),
            lambda lam=lam: f"lam={list(lam)}: hook formula != path count",
        )
    return res


# ---------------------------------------------------------------------------
# character-level suites


def check_mn_identity_is_dimension(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("mn_identity_is_dimension")
    for mu in _shapes_upto(bounds.max_k + 2):
        got = character_mn(mu, CycleType([1] * mu.size))
        res.expect(
            got == dim_syt(mu),
            lambda mu=mu, got=got: f"mu={list(mu)}: MN at identity {got} != dim {dim_syt(mu)}",
        )
    return res


def check_frobenius_vs_mn(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("frobenius_vs_mn")
    for n in range(2, bounds.max_k + 3):
        for mu in partitions_of(n):
            frob = character_frobenius_transposition(mu)
            mn = character_mn(mu, CycleType([2] + [1] * (n - 2)))
            res.expect(
                frob == mn,
                lambda mu=mu, frob=frob, mn=mn: f"mu={list(mu)}: frobenius {frob} != mn {mn}",
            )
    return res


def _recpart_pairs(bounds: Bounds):
    for k in range(max(0, bounds.max_k - 3) + 1):
        for lam in partitions_of(k):
            for sup in _cycle_supports(bounds.max_r):
                yield lam, sup


def check_recpart_vs_mn(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("recpart_vs_mn")
    for lam, sup in _recpart_pairs(bounds):
        k, lam1 = lam.size, lam[0] if lam else 0
        for n in range(k + lam1 + 6, k + lam1 + 10):
            ct = CycleType(list(sup) + [1] * (n - sup.size))
            got = character_recpart(lam, ct)
            want = character_mn(Partition([n - k] + list(lam)), ct)
            res.expect(
                got == want,
                lambda lam=lam, sup=sup, n=n, got=got, want=want: (
                    f"lam={list(lam)} support={list(sup)} n={n}: recpart {got} != mn {want}"
                ),
            )
    return res


def check_recpart_band(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("recpart_band", report_only=True)
    for lam, sup in _recpart_pairs(bounds):
        k, lam1 = lam.size, lam[0] if lam else 0
        for n in range(max(k + lam1, sup.size), k + lam1 + 6):
            ct = CycleType(list(sup) + [1] * (n - sup.size))
            got = character_recpart(lam, ct)
            want = character_mn(Partition([n - k] + list(lam)), ct)
            res.expect(got == want, lambda: "")
    return res


def check_mn_peel_order(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("mn_peel_order")
    for n in range(bounds.max_k + 1):
        for mu in partitions_of(n):
            for ct in partitions_of(n):
                down = _mn(mu, tuple(ct))
                up = _mn(mu, tuple(reversed(ct)))
                res.expect(
                    down == up,
                    lambda mu=mu, ct=ct, down=down, up=up: (
                        f"mu={list(mu)} ct={list(ct)}: peel order changed value {down} -> {up}"
                    ),
                )
    return res


def check_column_orthogonality(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("column_orthogonality")
    for n in range(2, max(3, bounds.max_k)):
        for ct in (CycleType([1] * n), CycleType([2] + [1] * (n - 2))):
            total = sum(character_mn(mu, ct) ** 2 for mu in partitions_of(n))
            res.expect(
                total == centralizer_order(ct),
                lambda n=n, ct=ct, total=total: f"n={n} ct={list(ct.cycles)}: {total} != centralizer order",
            )
    return res


# ---------------------------------------------------------------------------
# binomial-basis suites


def _sample_polys(rng: random.Random, count: int = 40) -> list[BinomPoly]:
    polys = []
    for _ in range(count):
        degree = rng.randint(0, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-3, -1, 1, 2, 9])]
        polys.append(BinomPoly(rng.randint(-3, 8), coeffs))
    return polys


def check_binom_round_trip(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("binom_round_trip")
    rng = random.Random(20260810)
    for p in _sample_polys(rng):
        values = [eval_poly(p, p.shift + i) for i in range(len(p.coeffs))]
        res.expect(
            interpolate(values, p.shift) == p,
            lambda p=p: f"round trip failed for {p}",
        )
    return res


def check_reshift_preserves_values(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("reshift_preserves_values")
    rng = random.Random(987)
    for p in _sample_polys(rng):
        for new_shift in (-3, 0, 1, 5):
            q = reshift(p, new_shift)
            res.expect(
                all(eval_poly(p, x) == eval_poly(q, x) for x in range(-4, 16)),
                lambda p=p, new_shift=new_shift: f"reshift to {new_shift} changed {p}",
            )
            res.expect(
                reshift(q, p.shift) == p,
                lambda p=p, new_shift=new_shift: f"reshift round trip failed for {p}",
            )
    return res


def check_forward_difference_coeffs(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("forward_difference_coeffs")
    rng = random.Random(55)
    for _ in range(40):
        values = [rng.randint(-50, 50) for _ in range(rng.randint(1, 10))]
        coeffs = interpolate(values, 0).coeffs
        for m in range(len(values)):
            delta = sum((-1) ** (m - j) * comb(m, j) * values[j] for j in range(m + 1))
            got = coeffs[m] if m < len(coeffs) else 0
            res.expect(
                got == delta,
                lambda m=m, got=got, delta=delta: f"coeff {m}: {got} != forward difference {delta}",
            )
    return res


# ---------------------------------------------------------------------------
# stability suites


def check_main_oracle(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("main_oracle")
    for lam in _shapes_upto(bounds.max_k):
        k, lam1 = lam.size, lam[0] if lam else 0
        for r in range(1, bounds.max_r + 1):
            poly = stability.char_poly(lam, r).poly
            for n in range(k + lam1 + r, k + lam1 + r + bounds.n_window):
                got = eval_poly(poly, n)
                want = character_mn(
                    Partition([n - k] + list(lam)), CycleType([r] + [1] * (n - r))
                )
                res.expect(
                    got == want,
                    lambda lam=lam, r=r, n=n, got=got, want=want: (
                        f"lam={list(lam)} r={r} n={n}: poly {got} != mn {want}"
                    ),
                )
    return res


def check_main_band(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("main_band", report_only=True)
    for lam in _shapes_upto(max(0, bounds.max_k - 2)):
        k, lam1 = lam.size, lam[0] if lam else 0
        for r in range(1, max(1, bounds.max_r - 2) + 1):
            poly = stability.char_poly(lam, r).poly
            for n in range(max(k + lam1, r), k + lam1 + r):
                got = eval_poly(poly, n)
                want = character_mn(
                    Partition([n - k] + list(lam)), CycleType([r] + [1] * (n - r))
                )
                res.expect(got == want, lambda: "")
    return res


def check_coefficient_recurrence(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("coefficient_recurrence")
    for lam in _shapes_upto(bounds.max_k):
        if not lam:
            continue
        smaller = [remove_corner(lam, v) for v in internal_corners(lam)]
        for r in range(1, bounds.max_r + 1):
            for h in range(lam.size):
                total = sum(stability.coeff_b(m, h, r) for m in smaller)
                got = stability.coeff_b(lam, h, r)
                res.expect(
                    got == total,
                    lambda lam=lam, h=h, r=r, got=got, total=total: (
                        f"lam={list(lam)} h={h} r={r}: {got} != corner sum {total}"
                    ),
                )
    return res


def check_vanishing_bound(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("vanishing_bound")
    for lam in _shapes_upto(bounds.max_k):
        for r in range(1, bounds.max_r + 1):
            for h in range(lam.length + r + 1, lam.size + r + 2):
                got = stability.coeff_b(lam, h, r)
                res.expect(
                    got == 0,
                    lambda lam=lam, h=h, r=r, got=got: (
                        f"lam={list(lam)} h={h} r={r}: expected 0 past length+r, got {got}"
                    ),
                )
    return res


def check_limit_stabilization(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("limit_stabilization")
    for lam in _shapes_upto(bounds.max_k):
        for h in range(lam.size + 1):
            for r in range(h + 1, bounds.max_r + 5):
                got = stability.coeff_b(lam, h, r)
                res.expect(
                    got == a_coeff(lam, h),
                    lambda lam=lam, h=h, r=r, got=got: (
                        f"lam={list(lam)} h={h} r={r}: {got} != a_coeff {a_coeff(lam, h)}"
                    ),
                )
    return res


def check_leading_coefficient(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("leading_coefficient")
    for lam in _shapes_upto(bounds.max_k):
        for r in range(1, bounds.max_r + 1):
            b0 = stability.char_poly(lam, r).b[0]
            res.expect(
                b0 == dim_syt(lam),
                lambda lam=lam, r=r, b0=b0: f"lam={list(lam)} r={r}: b[0] = {b0} != dim",
            )
    return res


def check_transpose_small_h(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("transpose_small_h")
    for lam in _shapes_upto(bounds.max_k):
        lam_t = transpose(lam)
        for h in range(4):
            got = stability.coeff_b(lam, h, 2)
            want = a_coeff(lam_t, h)
            res.expect(
                got == want,
                lambda lam=lam, h=h, got=got, want=want: (
                    f"lam={list(lam)} h={h}: b2 {got} != transposed a {want}"
                ),
            )
    return res


def check_gamma_size_law(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("gamma_size_law")
    for r in range(1, bounds.max_r + 3):
        for h in range(3 * r + 1):
            gamma = stability.r_primary(r, h)
            want = 1 if h < r else (r - 1 if h < 2 * r else r)
            res.expect(
                len(gamma) == want,
                lambda r=r, h=h, gamma=gamma, want=want: (
                    f"r={r} h={h}: |Gamma| = {len(gamma)} != {want}"
                ),
            )
            res.expect(
                len({sp.partition for sp in gamma}) == len(gamma),
                lambda r=r, h=h: f"r={r} h={h}: duplicate primary partitions",
            )
            res.expect(
                all(sp.partition.size == h and sp.sign in (-1, 1) for sp in gamma),
                lambda r=r, h=h: f"r={r} h={h}: wrong size or sign",
            )
    return res


def check_interpolation_route(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("interpolation_route")
    for lam in _shapes_upto(max(0, bounds.max_k - 2)):
        k, lam1 = lam.size, lam[0] if lam else 0
        for r in range(1, max(1, bounds.max_r - 2) + 1):
            start = k + lam1 + r
            values = [
                character_mn(
                    Partition([n - k] + list(lam)), CycleType([r] + [1] * (n - r))
                )
                for n in range(start, start + k + 1)
            ]
            got = reshift(interpolate(values, start), r)
            want = stability.char_poly(lam, r).poly
            res.expect(
                got == want,
                lambda lam=lam, r=r, got=got, want=want: (
                    f"lam={list(lam)} r={r}: interpolated {got.coeffs} != {want.coeffs}"
                ),
            )
    return res


def check_frobenius_route(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("frobenius_route")
    for lam in _shapes_upto(bounds.max_k):
        k, lam1 = lam.size, lam[0] if lam else 0
        poly = stability.char_poly(lam, 2).poly
        for n in range(k + lam1 + 2, k + lam1 + 2 + bounds.n_window):
            got = eval_poly(poly, n)
            want = character_frobenius_transposition(Partition([n - k] + list(lam)))
            res.expect(
                got == want,
                lambda lam=lam, n=n, got=got, want=want: (
                    f"lam={list(lam)} n={n}: poly {got} != frobenius {want}"
                ),
            )
    return res


def check_constant_coeff_routes(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("constant_coeff_routes")
    for lam in _shapes_upto(bounds.max_k + 1):
        for r in range(1, bounds.max_r + 1):
            via_primary = stability.constant_coeff(lam, r)
            via_strips = stability.constant_coeff_vertical_strip(lam, r)
            via_main = stability.coeff_b(lam, lam.size, r)
            res.expect(
                via_primary == via_strips == via_main,
                lambda lam=lam, r=r, a=via_primary, b=via_strips, c=via_main: (
                    f"lam={list(lam)} r={r}: primary {a}, strips {b}, main {c}"
                ),
            )
    return res


def check_basis2_forms(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("basis2_forms")
    for k in range(bounds.max_k + 5):
        for case, (lam, b) in stability.basis2_closed_forms(k).items():
            got = stability.char_poly(lam, 2).b
            res.expect(
                got == b,
                lambda case=case, k=k, got=got, b=b: (
                    f"case {case} k={k}: char_poly b {list(got)} != closed form {list(b)}"
                ),
            )
    return res


def check_transposition_split(bounds: Bounds) -> SuiteResult:
    res = SuiteResult("transposition_split")
    for lam in _shapes_upto(bounds.max_k):
        for h in range(lam.size + 2):
            plus, minus = stability.coeff_b_transposition_split(lam, h)
            got = stability.coeff_b(lam, h, 2)
            res.expect(
                plus - minus == got,
                lambda lam=lam, h=h, plus=plus, minus=minus, got=got: (
                    f"lam={list(lam)} h={h}: {plus} - {minus} != b2 {got}"
                ),
            )
    return res


SUITES: list[tuple[str, Callable[[Bounds], SuiteResult]]] = [
    ("partition_corner_count", check_partition_corner_count),
    ("partition_contains_transpose", check_partition_contains_transpose),
    ("skew_hook_bruteforce", check_skew_hook_bruteforce),
    ("hook_product_divides_factorial", check_hook_product_divides_factorial),
    ("syt_branching", check_syt_branching),
    ("skew_recursion", check_skew_recursion),
    ("column_removal_difference", check_column_removal_difference),
    ("skew_count_vs_backtracking", check_skew_count_vs_backtracking),
    ("dim_equals_skew_over_empty", check_dim_equals_skew_over_empty),
    ("mn_identity_is_dimension", check_mn_identity_is_dimension),
    ("frobenius_vs_mn", check_frobenius_vs_mn),
    ("recpart_vs_mn", check_recpart_vs_mn),
    ("mn_peel_order", check_mn_peel_order),
    ("column_orthogonality", check_column_orthogonality),
    ("binom_round_trip", check_binom_round_trip),
    ("reshift_preserves_values", check_reshift_preserves_values),
    ("forward_difference_coeffs", check_forward_difference_coeffs),
    ("main_oracle", check_main_oracle),
    ("coefficient_recurrence", check_coefficient_recurrence),
    ("vanishing_bound", check_vanishing_bound),
    ("limit_stabilization", check_limit_stabilization),
    ("leading_coefficient", check_leading_coefficient),
    ("transpose_small_h", check_transpose_small_h),
    ("gamma_size_law", check_gamma_size_law),
    ("interpolation_route", check_interpolation_route),
    ("frobenius_route", check_frobenius_route),
    ("constant_coeff_routes", check_constant_coeff_routes),
    ("basis2_forms", check_basis2_forms),
    ("transposition_split", check_transposition_split),
    ("main_band", check_main_band),
    ("recpart_band", check_recpart_band),
]


def _run_one(args: tuple[str, Bounds]) -> SuiteResult:
    name, bounds = args
    func = dict(SUITES)[name]
    return func(bounds)


def run_suites(
    bounds: Bounds, jobs: int = 1, names: Sequence[str] | None = None
) -> list[SuiteResult]:
    """Run the selected suites (all by default) and return their results
    in registry order, independent of ``jobs``."""
    selected = [name for name, _ in SUITES if names is None or name in names]
    if jobs <= 1:
        return [_run_one((name, bounds)) for name in selected]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_one, [(name, bounds) for name in selected]))


def render_report(results: Sequence[SuiteResult]) -> str:
    """Deterministic text report, one line per suite."""
    lines = []
    for r in results:
        if r.report_only:
            lines.append(
                f"band {r.name:<32} {r.checks:>6} checks, {r.disagreements} disagreements (report only)"
            )
        elif r.ok:
            lines.append(f"ok   {r.name:<32} {r.checks:>6} checks")
        else:
            lines.append(
                f"FAIL {r.name:<32} {r.checks:>6} checks, "
                f"{len(r.failures) + r.disagreements} failures; first: {r.failures[0]}"
            )
    asserted = [r for r in results if not r.report_only]
    failed = sum(1 for r in asserted if not r.ok)
    total = sum(r.checks for r in results)
    verdict = "PASS" if failed == 0 else "FAIL"
    lines.append(
        f"{verdict} {len(asserted) - failed}/{len(asserted)} properties, {total} checks"
    )
    return "\n".join(lines)


def report_json_dict(results: Sequence[SuiteResult]) -> dict:
    return {
        "ok": all(r.ok for r in results if not r.report_only),
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
