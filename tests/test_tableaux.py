import importlib
import pkgutil
import random
from collections import Counter
from functools import cache
from itertools import permutations
from math import factorial, perm, prod
from operator import mul

import pytest
from hypothesis import given, strategies as st

import charpoly
import charpoly.tableaux as tableaux
import charpoly.verification as verification
from charpoly.binom_poly import eval_poly
from charpoly.partitions import Partition, _beta, _shape, contains, transpose
from charpoly.stability import a_vector, char_poly, dim_poly, r_primary
from charpoly.tableaux import _beta_dim, _det, dim_syt, skew_syt_count
from charpoly.verification import (
    Bounds,
    _shrunk,
    check_column_removal_difference,
    check_dim_equals_skew_over_empty,
    check_skew_count_vs_backtracking,
    check_skew_recursion,
    check_syt_branching,
    hook_lengths,
    partitions_of,
    subpartitions,
    syt_count_backtracking,
)

parts_st = st.lists(st.integers(1, 5), max_size=5).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


class TestDimSyt:
    def test_two_row_rectangle(self):
        assert dim_syt(Partition([3, 3])) == 5

    def test_trivial_and_sign(self):
        for n in range(9):
            assert dim_syt(Partition([n] if n else [])) == 1
            assert dim_syt(Partition([1] * n)) == 1

    def test_three_row_rectangle(self):
        # frozen from the backtracking enumerator
        assert syt_count_backtracking(Partition([3, 3, 3]), Partition()) == 42
        assert dim_syt(Partition([3, 3, 3])) == 42

    @given(parts_st)
    def test_transpose_symmetric(self, lam):
        assert dim_syt(lam) == dim_syt(transpose(lam))

    def test_hook_product_matches_cell_by_cell(self):
        # the run-by-run hook product against one hook length per cell
        shapes = [lam for n in range(15) for lam in partitions_of(n)]
        shapes += [Partition(p) for p in ((294, 2, 2, 2), (194, 3, 3), (1000, 1000),
                                          (60,), (1,) * 60, ())]
        for lam in shapes:
            assert dim_syt(lam) * prod(hook_lengths(lam)) == factorial(lam.size), lam

    @pytest.mark.parametrize("lam", [(2, 2, 2), (3, 3), (4, 2)])
    @pytest.mark.parametrize("n", [100, 300])
    def test_stable_shape_matches_dimension_polynomial(self, lam, n):
        # the shapes of the char benchmark; dim_poly comes from Aitken counts
        lam = Partition(lam)
        assert dim_syt(Partition((n - lam.size, *lam))) == eval_poly(dim_poly(lam), n)


def _staircase(rows):
    return tuple(range(rows, 0, -1))


class TestBetaDim:
    # the beta-number count from the beads against the hook-run formula

    @pytest.mark.parametrize("zeros", range(4))
    def test_every_small_shape(self, zeros):
        for n in range(13):
            for lam in partitions_of(n):
                mask = _beta(lam, len(lam) + zeros)
                assert _beta_dim(mask) == dim_syt(_shape(mask)), (lam, zeros)

    @pytest.mark.parametrize("lam", [
        (1,) * 300, (2,) * 150, (5,) * 60, (300,), (30,) * 30, (60,) * 10,
        _staircase(40), _staircase(80), _staircase(100),
    ])
    @pytest.mark.parametrize("zeros", [0, 2])
    def test_long_wide_and_square_shapes(self, lam, zeros):
        # the orientation with fewer beads is read: (1^300) has one gap
        mask = _beta(Partition(lam), len(lam) + zeros)
        assert _beta_dim(mask) == dim_syt(_shape(mask))

    @pytest.mark.parametrize("lam", [(2, 2, 2), (3, 3), (4, 2)])
    def test_stable_shapes_up_to_ten_thousand(self, lam):
        # (n - 6, lam): the long top row is one short falling factorial
        for n in [*range(10, 40), 100, 300, 1000, 3000, 10_000]:
            mask = _beta(Partition((n - 6, *lam)), len(lam) + 1)
            assert _beta_dim(mask) == dim_syt(_shape(mask)), n

    def test_empty_shape(self):
        for zeros in range(4):
            assert _beta_dim(_beta(Partition(), zeros)) == 1


class TestSkewCount:
    def test_paper_column_pair(self):
        assert skew_syt_count(Partition([3, 3]), Partition([1, 1])) == 2

    def test_trivial_path(self):
        for lam in partitions_of(5):
            assert skew_syt_count(lam, lam) == 1

    def test_small_skews(self):
        assert skew_syt_count(Partition([3, 3]), Partition([3])) == 1
        assert skew_syt_count(Partition([3, 3]), Partition([2, 1])) == 2

    def test_not_contained_is_zero(self):
        assert skew_syt_count(Partition([3, 3]), Partition([4])) == 0
        assert skew_syt_count(Partition([2]), Partition([1, 1])) == 0

    @given(parts_st, parts_st)
    def test_matches_backtracking(self, outer, inner):
        assert skew_syt_count(outer, inner) == syt_count_backtracking(outer, inner)

    def test_backtracking_memoizes_on_filled_cells(self):
        # 1.1e9 tableaux: one at a time this would not finish; over the
        # down-sets of the staircase it is a few hundred states
        stair = Partition([6, 5, 4, 3, 2, 1])
        assert syt_count_backtracking(stair, Partition()) == dim_syt(stair) == 1_100_742_656
        outer, inner = Partition([7, 6, 5, 4, 3, 2, 1]), Partition([2, 1])
        assert syt_count_backtracking(outer, inner) == skew_syt_count(outer, inner)


def _durfee_rank(nu):
    return sum(1 for j, p in enumerate(nu, 1) if p >= j)


class TestReducedAitken:
    """Counts read off one closed-form record per outer shape."""

    def test_rank_three_inners_match_backtracking(self):
        # the verify sweep stops at |outer| <= 8, below the smallest inner
        # of Durfee rank 3, (3,3,3); a sign or power slip confined to
        # larger minors shows only here
        pairs = [
            (lam, nu)
            for n in range(9, 15)
            for lam in partitions_of(n)
            for nu in subpartitions(lam)
            if n - nu.size <= 6 and _durfee_rank(nu) >= 3
        ]
        assert len(pairs) == 551
        assert sum(len(lam) > lam[0] for lam, _ in pairs) == 223
        for lam, nu in pairs:
            assert skew_syt_count(lam, nu) == syt_count_backtracking(lam, nu), (lam, nu)

    def test_tall_outers_match_backtracking(self):
        # a tall outer is reduced as its conjugate, with alpha and beta swapped
        pairs = [
            (lam, nu)
            for n in range(1, 13)
            for lam in partitions_of(n)
            if len(lam) > lam[0]
            for nu in subpartitions(lam)
            if n - nu.size <= 6
        ]
        assert len(pairs) == 2863
        for lam, nu in pairs:
            assert skew_syt_count(lam, nu) == syt_count_backtracking(lam, nu), (lam, nu)

    def test_empty_inner_is_dimension(self):
        shapes = [lam for n in range(21) for lam in partitions_of(n)]
        shapes += [Partition(p) for p in ((200, 200, 200), (3,) * 30, (1,) * 40)]
        for lam in shapes:
            assert skew_syt_count(lam, Partition()) == dim_syt(lam), lam


def _recording(monkeypatch, name, record, owner=tableaux):
    """Replace ``owner.<name>`` by a wrapper that appends record(*args)."""
    calls = []
    real = getattr(owner, name)

    def recorded(*args):
        calls.append(record(*args))
        return real(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


class TestWorkBound:
    @pytest.fixture(autouse=True)
    def cold_caches(self):
        verification._skew_count.cache_clear()
        tableaux._record.cache_clear()

    def test_one_reduction_per_outer(self, monkeypatch):
        reductions = _recording(monkeypatch, "_node_polynomial", len)
        outers = [(10, 8, 6, 4, 2), (6, 5, 4, 3, 2, 1), (2, 1, 1, 1, 1), (1,) * 7, ()]
        for lam in map(Partition, outers):
            for r in range(1, 9):
                char_poly(lam, r)
            a_vector(lam)
        assert reductions == [5, 6, 2, 1, 0]

    def test_sweep_reduces_each_outer_once(self, monkeypatch):
        # every subpartition of every outer up to 6 boxes
        reductions = _recording(monkeypatch, "_node_polynomial", len)
        assert check_skew_count_vs_backtracking(Bounds(max_k=6)).ok
        assert len(reductions) == sum(1 for n in range(7) for _ in partitions_of(n))

    def test_minors_stay_two_by_two(self, monkeypatch):
        # every r-primary partition has Durfee rank at most 2, so the
        # definition asks the hook table for minors of size <= 2 only
        sizes = _recording(
            monkeypatch, "term", lambda rec, alpha, beta: len(alpha), tableaux._Record)
        cases = [(Partition(range(15, 0, -1)), [10]), (Partition([10, 8, 6, 4, 2]), range(1, 9))]
        for lam, rs in cases:
            for r in rs:
                for h in range(lam.length + r + 1):
                    verification.coeff_b(lam, h, r)
        assert set(sizes) == {0, 1, 2}

    def test_growth_lists_once_per_inner(self, monkeypatch):
        # 195 inners, the partitions of at most 11 boxes, each met by many outers
        grown = []
        real = verification._grown

        def counted(nu):
            grown.append(nu)
            return real(nu)

        monkeypatch.setattr(verification, "_grown", counted)
        assert check_skew_recursion(Bounds()).ok
        assert len(grown) == len(set(grown)) == 195
        assert set(grown) == {nu for n in range(12) for nu in partitions_of(n)}

    def test_columns_stop_at_length_plus_r(self, monkeypatch):
        # the widest primary of 5 inside (200,200,200) is (6,1,1), alpha = 5,
        # so of the columns b = 3..202 past P0 only b <= 3 + 5 are formed
        columns = _recording(monkeypatch, "_column_step", lambda q, col, b: b + 1)
        char_poly(Partition([200, 200, 200]), 5)
        assert max(columns) == 3 + 5
        assert len(columns) == len(set(columns))

    def test_tall_staircase_builds_q_once(self, monkeypatch):
        # 40 rows at r = 5: one Q for the outer, and no remainder past
        # ell + r + 1, however many counts share them
        reductions = _recording(monkeypatch, "_node_polynomial", len)
        columns = _recording(monkeypatch, "_column_step", lambda q, col, b: b + 1)
        lam = Partition(range(40, 0, -1))
        exp = char_poly(lam, 5)
        assert reductions == [40]
        assert max(columns) <= 40 + 5 + 1
        assert len(columns) == len(set(columns))
        assert exp.b[0] == dim_syt(lam)


def _adjugate(m):
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


@cache
def _adjugate_reduction(outer):
    """Aitken's row-scaled matrix of ``outer`` reduced against its
    empty-inner block P0: (transposed, a, prod a_i!, D, adj P0)."""
    transposed = bool(outer) and len(outer) > outer[0]
    if transposed:
        outer = transpose(outer)
    ell = len(outer)
    a = [p - i + ell for i, p in enumerate(outer, 1)]
    det, adj = _adjugate([[perm(ai, b) for b in range(ell - 1, -1, -1)] for ai in a])
    return transposed, a, prod(map(factorial, a)), det, adj


def _reduced_column(a, adj, b):
    """V[:, b] = adj P0 times column b of Aitken's row-scaled matrix."""
    col = [perm(ai, b) for ai in a]
    return [sum(map(mul, row, col)) for row in adj]


def _adjugate_count(outer, inner):
    """The skew count by the adjugate route, the reference for the closed
    form: (-1)^sum(beta) N! det[V[beta_i][ell + alpha_j]] / (D^(d-1) prod a_i!)."""
    if not contains(outer, inner):
        return 0
    transposed, a, scale, det, adj = _adjugate_reduction(outer)
    alpha = [p - j for j, p in enumerate(inner, 1) if p >= j]
    beta = [p - j for j, p in enumerate(transpose(inner), 1) if p >= j]
    if transposed:
        alpha, beta = beta, alpha
    cols = [_reduced_column(a, adj, len(a) + x) for x in alpha]
    num = (-1) ** sum(beta) * factorial(outer.size - inner.size) * _det(
        [[col[y] for col in cols] for y in beta]
    )
    count, rem = divmod(num * det, scale * det ** len(alpha))
    assert rem == 0, (outer, inner)
    return count


class TestAgainstAdjugate:
    """The closed-form remainders against the Gauss--Jordan adjugate route."""

    def test_every_pair_up_to_twelve_boxes(self):
        # every inner of at most |outer| boxes, contained or not
        by_size = [list(partitions_of(n)) for n in range(13)]
        pairs = contained = 0
        for n, shapes in enumerate(by_size):
            inners = [nu for k in range(n + 1) for nu in by_size[k]]
            for lam in shapes:
                for nu in inners:
                    want = _adjugate_count(lam, nu)
                    assert skew_syt_count(lam, nu) == want, (lam, nu)
                    pairs += 1
                    contained += want > 0
        assert (pairs, contained) == (43316, 8855)
        _adjugate_reduction.cache_clear()

    def test_staircase_primaries_up_to_thirty_rows(self):
        # out of backtracking's reach: 465 boxes at 30 rows
        for rows in range(1, 31):
            lam = Partition(range(rows, 0, -1))
            for h in range(min(lam.size, rows + 5) + 1):
                for sp in r_primary(5, h):
                    nu = sp.partition
                    assert skew_syt_count(lam, nu) == _adjugate_count(lam, nu), (rows, nu)
        _adjugate_reduction.cache_clear()


def _aitken_leibniz(outer, inner):
    """N! det[1 / (outer_i - inner_j - i + j)!] by the Leibniz expansion of
    the row-scaled matrix [(a_i)_(b_j)], with no remainder or Q."""
    ell = len(outer)
    a = [p - i + ell for i, p in enumerate(outer, 1)]
    b = [q - j + ell for j, q in enumerate((*inner, *[0] * (ell - len(inner))), 1)]
    det = _leibniz([[perm(ai, bj) for bj in b] for ai in a])
    count, rem = divmod(factorial(outer.size - inner.size) * det, prod(map(factorial, a)))
    assert rem == 0
    return count


def test_remainders_match_leibniz_aitken():
    # every inner with a nonempty alpha reads Q, so a slip in its factors,
    # such as (k + a) for (k - a), fails here in both orientations
    pairs = [
        (lam, nu)
        for n in range(1, 8)
        for lam in partitions_of(n)
        for nu in subpartitions(lam)
        if nu and nu != lam
    ]
    assert sum(len(lam) > lam[0] for lam, _ in pairs) > 100
    for lam, nu in pairs:
        assert skew_syt_count(lam, nu) == _aitken_leibniz(lam, nu), (lam, nu)


def _leibniz(m):
    """Determinant as the signed sum over permutations, the reference for ``_det``."""
    n = len(m)
    total = 0
    for sigma in permutations(range(n)):
        inversions = sum(sigma[i] > sigma[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][sigma[i]] for i in range(n))
    return total


class TestTerm:
    def test_closed_minors_match_bareiss(self):
        # every inner of Durfee rank <= 2 inside every outer through 10
        # boxes, on records of lam and of its conjugate: the entry or the
        # closed 2 x 2 minor against Bareiss on the same submatrix
        seen = Counter()
        for n in range(11):
            for lam in partitions_of(n):
                rec = tableaux._record(lam)
                for nu in subpartitions(lam):
                    alpha, beta, _ = tableaux._frobenius(nu)
                    if len(alpha) > 2:
                        continue
                    got = rec.term(alpha, beta)
                    if rec.transposed:
                        alpha, beta = beta, alpha
                    m = [[rec.columns[a][b] for a in alpha] for b in beta]
                    assert got == (-1) ** sum(beta) * _det(m), (lam, nu)
                    seen[rec.transposed, len(alpha)] += 1
        # (transposed, rank): the rank-0 rows are the empty inner of each outer
        assert seen == {(False, 0): 79, (False, 1): 1029, (False, 2): 531,
                        (True, 0): 60, (True, 1): 804, (True, 2): 380}


class TestDeterminant:
    def test_matches_leibniz_expansion(self):
        # Bareiss at every size from the empty matrix on; zero pivots and
        # singular matrices (a row repeated or scaled) among them
        rng = random.Random(20)
        singular = 0
        for n in range(5):
            for _ in range(300):
                m = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
                if n >= 2 and rng.random() < 0.2:
                    i, j = rng.sample(range(n), 2)
                    scale = rng.randint(-3, 3)
                    m[i] = [scale * x for x in m[j]]
                want = _leibniz(m)
                singular += want == 0
                assert _det([row[:] for row in m]) == want, m
        assert singular > 100

    def test_small_matrices(self):
        assert _det([]) == 1
        assert _det([[7]]) == 7
        assert _det([[2, 3], [4, 5]]) == -2
        assert _det([[1, 2], [2, 4]]) == 0

    def test_zero_pivot_swaps_rows(self):
        assert _det([[0, 1], [1, 0]]) == -1
        assert _det([[0, 2, 1], [3, 0, 1], [1, 1, 0]]) == 5
        assert _det([[0, 1, 2], [0, 3, 4], [5, 6, 7]]) == -10

    def test_large_staircase(self):
        lam, nu = Partition(range(20, 0, -1)), Partition([3, 1, 1])
        assert skew_syt_count(lam, Partition()) == dim_syt(lam)
        assert skew_syt_count(lam, nu) == sum(skew_syt_count(m, nu) for m in _shrunk(lam))


def _column_count(lam, h):
    """a_h, the tableaux of ``lam`` whose entries 1..h start its first h
    rows: the skew count of ``lam`` less a column of h boxes."""
    return skew_syt_count(lam, Partition([1] * h))


class TestACoeff:
    def test_paper_values(self):
        lam = Partition([3, 3])
        assert [_column_count(lam, h) for h in range(4)] == [5, 5, 2, 0]

    def test_beyond_length_vanishes(self):
        assert _column_count(Partition([3, 3]), 3) == 0
        assert _column_count(Partition([4, 2]), 5) == 0

    def test_single_column(self):
        for k in range(7):
            lam = Partition([1] * k)
            for h in range(k + 1):
                assert _column_count(lam, h) == 1


def test_degenerate_column_removal():
    # for a single column the removal identity reads 1 - 1 = 0
    for k in range(2, 8):
        lam = Partition([1] * k)
        for h in range(2, k + 1):
            assert _column_count(lam, h - 1) - _column_count(lam, h) == 0
            assert skew_syt_count(lam, Partition([2] + [1] * (h - 2))) == 0


def test_invariant_sweeps():
    bounds = Bounds(max_k=8, max_r=6, n_window=7)
    for suite in (
        check_syt_branching,
        check_skew_recursion,
        check_column_removal_difference,
        check_skew_count_vs_backtracking,
        check_dim_equals_skew_over_empty,
    ):
        result = suite(bounds)
        assert result.ok, result.failures


def test_skew_recursion_catches_rank_three_sign_flip(monkeypatch):
    # a sign slip confined to inners of Durfee rank >= 3; the corner rule
    # alone compares counts over one inner and cannot see it
    real = verification.skew_syt_count

    def flipped(outer, inner):
        count = real(outer, inner)
        return -count if _durfee_rank(inner) >= 3 else count

    monkeypatch.setattr(verification, "skew_syt_count", flipped)
    # the pair memo holds counts made before the patch, and keeps the
    # flipped ones after it
    verification._skew_count.cache_clear()
    try:
        result = check_skew_recursion(Bounds())
    finally:
        verification._skew_count.cache_clear()
    assert not result.ok
    assert "growth sum" in result.failures[0]


def module_level_memos():
    """Every global memo in the package, by (module, name): the functions
    with ``cache_info`` where they are defined."""
    memos = {}
    for info in pkgutil.iter_modules(charpoly.__path__):
        module = importlib.import_module(f"charpoly.{info.name}")
        memos |= {
            (info.name, name): obj for name, obj in vars(module).items()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
        }
    return memos


def test_module_level_memos_are_pinned():
    # so that a new memo, or one that moves between modules, changes this
    # set on purpose; the mutant tests clear the same set.  The library
    # keeps its memos per shape; the ones per (outer, inner) pair and per
    # (r, h) are the oracles' own
    memos = module_level_memos()
    assert all(hasattr(memo, "cache_info") and hasattr(memo, "cache_clear")
               for memo in memos.values())
    assert set(memos) == {
        ("characters", "_dim"),
        ("cli", "build_parser"),
        ("tableaux", "_frobenius"),
        ("tableaux", "_record"),
        ("verification", "_down_set"),
        ("verification", "_fillings"),
        ("verification", "_partitions"),
        ("verification", "_r_primary"),
        ("verification", "_recpart"),
        ("verification", "_skew_count"),
        ("verification", "_with_fixed_points"),
    }
