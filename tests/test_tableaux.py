from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from charpoly.binom_poly import eval_poly
from charpoly.partitions import Partition, partitions_of, transpose
from charpoly.stability import dim_poly
from charpoly.tableaux import _det, a_coeff, dim_syt, skew_syt_count
from charpoly.verification import (
    Bounds,
    check_column_removal_difference,
    check_dim_equals_skew_over_empty,
    check_skew_count_vs_backtracking,
    check_skew_recursion,
    check_syt_branching,
    hook_lengths,
    internal_corners,
    remove_corner,
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
            assert dim_syt(lam) * prod(hook_lengths(lam).values()) == factorial(lam.size), lam

    @pytest.mark.parametrize("lam", [(2, 2, 2), (3, 3), (4, 2)])
    @pytest.mark.parametrize("n", [100, 300])
    def test_stable_shape_matches_dimension_polynomial(self, lam, n):
        # the shapes of the char benchmark; dim_poly comes from Aitken counts
        lam = Partition(lam)
        assert dim_syt(Partition((n - lam.size, *lam))) == eval_poly(dim_poly(lam), n)


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


class TestDeterminant:
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
        smaller = [remove_corner(lam, v) for v in internal_corners(lam)]
        assert skew_syt_count(lam, nu) == sum(skew_syt_count(m, nu) for m in smaller)


class TestACoeff:
    def test_paper_values(self):
        lam = Partition([3, 3])
        assert [a_coeff(lam, h) for h in range(4)] == [5, 5, 2, 0]

    def test_beyond_length_vanishes(self):
        assert a_coeff(Partition([3, 3]), 3) == 0
        assert a_coeff(Partition([4, 2]), 5) == 0

    def test_single_column(self):
        for k in range(7):
            lam = Partition([1] * k)
            for h in range(k + 1):
                assert a_coeff(lam, h) == 1

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            a_coeff(Partition([2]), -1)


def test_degenerate_column_removal():
    # for a single column the removal identity reads 1 - 1 = 0
    for k in range(2, 8):
        lam = Partition([1] * k)
        for h in range(2, k + 1):
            assert a_coeff(lam, h - 1) - a_coeff(lam, h) == 0
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
