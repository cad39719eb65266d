import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import charpoly.cli as cli
import charpoly.stability as stability
import charpoly.tableaux as tableaux
import charpoly.verification as verification
from charpoly.characters import CycleType, character_mn, recpart_poly
from charpoly.binom_poly import BinomPoly, eval_poly
from charpoly.partitions import Partition
from charpoly.stability import (
    Family,
    SignedPartition,
    a_vector,
    char_poly,
    dim_poly,
    r_primary,
    stable_tail_start,
)
from charpoly.cli import (
    _format_terms as format_terms,
    _latex_dimension_line as latex_dimension_line,
    _latex_expansion_line as latex_expansion_line,
)
from charpoly.tableaux import dim_syt, skew_syt_count
from charpoly.verification import (
    Bounds,
    basis2_closed_forms,
    check_basis2_forms,
    check_coefficient_recurrence,
    check_constant_coeff_routes,
    check_frobenius_route,
    check_gamma_size_law,
    check_interpolation_route,
    check_leading_coefficient,
    check_limit_stabilization,
    check_main_band,
    check_main_oracle,
    check_transpose_small_h,
    check_transposition_split,
    check_vanishing_bound,
    coeff_b,
    coeff_b_transposition_split,
    constant_coeff,
    constant_coeff_vertical_strip,
    partitions_of,
    reshift,
)


def gamma(r, h):
    return [(tuple(sp.partition), sp.sign) for sp in r_primary(r, h)]


class TestRPrimary:
    def test_three_primary_size_three(self):
        assert gamma(3, 3) == [((3,), -1), ((2, 1), 1)]

    def test_columns_below_r(self):
        for r in range(1, 7):
            for h in range(r):
                assert gamma(r, h) == [(tuple([1] * h), 1)]
                assert r_primary(r, h)[0].family is Family.COLUMN

    def test_three_primary_size_six(self):
        assert gamma(3, 6) == [((4, 1, 1), -1), ((3, 2, 1), 1), ((2, 2, 2), -1)]

    def test_full_three_primary_table(self):
        # the nine families with their signs: columns +, (3) -, (2,1) +,
        # (2,2) +, (4,1^v) -, (3,2,1^v) +, (2,2,2,1^v) -
        assert gamma(3, 4) == [((2, 2), 1), ((4,), -1)]
        assert gamma(3, 5) == [((4, 1), -1), ((3, 2), 1)]
        for h in range(6, 10):
            v = h - 6
            assert gamma(3, h) == [
                ((4,) + (1,) * (v + 2), -1),
                ((3, 2) + (1,) * (v + 1), 1),
                ((2, 2, 2) + (1,) * v, -1),
            ]

    def test_r_one_families(self):
        assert gamma(1, 0) == [((), 1)]
        assert gamma(1, 1) == []
        for h in range(2, 6):
            assert gamma(1, h) == [((2,) + (1,) * (h - 2), -1)]

    def test_r_two_families(self):
        for h in range(4):
            assert gamma(2, h) == [(tuple([h] if h else []), 1)]
        for h in range(4, 8):
            assert gamma(2, h) == [
                ((3,) + (1,) * (h - 3), 1),
                ((2, 2) + (1,) * (h - 4), -1),
            ]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            r_primary(0, 1)
        with pytest.raises(ValueError):
            r_primary(2, -1)

    def test_unchanged_through_forty(self):
        # the three families written out again here, as validated
        # partitions, apart from both r_primary and char_poly's own walk
        def reference(r, h):
            out = []
            if h <= r - 1:
                out.append(([1] * h, 1, Family.COLUMN))
            u = h - r
            if 0 <= u <= r - 2:
                for v in range(r - 1 - u):
                    out.append(([r - u - v] + [2] * u + [1] * v, (-1) ** (r - u - v),
                                Family.TYPE_TWO))
            rem = h - r - 1
            if rem >= 0:
                for u in range(min(r - 1, rem) + 1):
                    out.append(([r + 1 - u] + [2] * u + [1] * (rem - u), (-1) ** (r - u),
                                Family.TYPE_THREE))
            return tuple(SignedPartition(Partition(nu), sign, family)
                         for nu, sign, family in out)

        for r in range(1, 13):
            for h in range(41):
                got, want = r_primary(r, h), reference(r, h)
                assert got == want and repr(got) == repr(want), (r, h)


class TestCoeffB:
    def test_worked_table_r3(self):
        lam = Partition([3, 3])
        assert [coeff_b(lam, h, 3) for h in range(7)] == [5, 5, 2, 1, 1, 1, 0]

    def test_worked_table_r4(self):
        lam = Partition([3, 3])
        assert [coeff_b(lam, h, 4) for h in range(7)] == [5, 5, 2, 0, -1, -1, 0]

    def test_oversized_h_vanishes(self):
        for lam in (Partition([3, 3]), Partition([2, 1]), Partition()):
            for r in (1, 2, 5):
                assert coeff_b(lam, lam.size + 1, r) == 0
                assert coeff_b(lam, lam.size + 3, r) == 0

    def test_equals_the_sum_over_every_primary(self):
        # coeff_b skips the primaries that cannot fit inside lam; the sum
        # over all of them, each counted, must come out the same
        for k in range(11):
            for lam in partitions_of(k):
                for r in range(1, 13):
                    for h in range(k + r + 2):
                        want = sum(sp.sign * skew_syt_count(lam, sp.partition)
                                   for sp in r_primary(r, h))
                        assert coeff_b(lam, h, r) == want, (lam, h, r)


class TestTranspositionSplit:
    def test_negative_tail_family(self):
        # (2,2,1^{k-4}) at h = k: plus side cannot fit, minus side is itself
        for k in range(4, 9):
            lam = Partition([2, 2] + [1] * (k - 4))
            assert coeff_b_transposition_split(lam, k) == (0, 1)
            assert coeff_b(lam, k, 2) == -1

    def test_h_zero(self):
        for lam in (Partition([3, 3]), Partition([4, 1]), Partition()):
            assert coeff_b_transposition_split(lam, 0) == (dim_syt(lam), 0)

    def test_single_row_small_h(self):
        lam = Partition([3, 3])
        assert coeff_b_transposition_split(lam, 2) == (3, 0)
        assert skew_syt_count(lam, Partition([2])) == 3


class TestCharPoly:
    def test_stable_tail(self):
        for r in (5, 6, 7, 9):
            assert char_poly(Partition([3, 3]), r).b == (5, 5, 2, 0, 0, 0, 0)

    def test_transposition_row(self):
        assert char_poly(Partition([3, 3]), 2).b == (5, 5, 3, 1, 0, 0, 0)

    def test_empty_partition(self):
        exp = char_poly(Partition(), 4)
        assert exp.b == (1,)
        assert exp.poly == BinomPoly(4, [1])
        assert eval_poly(exp.poly, 17) == 1

    def test_poly_sign_convention(self):
        exp = char_poly(Partition([3, 3]), 3)
        assert exp.poly == BinomPoly(3, [0, -1, 1, -1, 2, -5, 5])

    def test_json_record(self):
        exp = char_poly(Partition([3, 3]), 2)
        assert cli._expansion_json(exp) == {
            "lambda": [3, 3], "r": 2, "k": 6, "shift": 2, "b": [5, 5, 3, 1, 0, 0, 0]
        }

    def test_staircase_nine(self):
        # out of reach of the old corner recursion (about 20 s); Aitken's determinant is fast
        lam = Partition(range(9, 0, -1))
        exp = char_poly(lam, 3)
        assert exp.b[0] == dim_syt(lam)
        n = lam.size + lam[0] + 3
        want = character_mn(Partition([n - lam.size] + list(lam)), CycleType([3] + [1] * (n - 3)))
        assert eval_poly(exp.poly, n) == want

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            char_poly(Partition([2]), 0)


def _recpart_expansion(lam, r):
    """The character of (n - k, lam) at one r-cycle by the vertical-strip
    route, which uses no r-primary partitions and no Aitken determinant,
    rewritten in the shift-r basis of ``char_poly``."""
    return reshift(recpart_poly(lam, (r,) if r > 1 else ()), r)


SMALL_PAIRS = [(lam, r) for k in range(11) for lam in partitions_of(k) for r in range(1, 13)]

PARTITIONS_UPTO_20 = [tuple(partitions_of(k)) for k in range(21)]


class TestWholePolynomialOracle:
    """char_poly against the vertical-strip polynomial, coefficient by
    coefficient, so every n at once, including the b[h] past
    len(lam) + r that char_poly does not sum."""

    def test_exhaustive_small(self):
        assert len(SMALL_PAIRS) == 1668
        bad = [(lam, r) for lam, r in SMALL_PAIRS
               if char_poly(lam, r).poly != _recpart_expansion(lam, r)]
        assert bad == []

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 20).flatmap(lambda k: st.sampled_from(PARTITIONS_UPTO_20[k])),
        st.integers(1, 25),
    )
    def test_random_up_to_twenty(self, lam, r):
        assert char_poly(lam, r).poly == _recpart_expansion(lam, r)


def _counting(monkeypatch, name, module=stability):
    """Replace ``module.<name>`` by a wrapper that records each call."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _column_counts(lam):
    """The dimension coefficients a_h of ``lam`` for h = 0..|lam| by the
    definition: the skew counts f(lam / 1^h) of ``lam`` less a column."""
    return [skew_syt_count(lam, Partition([1] * h)) for h in range(lam.size + 1)]


class TestWorkBound:
    def test_char_poly_sums_through_length_plus_r(self, monkeypatch):
        # the primaries of each h are walked once, for h = 0..len + r
        tableaux._record.cache_clear()
        calls = _counting(monkeypatch, "_b_vector")
        exp = char_poly(Partition([30, 20, 10]), 3)
        assert [h for *_, top in calls for h in range(top + 1)] == list(range(7))
        assert len(exp.b) == 61 and not any(exp.b[7:])

    def test_tall_shape_at_large_r_stays_small(self):
        # only the primaries that fit are walked, and none is memoized:
        # at (2^600) and r = 601 each h past r has hundreds of primaries,
        # of which at most a few fit
        import tracemalloc

        tableaux._record.cache_clear()
        tracemalloc.start()
        try:
            char_poly(Partition([2] * 600), 601)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            tableaux._record.cache_clear()
        assert peak < 4 * 2**20

    def test_a_vector_counts_through_length(self, monkeypatch):
        tableaux._record.cache_clear()
        calls = _counting(monkeypatch, "_b_vector")
        a = a_vector(Partition([30, 20, 10]))
        assert [h for *_, top in calls for h in range(top + 1)] == list(range(4))
        assert len(a) == 61 and not any(a[4:])

    def test_dimension_rows_use_a_vector(self, monkeypatch):
        lam = Partition([30, 20, 10])
        tableaux._record.cache_clear()
        calls = _counting(monkeypatch, "_b_vector")
        dim_poly(lam)
        a_vector(lam)
        latex_dimension_line(lam)
        for fmt in ("text", "json", "latex"):
            assert cli.main(["table", "--lambda", "30,20,10", "--r-list", "1", "--format", fmt]) == 0
        # one sum at r = 30 + 3 through h = len(lam), which every dimension
        # row reads back from lam's record, and one for the r = 1 row
        assert [(r, top) for *_, r, top in calls] == [(33, 3), (1, 4)]

    def test_stable_vectors_are_dimension_coefficients(self, monkeypatch):
        # from r = lam_1 + len(lam) on the one kernel gives the dimension
        # vector, checked against the column skew counts, and sums only
        # h <= len(lam)
        tableaux._record.cache_clear()
        calls = _counting(monkeypatch, "_b_vector")
        pairs = 0
        for k in range(9):
            for lam in partitions_of(k):
                stable = lam[0] + len(lam) if lam else 1
                a = tuple(_column_counts(lam))
                for r in range(stable, stable + 4):
                    assert char_poly(lam, r).b == a, (lam, r)
                    pairs += 1
        assert len(calls) == pairs == 4 * 67
        assert all(top <= len(lam) for lam, _, _, top in calls)

    def test_coefficient_recurrence_computes_each_coefficient_once(self, monkeypatch):
        # asking again at every corner of every lam would be 7,230 calls
        calls = _counting(monkeypatch, "coeff_b", verification)
        assert check_coefficient_recurrence(Bounds()).ok
        assert len(calls) == len(set(calls)) == 2_766

    def test_truncation_drops_only_zeros(self):
        for lam, r in SMALL_PAIRS:
            assert char_poly(lam, r).b == tuple(coeff_b(lam, h, r) for h in range(lam.size + 1))
        for lam in {lam for lam, _ in SMALL_PAIRS}:
            assert a_vector(lam) == _column_counts(lam)


def _tall_shapes():
    # more rows than columns, so each record holds the conjugate
    return st.lists(st.integers(1, 4), min_size=5, max_size=16).map(
        lambda xs: Partition(sorted(xs, reverse=True)))


def _count_pairs(monkeypatch):
    """Clear the oracles' pair memo and record every pair that
    ``skew_syt_count`` is asked to count from now on."""
    verification._skew_count.cache_clear()
    pairs = []
    real = tableaux.skew_syt_count

    def recorded(outer, inner):
        pairs.append((outer, inner))
        return real(outer, inner)

    monkeypatch.setattr(tableaux, "skew_syt_count", recorded)
    monkeypatch.setattr(verification, "skew_syt_count", recorded)
    return pairs


def _agrees_with_oracle(lam, r):
    """char_poly(lam, r).b is the definition term by term through
    len(lam) + r, and zero past it."""
    top = min(lam.size, lam.length + r)
    b = char_poly(lam, r).b
    return b[:top + 1] == tuple(coeff_b(lam, h, r) for h in range(top + 1)) and not any(b[top + 1:])


class TestHookTable:
    """The kernel that reads every b[h] off the shape's hook table,
    against ``verification.coeff_b``, the definition summed through the
    pair memo of ``verification``."""

    def test_every_shape_through_fourteen(self):
        pairs = [(lam, r) for k in range(15) for lam in partitions_of(k) for r in range(1, 17)]
        assert len(pairs) == 8128
        bad = [(lam, r) for lam, r in pairs
               if char_poly(lam, r).b != tuple(coeff_b(lam, h, r) for h in range(lam.size + 1))]
        assert bad == []

    def test_staircases_through_forty_rows(self):
        for rows in range(41):
            lam = Partition(range(rows, 0, -1))
            for r in range(1, 9):
                assert _agrees_with_oracle(lam, r), (rows, r)

    @settings(max_examples=60, deadline=None)
    @given(_tall_shapes(), st.integers(1, 12))
    def test_tall_shapes(self, lam, r):
        assert len(lam) > lam[0]
        assert _agrees_with_oracle(lam, r)

    def test_sweep_asks_the_pair_memo_nothing(self, monkeypatch):
        # the vectors are kept on the records; no pair is counted on its
        # own, so the oracles' pair memo stays empty
        pairs = _count_pairs(monkeypatch)
        tableaux._record.cache_clear()
        try:
            for k in range(11):
                for lam in partitions_of(k):
                    for r in range(1, 9):
                        assert char_poly(lam, r).b is char_poly(lam, r).b
            assert pairs == []
            assert verification._skew_count.cache_info().currsize == 0
        finally:
            tableaux._record.cache_clear()


@st.composite
def _shapes_upto(draw, n):
    """A partition of at most ``n`` boxes, one part at a time."""
    parts, left = [], draw(st.integers(0, n))
    while left:
        parts.append(draw(st.integers(1, min(left, parts[-1] if parts else left))))
        left -= parts[-1]
    return Partition(parts)


class TestDimensionRow:
    """``a_vector``, read off the hook table at r = lam_1 + len(lam),
    against the column counts f(lam / 1^h), read one pair at a time."""

    def test_every_shape_through_twelve(self):
        shapes = [lam for k in range(13) for lam in partitions_of(k)]
        assert len(shapes) == 272
        for lam in shapes:
            assert a_vector(lam) == _column_counts(lam), lam

    @settings(max_examples=100, deadline=None)
    @given(_shapes_upto(25))
    def test_random_up_to_twenty_five(self, lam):
        assert a_vector(lam) == _column_counts(lam)

    def test_table_asks_the_pair_memo_nothing(self, capsys, monkeypatch):
        pairs = _count_pairs(monkeypatch)
        tableaux._record.cache_clear()
        try:
            for fmt in ("text", "json", "latex"):
                argv = ["table", "--lambda", "10,8,6,4,2", "--r-list", "1,2,3,4,5,6,7,8"]
                assert cli.main([*argv, "--format", fmt]) == 0
            assert pairs == []
            assert verification._skew_count.cache_info().currsize == 0
        finally:
            tableaux._record.cache_clear()


def _tail_start_through_k_plus_one(lam, expansions):
    """``stable_tail_start`` with its first proof: every missing r up to
    k + 1 is expanded."""
    start = len(expansions) - 1
    while start > 0 and expansions[start - 1].b == expansions[-1].b:
        start -= 1
    r_start, reference = expansions[start].r, expansions[start].b
    known = {exp.r for exp in expansions[start:]}
    for r in range(r_start + 1, lam.size + 2):
        if r not in known and char_poly(lam, r).b != reference:
            return None
    return start


class TestStableTail:
    def test_same_start_as_through_k_plus_one(self):
        rng = random.Random(7)
        starts = []
        for k in range(12):
            for lam in partitions_of(k):
                for _ in range(12):
                    rs = sorted(rng.sample(range(1, k + 4), rng.randint(1, min(5, k + 3))))
                    expansions = [char_poly(lam, r) for r in rs]
                    start = stable_tail_start(lam, expansions)
                    assert start == _tail_start_through_k_plus_one(lam, expansions), (lam, rs)
                    starts.append(start)
        assert len(starts) == 2340
        assert 0 < starts.count(None) < len(starts)

    def test_expands_nothing_past_first_part_plus_length(self, monkeypatch):
        # (10,8,6,4,2) is constant in r from 15 = 10 + 5 on, not only from k + 1 = 31
        lam = Partition([10, 8, 6, 4, 2])
        assert char_poly(lam, 14).b != char_poly(lam, 15).b == tuple(a_vector(lam))
        expansions = [char_poly(lam, r) for r in (14, 15)]
        calls = _counting(monkeypatch, "char_poly")
        assert stable_tail_start(lam, expansions) == 1
        assert stable_tail_start(lam, [char_poly(lam, 12)]) is None
        assert [r for _, r in calls] == [13]


class TestDimPoly:
    def test_worked_example(self):
        assert dim_poly(Partition([3, 3])) == BinomPoly(0, [0, 0, 0, 0, 2, -5, 5])

    def test_single_column_is_shifted_binomial(self):
        for k in range(7):
            lam = Partition([1] * k)
            p = dim_poly(lam)
            assert reshift(p, 1) == BinomPoly(1, [0] * k + [1])
            for n in range(k + 1, k + 8):
                assert eval_poly(p, n) == comb(n - 1, k)

    def test_empty(self):
        assert dim_poly(Partition()) == BinomPoly(0, [1])
        assert char_poly(Partition(), 1).poly == BinomPoly(1, [1])

    def test_alt_worked_example(self):
        # 5C(n-1,6) - 3C(n-1,4) + 2C(n-1,3)
        assert char_poly(Partition([3, 3]), 1).poly == BinomPoly(1, [0, 0, 0, 2, -3, 0, 5])

    def test_alt_single_column(self):
        for k in range(7):
            assert char_poly(Partition([1] * k), 1).poly == BinomPoly(1, [0] * k + [1])

    def test_alt_equals_dim_everywhere(self):
        for k in range(6):
            for lam in partitions_of(k):
                p, q = dim_poly(lam), char_poly(lam, 1).poly
                assert all(eval_poly(p, n) == eval_poly(q, n) for n in range(0, 25))

    def test_matches_hook_formula(self):
        for k in range(6):
            for lam in partitions_of(k):
                p = dim_poly(lam)
                lam1 = lam[0] if lam else 0
                for n in range(k + lam1, k + lam1 + 6):
                    assert eval_poly(p, n) == dim_syt(Partition([n - k] + list(lam)))


class TestConstantCoeff:
    def test_primary_examples(self):
        assert constant_coeff(Partition([2, 1]), 3) == 1
        assert constant_coeff(Partition([3, 3]), 3) == 0
        for k in range(1, 8):
            for r in range(1, k + 1):
                assert constant_coeff(Partition([1] * k), r) == 0

    def test_column_below_r_is_positive(self):
        for r in range(2, 7):
            for k in range(r):
                assert constant_coeff(Partition([1] * k), r) == 1

    def test_routes_agree(self):
        for k in range(8):
            for lam in partitions_of(k):
                for r in range(1, 7):
                    direct = constant_coeff(lam, r)
                    strips = constant_coeff_vertical_strip(lam, r)
                    main = coeff_b(lam, k, r)
                    assert direct == strips == main, (lam, r)


class TestBasis2:
    def test_case_one(self):
        assert basis2_closed_forms(0)[1] == (Partition(), (1,))
        for k in range(1, 8):
            assert basis2_closed_forms(k)[1][1] == tuple([1, 1] + [0] * (k - 1))

    def test_case_two_smallest(self):
        assert basis2_closed_forms(2)[2] == (Partition([2]), (1, 1, 1))

    def test_case_four_tail(self):
        for k in range(4, 10):
            _, b = basis2_closed_forms(k)[4]
            assert len(b) == k + 1
            assert b[2] == k - 3
            assert b[3] == 0
            assert all(b[h] == -1 for h in range(4, k + 1))

    def test_shapes(self):
        assert {case: lam for case, (lam, _) in basis2_closed_forms(4).items()} == {
            1: Partition([1, 1, 1, 1]),
            2: Partition([2, 1, 1]),
            3: Partition([3, 1]),
            4: Partition([2, 2]),
        }

    def test_not_defined_below_threshold(self):
        # a case is absent below its smallest k
        assert [sorted(basis2_closed_forms(k)) for k in range(5)] == [
            [1], [1], [1, 2], [1, 2, 3], [1, 2, 3, 4]
        ]

    def test_matches_char_poly_through_twelve(self):
        for k in range(13):
            for case, (lam, b) in basis2_closed_forms(k).items():
                assert char_poly(lam, 2).b == b, (case, k)


class TestRendering:
    def test_text_terms(self):
        assert (
            format_terms((5, 5, 3, 1, 0, 0, 0), "n-2")
            == "5C(n-2,6) -5C(n-2,5) +3C(n-2,4) -1C(n-2,3)"
        )

    @pytest.mark.parametrize("write", [lambda b: b, lambda b: list(map(str, b))])
    def test_signed_terms_from_ints_or_decimals(self, write):
        # a caller may pass the coefficients already written out
        assert format_terms(write((-3, 0, 12, -7, 0)), "n") == "-3C(n,4) +12C(n,2) +7C(n,1)"
        assert format_terms(write((0, 0)), "n", latex=True) == "0"

    def test_latex_line(self):
        line = latex_expansion_line(char_poly(Partition([3, 3]), 3))
        assert line == (
            "\\[\\chi^{(n-6,3,3)}(\\sigma_{3}) = 5\\binom{n-3}{6} -5\\binom{n-3}{5}"
            " +2\\binom{n-3}{4} -1\\binom{n-3}{3} +1\\binom{n-3}{2} -1\\binom{n-3}{1}\\]"
        )

    def test_latex_dimension_line(self):
        assert latex_dimension_line(Partition([3, 3])) == (
            "\\[f^{(n-6,3,3)} = 5\\binom{n}{6} -5\\binom{n}{5} +2\\binom{n}{4}\\]"
        )

    def test_empty_partition_rendering(self):
        assert latex_dimension_line(Partition()) == "\\[f^{(n)} = 1\\binom{n}{0}\\]"


def test_invariant_sweeps():
    bounds = Bounds(max_k=8, max_r=6, n_window=7)
    for suite in (
        check_main_oracle,
        check_coefficient_recurrence,
        check_vanishing_bound,
        check_limit_stabilization,
        check_leading_coefficient,
        check_transpose_small_h,
        check_gamma_size_law,
        check_interpolation_route,
        check_frobenius_route,
        check_constant_coeff_routes,
        check_basis2_forms,
        check_transposition_split,
    ):
        result = suite(bounds)
        assert result.ok, (result.name, result.failures)


def test_main_band_reported_not_asserted():
    result = check_main_band(Bounds(max_k=8, max_r=6, n_window=7))
    assert result.report_only
    assert result.checks > 0
    print(
        f"stable-range band: {result.checks} checks, {result.disagreements} disagreements (report only)"
    )
