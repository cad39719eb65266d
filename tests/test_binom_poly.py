import random
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from charpoly.binom_poly import BinomPoly, eval_poly
from charpoly.partitions import Partition
from charpoly.tableaux import dim_syt
from charpoly.verification import interpolate, reshift

coeffs_st = st.lists(st.integers(-9, 9), min_size=1, max_size=9)
shift_st = st.integers(-3, 8)

# the (3,3) dimension polynomial: 5 C(n,6) - 5 C(n,5) + 2 C(n,4)
DIM33 = BinomPoly(0, [0, 0, 0, 0, 2, -5, 5])


def binomial(a, m):
    """C(a, m) for any integer ``a`` and m >= 0, via the falling factorial:
    the reference that ``eval_poly``'s running binomial is checked against."""
    if a >= 0:
        return comb(a, m)
    num = 1
    for t in range(m):
        num *= a - t
    return num // factorial(m)


class TestBinomial:
    def test_nonnegative_matches_comb(self):
        for a in range(10):
            for m in range(10):
                assert binomial(a, m) == comb(a, m)

    def test_negative_upper(self):
        assert binomial(-1, 3) == -1
        assert binomial(-2, 3) == -4
        assert binomial(-3, 2) == 6

    def test_zero_lower(self):
        for a in (-5, 0, 7):
            assert binomial(a, 0) == 1


class TestEval:
    def test_constant(self):
        p = BinomPoly(2, [1])
        for x in (-10, 0, 2, 99):
            assert eval_poly(p, x) == 1

    def test_dimension_polynomial(self):
        # at n = 9 this is the dimension of (3,3,3)
        assert eval_poly(DIM33, 9) == 42
        assert dim_syt(Partition([3, 3, 3])) == 42

    def test_zero(self):
        z = BinomPoly(5, [])
        assert z.coeffs == ()
        for x in (-3, 0, 11):
            assert eval_poly(z, x) == 0

    def test_trailing_zeros_normalized(self):
        assert BinomPoly(1, [2, 0, 0]) == BinomPoly(1, [2])

    def test_value_type(self):
        p, q = BinomPoly(0, [1, 2, 0, 0]), BinomPoly(0, (1, 2))
        assert p == q and hash(p) == hash(q)
        assert p != BinomPoly(1, (1, 2))
        assert repr(p) == "BinomPoly(shift=0, coeffs=(1, 2))"
        with pytest.raises(AttributeError):
            p.shift = 1


    def test_running_binomial_matches_binomial(self):
        rng = random.Random(4242)
        for _ in range(200):
            shift = rng.randint(-5, 10)
            p = BinomPoly(shift, [rng.randint(-50, 50) for _ in range(rng.randint(0, 12))])
            for a in range(-10, 31):
                want = sum(c * binomial(a, m) for m, c in enumerate(p.coeffs))
                assert eval_poly(p, shift + a) == want, (p, a)


class TestReshift:
    def test_dimension_polynomial_to_shift_one(self):
        # 5C(n-1,6) + 0C(n-1,5) - 3C(n-1,4) + 2C(n-1,3)
        assert reshift(DIM33, 1) == BinomPoly(1, [0, 0, 0, 2, -3, 0, 5])

    def test_same_shift_identity(self):
        p = BinomPoly(4, [1, -2, 3])
        assert reshift(p, 4) == p

    def test_constant_any_shift(self):
        p = BinomPoly(0, [7])
        for s in (-2, 0, 5):
            assert reshift(p, s) == BinomPoly(s, [7])

    @given(coeffs_st, shift_st, shift_st)
    def test_preserves_values(self, coeffs, s, t):
        p = BinomPoly(s, coeffs)
        q = reshift(p, t)
        assert all(eval_poly(p, x) == eval_poly(q, x) for x in range(-5, 15))
        assert reshift(q, s) == p


class TestInterpolate:
    def test_constant(self):
        assert interpolate([1, 1, 1], 5) == BinomPoly(5, [1])

    def test_dimension_polynomial_low_values(self):
        # values of the (3,3) dimension polynomial at n = 0..6
        values = [eval_poly(DIM33, n) for n in range(7)]
        assert values == [0, 0, 0, 0, 2, 5, 5]
        assert interpolate(values, 0) == DIM33

    def test_from_hook_formula_evaluations(self):
        # genuine dimensions at n = 9..15, interpolated then reshifted home
        values = [dim_syt(Partition([n - 6, 3, 3])) for n in range(9, 16)]
        assert reshift(interpolate(values, 9), 0) == DIM33

    def test_linear(self):
        assert interpolate([0, 1, 2, 3], 0) == BinomPoly(0, [0, 1])

    @given(coeffs_st, shift_st)
    def test_round_trip(self, coeffs, s):
        p = BinomPoly(s, coeffs)
        values = [eval_poly(p, s + i) for i in range(len(coeffs))]
        assert interpolate(values, s) == p

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=10))
    def test_coefficients_are_forward_differences(self, values):
        coeffs = interpolate(values, 0).coeffs
        for m in range(len(values)):
            delta = sum((-1) ** (m - j) * comb(m, j) * values[j] for j in range(m + 1))
            got = coeffs[m] if m < len(coeffs) else 0
            assert got == delta

