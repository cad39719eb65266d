import random
from functools import cache
from math import comb

import pytest
from hypothesis import given, strategies as st

from charpoly import characters, tableaux, verification
from charpoly.characters import (
    CycleType,
    OutOfStableRange,
    SizeMismatch,
    TooSmall,
    _mn,
    character_frobenius_transposition,
    character_mn,
    character_recpart,
    recpart_polys,
)
from charpoly.binom_poly import BinomPoly
from charpoly.partitions import Partition, _beta, _shape, _strips, transpose
from charpoly.tableaux import dim_syt
from charpoly.verification import (
    Bounds,
    centralizer_order,
    character_residue,
    check_column_orthogonality,
    check_frobenius_vs_mn,
    check_mn_identity_is_dimension,
    check_mn_peel_order,
    check_recpart_band,
    check_recpart_vs_mn,
    partitions_of,
)


class TestCycleType:
    def test_fields(self):
        ct = CycleType([3, 1, 1])
        assert ct.n == 5
        assert ct.multiplicities() == {3: 1, 1: 2}

    def test_canonical(self):
        assert CycleType([1, 1, 3]).cycles == Partition([3, 1, 1])

    def test_value_type(self):
        a, b = CycleType([1, 2, 1]), CycleType([2, 1, 1])
        assert a == b and hash(a) == hash(b)
        assert a != CycleType([2, 2])
        assert repr(a) == "CycleType(cycles=Partition(2, 1, 1))"
        with pytest.raises(AttributeError):
            a.cycles = Partition([3])

    def test_fixed_points_kept_as_a_count(self):
        ct = CycleType([1, 3, 1, 2, 1])
        assert (ct.support, ct.fixed, ct.n) == (Partition([3, 2]), 3, 8)
        assert ct.cycles == Partition([3, 2, 1, 1, 1])
        assert ct == CycleType.of_counts({1: 3, 2: 1, 3: 1})
        assert ct.multiplicities() == {3: 1, 2: 1, 1: 3}
        assert CycleType.of_counts({1: 10**6}).support == Partition()

    @pytest.mark.parametrize("cycles", [[2, 0, 5, 1, 0], [2, 0], [0], [3, -1], [-2, 2]])
    def test_lengths_below_one_rejected(self, cycles):
        # a 0 used to vanish: CycleType([2, 0]) == CycleType([2])
        with pytest.raises(ValueError, match=f"cycle lengths must be >= 1, got {min(cycles)}$"):
            CycleType(cycles)
        with pytest.raises(ValueError):
            CycleType.of_counts({c: 1 for c in cycles})

    @pytest.mark.parametrize("counts, length, count", [
        ({1: -5}, 1, -5), ({2: -1, 1: 3}, 2, -1), ({3: 2, 2: -4, 1: 1}, 2, -4), ({3: -1}, 3, -1)])
    def test_negative_counts_rejected(self, counts, length, count):
        # a negative count used to vanish from the support but not from n:
        # of_counts({2: -1, 1: 3}) == CycleType([1, 1, 1]), and
        # of_counts({1: -5}).n == -5 with the cycles of the identity of S_0
        with pytest.raises(ValueError, match=f"got {count} of length {length}$"):
            CycleType.of_counts(counts)

    def test_zero_counts_dropped(self):
        assert CycleType.of_counts({3: 0}) == CycleType([])
        assert CycleType.of_counts({3: 0, 2: 1, 1: 0}) == CycleType([2])

    def test_centralizer(self):
        # (2,1,1) in S_4: z = 2 * 1!^... = 2 * 1 * 2! = 4
        assert centralizer_order(CycleType([2, 1, 1])) == 4
        assert centralizer_order(CycleType([1] * 4)) == 24


class TestMurnaghanNakayama:
    def test_transposition_vanishing(self):
        # cross-checked by the Frobenius formula below
        assert character_mn(Partition([3, 3, 3]), CycleType([2] + [1] * 7)) == 0

    def test_trivial_representation(self):
        for ct in (CycleType([3, 3, 3]), CycleType([4, 3, 2]), CycleType([1] * 9)):
            assert character_mn(Partition([9]), ct) == 1

    def test_hooks_on_full_cycle(self):
        # hook (i, 1^{r-i}) at an r-cycle gives (-1)^{r-i}; others vanish
        r = 4
        for kappa in partitions_of(r):
            got = character_mn(kappa, CycleType([r]))
            if kappa[0] + len(kappa) - 1 == r:
                assert got == (-1) ** (r - kappa[0])
            else:
                assert got == 0
        assert character_mn(Partition([2, 1, 1]), CycleType([4])) == 1

    def test_identity_gives_dimension(self):
        for n in range(7):
            for mu in partitions_of(n):
                assert character_mn(mu, CycleType([1] * n)) == dim_syt(mu)

    @pytest.mark.parametrize("m", [*range(1, 41), 1000])
    def test_two_row_square_at_fixed_point_free_involution(self, m):
        # by the 2-quotient, not by MN: (m,m) has empty 2-core and quotient
        # ((k), (k)) or ((k+1), (k)), so the value is +-C(m, floor(m/2));
        # m = 1000 peels 1000 layers, past the depth a recursion could take
        got = character_mn(Partition([m, m]), CycleType([2] * m))
        assert got == (-1) ** m * comb(m, m // 2)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch) as exc:
            character_mn(Partition([2, 1]), CycleType([2, 1, 1]))
        assert str(exc.value) == "|mu| = 3 but cycle type fills 4"

    def test_fixed_points_left_unpeeled(self):
        # the 1s are sliced off the sorted cycles; peeling them all, in
        # any order, gives the same value
        rng = random.Random(7)
        kinds = set()
        for n in range(8):
            for mu in partitions_of(n):
                for ct in partitions_of(n):
                    kinds.add((1 in ct, any(c > 1 for c in ct)))
                    shuffled = list(ct)
                    rng.shuffle(shuffled)
                    for cycles in (tuple(ct), ct[::-1], tuple(shuffled)):
                        assert character_mn(mu, CycleType(cycles)) == _mn(mu, cycles), (mu, cycles)
        # empty, only 1s, no 1s, and both
        assert kinds == {(False, False), (True, False), (False, True), (True, True)}

    def test_empty(self):
        assert character_mn(Partition(), CycleType()) == 1

    @given(
        st.lists(st.integers(1, 4), min_size=0, max_size=4).map(
            lambda xs: Partition(sorted(xs, reverse=True))
        )
    )
    def test_peel_order_free(self, mu):
        n = mu.size
        for ct in partitions_of(n):
            assert _mn(mu, tuple(ct)) == _mn(mu, tuple(reversed(ct)))

    def test_peel_order_catches_wrong_fixed_point_end(self, monkeypatch):
        # the descending side ends at MN's f, the ascending side peels every
        # cycle and reads none: a wrong dimension must show as a peel-order
        # fault.  A sign flip, not a +1, which the bead ratio could not divide
        real = characters._beta_dim
        monkeypatch.setattr(
            characters, "_beta_dim",
            lambda mask: -real(mask) if _shape(mask) == Partition([2, 1]) else real(mask),
        )
        characters._dim.cache_clear()
        try:
            assert not check_mn_peel_order(Bounds(4, 3, 2)).ok
        finally:
            characters._dim.cache_clear()

    def test_ascending_walk_matches_mn(self):
        # the shared-prefix walk against one ascending peel per cycle type
        for n in range(10):
            cts = list(partitions_of(n))
            walk = verification._ascending_walk(cts)
            for mu in cts:
                want = [_mn(mu, tuple(reversed(ct))) for ct in cts]
                assert verification._mn_ascending(mu, walk) == want, mu

    def test_peel_order_peels_each_shared_prefix_once(self, monkeypatch):
        # one full ascending and one descending peel per (mu, ct) would be 4,839
        peels = []
        real = characters._peel

        def counted(layer, r):
            peels.append(r)
            return real(layer, r)

        monkeypatch.setattr(characters, "_peel", counted)
        monkeypatch.setattr(verification, "_peel", counted)
        assert check_mn_peel_order(Bounds()).ok
        assert len(peels) <= 3_297


_beta_dims = cache(tableaux._beta_dim)


def _mn_per_strip(mu, cycles):
    # the route the bead ratio replaced: every cycle peeled, then each leaf
    # counted from its beads by _beta_dim
    layer = {_beta(mu, len(mu)): 1}
    for r in cycles:
        layer = characters._peel(layer, r)
    return sum(c * _beta_dims(mask) for mask, c in layer.items())


def _staircase(rows):
    return Partition(range(rows, 0, -1))


def _at_r_cycle(mu, r):
    return CycleType([r] + [1] * (mu.size - r))


@cache
def _staircase_values():
    # character_mn on every staircase through 100 rows at each r <= 8
    return {(rows, r): character_mn(_staircase(rows), _at_r_cycle(_staircase(rows), r))
            for rows in range(1, 101) for r in range(1, 9) if r <= rows * (rows + 1) // 2}


class TestBeadRatio:
    def test_matches_per_strip_route_through_eleven(self):
        pairs = 0
        for n in range(12):
            cts = list(partitions_of(n))
            for mu in cts:
                for ct in cts:
                    support = [c for c in ct if c > 1]
                    assert character_mn(mu, CycleType(ct)) == _mn_per_strip(mu, support), (mu, ct)
                    pairs += 1
        assert pairs == 6_719

    def test_matches_per_strip_route_on_staircases(self):
        # the per-strip route spends about 3 ms per leaf at 100 rows, so it
        # samples the staircases that the residue route below checks in full
        values = _staircase_values()
        for rows in [*range(1, 21), 50, 100]:
            for r in range(1, 9):
                if (rows, r) in values:
                    assert values[rows, r] == _mn_per_strip(_staircase(rows), [r]), (rows, r)

    @pytest.mark.parametrize("m", range(1, 61))
    def test_matches_per_strip_route_on_two_row_squares(self, m):
        mu = Partition([m, m])
        assert character_mn(mu, CycleType([2] * m)) == _mn_per_strip(mu, [2] * m)

    def test_falling_factorials_stop_at_the_shorter_side(self, monkeypatch):
        # (b)_r / (n)_r cancels to min(r, n - b) factors a side, so a bead
        # moved near the top of a long row builds no n!
        asked = []
        real = characters.perm

        def recorded(m, k):
            asked.append(k)
            return real(m, k)

        monkeypatch.setattr(characters, "perm", recorded)
        leaves = 0
        for n in range(2, 11):
            for mu in partitions_of(n):
                mask = _beta(mu, len(mu))
                for r in range(2, n + 1):
                    asked.clear()
                    characters._at_cycle(mask, r)
                    # two falling factorials per leaf, the leaves in _strips order
                    strips = list(_strips(mask, r))
                    assert len(asked) == 2 * len(strips), (mu, r)
                    for (_, leaf), ks in zip(strips, zip(*[iter(asked)] * 2)):
                        # the strip starts in the first row the leaf changes,
                        # and the bead b of row i is mu_i + len(mu) - 1 - i
                        i = next(i for i, p in enumerate(_shape(leaf) + (0,) * n) if p != mu[i])
                        b = mu[i] + len(mu) - 1 - i
                        assert max(ks) <= min(r, n - b), (mu, r, leaf)
                        leaves += 1
        assert leaves == 822

    def test_new_leaves_not_written_to_the_memo(self):
        # the memo holds f of the shape the cycle is read off, and none of
        # its leaves', which the ratio counts
        characters._dim.cache_clear()
        try:
            mu = _staircase(20)
            character_mn(mu, _at_r_cycle(mu, 5))
            assert characters._dim.cache_info().currsize == 1
        finally:
            characters._dim.cache_clear()

    def test_dim_asked_only_for_the_shapes_the_last_cycle_is_read_off(self, monkeypatch):
        # never for a leaf, whose f the ratio counts, and never for a shape
        # with no strip of the last cycle, whose value is 0 with no f
        asked = []

        def recorded(mask):
            asked.append(mask)
            return tableaux._beta_dim(mask)

        monkeypatch.setattr(characters, "_dim", recorded)
        pairs = stripless = 0
        for n in range(9):
            cts = list(partitions_of(n))
            for mu in cts:
                shape = transpose(mu) if mu and len(mu) > mu[0] else mu
                mask = _beta(shape, len(shape))
                for ct in cts:
                    cycles = [c for c in ct if c > 1]
                    read = [mask]
                    if cycles:
                        layer = {mask: 1}
                        for r in cycles[:-1]:
                            layer = characters._peel(layer, r)
                        read = [m for m in layer if any(_strips(m, cycles[-1]))]
                        stripless += len(layer) - len(read)
                    asked.clear()
                    character_mn(mu, CycleType(ct))
                    assert asked == read, (mu, ct)
                    pairs += 1
        assert (pairs, stripless) == (919, 156)


class TestConjugateRoute:
    """A shape with more rows than columns is evaluated on its conjugate,
    times the sign of the permutation."""

    def test_matches_the_peel_on_every_tall_shape_through_ten(self):
        pairs = 0
        for n in range(11):
            cts = [CycleType(ct) for ct in partitions_of(n)]
            for mu in partitions_of(n):
                if mu and len(mu) > mu[0]:
                    for ct in cts:
                        assert character_mn(mu, ct) == _mn(mu, ct.support), (mu, ct)
                        pairs += 1
        assert pairs == 1_589

    def test_peels_the_conjugate_of_a_column(self, monkeypatch):
        peeled = []
        real = characters._mn

        def recorded(mu, cycles):
            peeled.append(mu)
            return real(mu, cycles)

        monkeypatch.setattr(characters, "_mn", recorded)
        n = 70_000
        assert character_mn(Partition([1] * n), CycleType.of_counts({2: 1, 1: n - 2})) == -1
        assert peeled == [Partition([n])]


class TestResidueRoute:
    def test_matches_mn_through_ten(self):
        pairs = 0
        for n in range(1, 11):
            for mu in partitions_of(n):
                for r in range(1, n + 1):
                    assert character_residue(mu, r) == character_mn(mu, _at_r_cycle(mu, r)), (mu, r)
                    pairs += 1
        assert pairs == 1_106

    def test_matches_mn_on_staircases(self):
        for (rows, r), value in _staircase_values().items():
            assert character_residue(_staircase(rows), r) == value, (rows, r)

    @pytest.mark.parametrize("r", [0, 4])
    def test_cycle_must_fit(self, r):
        with pytest.raises(ValueError):
            character_residue(Partition([2, 1]), r)


class TestWorkBound:
    def test_staircase_counts_one_dimension(self, monkeypatch):
        # the 100-row staircase at a 5-cycle has 98 leaves, each counted
        # by the bead ratio from the one _beta_dim count of the staircase
        mu, want = _staircase(100), _staircase_values()[100, 5]
        calls = []
        real = tableaux._beta_dim

        def counted(mask):
            calls.append(mask)
            return real(mask)

        monkeypatch.setattr(characters, "_beta_dim", counted)
        characters._dim.cache_clear()
        try:
            assert character_mn(mu, _at_r_cycle(mu, 5)) == want
        finally:
            characters._dim.cache_clear()
        assert len(calls) <= 1


class TestFrobenius:
    def test_square_vanishes(self):
        # row/column binomials cancel for the self-transpose (3,3,3)
        assert character_frobenius_transposition(Partition([3, 3, 3])) == 0

    def test_trivial(self):
        for n in range(2, 8):
            assert character_frobenius_transposition(Partition([n])) == 1

    def test_sign_representation(self):
        for n in range(2, 8):
            lam = Partition([1] * n)
            assert character_frobenius_transposition(lam) == -1
            assert character_mn(lam, CycleType([2] + [1] * (n - 2))) == -1

    def test_too_small(self):
        with pytest.raises(TooSmall):
            character_frobenius_transposition(Partition([1]))

    def test_returns_int(self):
        for lam in partitions_of(6):
            assert type(character_frobenius_transposition(lam)) is int

    @pytest.mark.parametrize("parts", [(1994, 3, 3), (1000, 1000)])
    def test_long_rims_match_mn(self, parts):
        # MN peels the 2-cycle off a rim of about 2000 cells; Frobenius uses no strips
        mu = Partition(parts)
        ct = CycleType([2] + [1] * (mu.size - 2))
        assert character_mn(mu, ct) == character_frobenius_transposition(mu)


class TestRecpart:
    def test_empty_partition_constant(self):
        for ct in (CycleType([1]), CycleType([3, 2]), CycleType([2, 1, 1])):
            assert character_recpart(Partition(), ct) == 1

    def test_three_cycle_value(self):
        # 5C(9,6)-5C(9,5)+2C(9,4)-C(9,3)+C(9,2)-C(9,1) = -15
        ct = CycleType([3] + [1] * 9)
        assert character_recpart(Partition([3, 3]), ct) == -15
        assert character_mn(Partition([6, 3, 3]), ct) == -15

    def test_standard_representation_counts_fixed_points(self):
        lam = Partition([1])
        for ct in (CycleType([2, 1, 1, 1]), CycleType([3, 2, 1]), CycleType([1] * 5)):
            fixed = ct.multiplicities().get(1, 0)
            assert character_recpart(lam, ct) == fixed - 1
            n = ct.n
            assert character_mn(Partition([n - 1, 1]), ct) == fixed - 1

    def test_out_of_range(self):
        with pytest.raises(OutOfStableRange):
            character_recpart(Partition([3, 3]), CycleType([4, 2, 2]))

    @pytest.mark.parametrize("lam, support, want", [
        ((1,), (), BinomPoly(0, (-1, 1))),
        ((1,), (2,), BinomPoly(2, (-1, 1))),
        ((1, 1), (2,), BinomPoly(2, (0, -1, 1))),
        ((), (3, 2), BinomPoly(5, (1,))),
        ((2, 1), (2, 2), BinomPoly(4, (0, 1, -2, 2))),
        ((1, 1), (2, 2, 2), BinomPoly(6, (-2, -1, 1))),
        ((3, 1), (2, 2, 3), BinomPoly(7, (1, -2, 3, -3, 3))),
    ])
    def test_poly_per_support(self, lam, support, want):
        assert recpart_polys(Partition(lam), [support])[support] == want

    def test_poly_support_excludes_fixed_points(self):
        with pytest.raises(ValueError):
            recpart_polys(Partition([1]), [(2, 1)])

    @pytest.mark.parametrize("order", [1, -1], ids=["prefixes_first", "prefixes_last"])
    def test_batch_equals_each_support_alone(self, order):
        # a batch peels each shared prefix of cycles once; no prefix's layer
        # may leak into another support's, in either order of the supports
        supports = verification._cycle_supports(6)[::order]
        for lam in (lam for k in range(7) for lam in partitions_of(k)):
            batch = recpart_polys(lam, supports)
            assert list(batch) == supports
            for support in supports:
                assert batch[support] == recpart_polys(lam, [support])[support], (lam, support)

    def test_batch_keys_each_support_as_given(self):
        polys = recpart_polys(Partition([3, 1]), [(2, 3, 2), (3,), ()])
        alone = {support: recpart_polys(Partition([3, 1]), [support])[support]
                 for support in [(3, 2, 2), (3,), ()]}
        assert polys == {(2, 3, 2): alone[(3, 2, 2)], (3,): alone[(3,)], (): alone[()]}


def test_invariant_sweeps():
    bounds = Bounds(max_k=8, max_r=6, n_window=7)
    for suite in (
        check_mn_identity_is_dimension,
        check_frobenius_vs_mn,
        check_recpart_vs_mn,
        check_mn_peel_order,
        check_column_orthogonality,
    ):
        result = suite(bounds)
        assert result.ok, result.failures


def test_recpart_band_reported_not_asserted(capsys):
    result = check_recpart_band(Bounds(max_k=8, max_r=6, n_window=7))
    assert result.report_only
    assert result.checks > 0
    print(
        f"recpart band: {result.checks} checks, {result.disagreements} disagreements (report only)"
    )


def test_cycle_type_hashes_without_listing_its_cycles(monkeypatch):
    def listed(self):
        raise AssertionError("hash listed every cycle")

    monkeypatch.setattr(CycleType, "cycles", property(listed))
    ct = CycleType.of_counts({2: 1, 1: 10**7})
    same = CycleType.of_counts({1: 10**7, 2: 1})
    seen = {ct: "value"}
    assert hash(ct) == hash(same) and seen[same] == "value"
