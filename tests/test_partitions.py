from operator import le

import pytest
from hypothesis import given, strategies as st

from charpoly import partitions, verification
from charpoly.characters import CycleType, character_mn
from charpoly.partitions import (
    NotWeaklyDecreasing,
    Partition,
    contains,
    transpose,
    vertical_strip_inners,
)
from charpoly.stability import char_poly, r_primary
from charpoly.tableaux import skew_syt_count
from charpoly.verification import (
    Bounds,
    SkewHook,
    _shrunk,
    border_strips_bruteforce,
    check_hook_product_divides_factorial,
    check_partition_contains_transpose,
    check_partition_corner_count,
    check_skew_hook_bruteforce,
    coeff_b,
    hook_lengths,
    partitions_of,
    skew_hooks,
    subpartitions,
    syt_count_backtracking,
)

parts_st = st.lists(st.integers(1, 6), max_size=6).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


class TestMakePartition:
    """Building a canonical Partition from raw parts."""

    def test_basic(self):
        lam = Partition([3, 3])
        assert lam == (3, 3)
        assert lam.size == 6
        assert lam.length == 2

    def test_empty(self):
        assert Partition([]) == Partition()
        assert Partition([]).size == 0
        assert Partition([]).length == 0

    def test_trailing_zeros_stripped(self):
        assert Partition([3, 1, 0, 0]) == Partition([3, 1])

    def test_increasing_rejected(self):
        with pytest.raises(NotWeaklyDecreasing):
            Partition([2, 3])

    def test_negative_rejected(self):
        with pytest.raises(NotWeaklyDecreasing):
            Partition([3, -1])

    def test_error_messages(self):
        with pytest.raises(NotWeaklyDecreasing, match=r"^negative part -1 in \(3, -1\)$"):
            Partition([3, -1])
        with pytest.raises(NotWeaklyDecreasing, match=r"^parts 1, 2 increase in \(3, 1, 2\)$"):
            Partition([3, 1, 2])
        # the first problem in row order is reported
        with pytest.raises(NotWeaklyDecreasing, match=r"^parts 0, 1 increase in \(2, 0, 1, -1\)$"):
            Partition([2, 0, 1, -1])


class TestTranspose:
    def test_rectangle(self):
        assert transpose(Partition([3, 3])) == Partition([2, 2, 2])

    def test_empty(self):
        assert transpose(Partition()) == Partition()

    def test_hook(self):
        # column heights of (3,1): columns 1..3 have heights 2,1,1
        assert transpose(Partition([3, 1])) == Partition([2, 1, 1])

    @given(parts_st)
    def test_involution(self, lam):
        assert transpose(transpose(lam)) == lam


class TestContains:
    def test_componentwise(self):
        assert contains(Partition([3, 3]), Partition([2, 1]))

    def test_length_violation(self):
        assert not contains(Partition([3, 3]), Partition([1, 1, 1]))

    def test_width_violation(self):
        assert not contains(Partition([3, 3]), Partition([4]))

    @given(parts_st, parts_st)
    def test_transpose_invariant(self, lam, nu):
        assert contains(lam, nu) == contains(transpose(lam), transpose(nu))

    def test_matches_definition_on_all_small_pairs(self):
        # nu padded with zeros to the length of lam, compared part by part
        shapes = [lam for n in range(9) for lam in partitions_of(n)]
        for lam in shapes:
            for nu in shapes:
                padded = list(nu) + [0] * (len(lam) - len(nu))
                want = len(nu) <= len(lam) and all(a <= b for a, b in zip(padded, lam))
                assert contains(lam, nu) == want, (lam, nu)


class TestCorners:
    def test_rectangle(self):
        assert _shrunk(Partition([3, 3])) == [Partition([3, 2])]

    def test_column(self):
        assert _shrunk(Partition([1, 1, 1])) == [Partition([1, 1])]

    def test_two_corners(self):
        assert _shrunk(Partition([3, 1])) == [Partition([2, 1]), Partition([3])]

    def test_empty_has_no_corners(self):
        assert _shrunk(Partition()) == []

    def test_remove(self):
        assert _shrunk(Partition([1])) == [Partition()]
        assert all(type(m) is Partition for m in _shrunk(Partition([4, 2, 2, 1])))
        assert _shrunk(Partition([4, 2, 2, 1])) == [
            Partition([3, 2, 2, 1]), Partition([4, 2, 1, 1]), Partition([4, 2, 2])
        ]

    @given(parts_st)
    def test_corner_count_is_distinct_parts(self, lam):
        if not lam:
            return
        assert len(_shrunk(lam)) == len(set(lam))


class TestHookLengths:
    def test_two_rows(self):
        # forced by the hook formula: product must be 6!/5 = 144
        assert hook_lengths(Partition([3, 3])) == [4, 3, 2, 3, 2, 1]

    def test_single_box(self):
        assert hook_lengths(Partition([1])) == [1]

    def test_single_row(self):
        assert hook_lengths(Partition([5])) == [5, 4, 3, 2, 1]

    def test_reads_no_transpose(self, monkeypatch):
        # the oracle counts legs from the rows themselves
        monkeypatch.setattr(verification, "transpose", None)
        assert hook_lengths(Partition([3, 2, 2])) == [5, 4, 1, 3, 2, 2, 1]


class TestSkewHooks:
    def test_hook_is_leg_and_complement(self):
        assert SkewHook._fields == ("leg_length", "complement")
        assert not hasattr(partitions, "Cell")

    def test_dominoes_of_rectangle(self):
        hooks = skew_hooks(Partition([3, 3]), 2)
        assert {(h.leg_length, h.complement) for h in hooks} == {
            (0, Partition([3, 1])),
            (1, Partition([2, 2])),
        }

    def test_full_column(self):
        (hook,) = skew_hooks(Partition([1, 1, 1]), 3)
        assert hook.leg_length == 2
        assert hook.complement == Partition()

    def test_too_large(self):
        assert skew_hooks(Partition([3, 3]), 7) == []

    def test_beta_set_order(self):
        # beads of (5,2,2,2) sit at 8, 4, 3, 2; moving each down by 3
        # lands on 5, 1, 0 (free) or -1 (off the abacus)
        hooks = skew_hooks(Partition([5, 2, 2, 2]), 3)
        assert [(h.leg_length, h.complement) for h in hooks] == [
            (0, Partition([2, 2, 2, 2])),
            (2, Partition([5, 1, 1, 1])),
            (1, Partition([5, 2, 1])),
        ]

    def test_size_read_off_the_beads(self):
        # the size of a beta-set's decoded shape, with spare beads too
        for k in range(13):
            for lam in partitions_of(k):
                for beads in range(len(lam), len(lam) + 3):
                    mask = partitions._beta(lam, beads)
                    assert partitions._shape(mask).size == k, lam

    def test_complements_are_canonical(self):
        assert skew_hooks(Partition([1]), 1)[0].complement == Partition()
        assert skew_hooks(Partition([1]), 1)[0].complement.length == 0
        assert [h.complement for h in skew_hooks(Partition([3, 1, 1]), 5)] == [Partition()]
        for k in range(9):
            for lam in partitions_of(k):
                for r in range(1, k + 1):
                    for h in skew_hooks(lam, r):
                        assert type(h.complement) is Partition
                        assert 0 not in h.complement
                        assert h.complement == Partition(list(h.complement))

    def test_size_one_is_corners(self):
        for lam in partitions_of(6):
            hooks = skew_hooks(lam, 1)
            assert [h.complement for h in hooks] == _shrunk(lam)
            assert all(h.leg_length == 0 for h in hooks)

    @given(parts_st, st.integers(1, 6))
    def test_matches_bruteforce(self, lam, r):
        got = {(h.leg_length, h.complement) for h in skew_hooks(lam, r)}
        assert got == border_strips_bruteforce(lam).get(r, set())


def _border_strips_by_cells(lam):
    """Border strips of ``lam`` as sets of cells: every lam / mu that is
    non-empty, has no 2x2 block and is edge-connected by a search."""
    found = {r: set() for r in range(1, lam.size + 1)}
    for mu in subpartitions(lam):
        cells = {
            (i, j)
            for i in range(1, len(lam) + 1)
            for j in range((mu[i - 1] if i <= len(mu) else 0) + 1, lam[i - 1] + 1)
        }
        if not cells or any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells for i, j in cells):
            continue
        start = min(cells)
        seen, queue = {start}, [start]
        while queue:
            i, j = queue.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        if seen == cells:
            found[len(cells)].add((len({i for i, _ in cells}) - 1, mu))
    return found


def test_border_strips_by_rows_match_cell_search():
    # every outer shape of the default sweep, max_k + 4 = 12 boxes
    for n in range(13):
        for lam in partitions_of(n):
            assert border_strips_bruteforce(lam) == _border_strips_by_cells(lam), lam


class TestVerticalStrips:
    def test_column(self):
        assert vertical_strip_inners(Partition([1, 1])) == [
            Partition([1, 1]),
            Partition([1]),
            Partition(),
        ]

    def test_row(self):
        assert vertical_strip_inners(Partition([2])) == [Partition([2]), Partition([1])]

    def test_hook(self):
        assert vertical_strip_inners(Partition([2, 1])) == [
            Partition([2, 1]),
            Partition([2]),
            Partition([1, 1]),
            Partition([1]),
        ]

    @given(parts_st)
    def test_at_most_one_box_per_row(self, lam):
        for kappa in vertical_strip_inners(lam):
            assert contains(lam, kappa)
            padded = list(kappa) + [0] * (len(lam) - len(kappa))
            assert all(p - q in (0, 1) for p, q in zip(lam, padded))

    def test_blocks_match_the_mask_filter(self):
        shapes = [lam for n in range(13) for lam in partitions_of(n)]
        shapes += [Partition([2] * 8 + [1] * 8), Partition([3] * 6)]
        for lam in shapes:
            assert vertical_strip_inners(lam) == _vertical_strip_inners_by_masks(lam), lam

    def test_tall_column_has_one_inner_per_height(self):
        # one block of 40 equal parts: one inner per number of boxes taken
        assert vertical_strip_inners(Partition([1] * 40)) == [
            Partition([1] * k) for k in range(40, -1, -1)
        ]


def _vertical_strip_inners_by_masks(lam):
    """The reference: every way to take at most one box from each row, one
    mask per subset of rows, kept where the rows stay weakly decreasing."""
    inners = []
    for mask in range(1 << len(lam)):
        parts = [p - ((mask >> i) & 1) for i, p in enumerate(lam)]
        if all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)):
            if not parts or parts[-1] >= 0:
                inners.append(Partition(parts))
    inners.sort(reverse=True)
    return inners


def test_partitions_of_order_and_count():
    got = list(partitions_of(4))
    assert got == [
        Partition([4]),
        Partition([3, 1]),
        Partition([2, 2]),
        Partition([2, 1, 1]),
        Partition([1, 1, 1, 1]),
    ]
    assert len(list(partitions_of(8))) == 22


def test_generated_partitions_have_the_type():
    # these build their parts with ``_known_valid``, so nothing else would
    # catch a trailing 0 or an increase
    shapes = [lam for k in range(11) for lam in partitions_of(k)]
    shapes += [Partition([1] * 40), Partition([2] * 8 + [1] * 8), Partition([3] * 6)]
    for lam in shapes:
        decoded = partitions._shape(partitions._beta(lam, len(lam) + 2))
        produced = [transpose(lam), decoded, *vertical_strip_inners(lam),
                    *subpartitions(lam), *partitions_of(lam.size)]
        assert all(type(nu) is Partition for nu in produced), lam
        assert all(nu == Partition(list(nu)) for nu in produced), lam
        assert decoded == lam
    # r_primary and CycleType wrap their parts with ``_known_valid`` too
    produced = [sp.partition for r in range(1, 9) for h in range(20) for sp in r_primary(r, h)]
    produced += [CycleType(ct).cycles for ct in ([], [1], [1, 3, 2, 2])]
    produced += [CycleType(ct).support for ct in ([], [1], [1, 3, 2, 2])]
    assert all(type(nu) is Partition and nu == Partition(list(nu)) for nu in produced)


def test_subpartitions_contained_and_complete():
    lam = Partition([3, 2])
    subs = list(subpartitions(lam))
    assert len(subs) == len(set(subs))
    assert set(subs) == {
        nu for k in range(lam.size + 1) for nu in partitions_of(k) if contains(lam, nu)
    }


def _subpartitions_recursive(lam):
    """The recursive enumeration, kept as the reference for the order of
    ``subpartitions``."""

    def rec(i, cap, prefix):
        yield Partition(prefix)
        if i >= len(lam):
            return
        for part in range(1, min(cap, lam[i]) + 1):
            prefix.append(part)
            yield from rec(i + 1, part, prefix)
            prefix.pop()

    yield from rec(0, lam[0] if lam else 0, [])


def test_subpartitions_match_recursive_reference():
    for n in range(13):
        for lam in partitions_of(n):
            assert list(subpartitions(lam)) == list(_subpartitions_recursive(lam)), lam


def test_subpartitions_of_a_tall_column():
    # the recursive enumeration went one frame deeper per row
    column = Partition([1] * 1500)
    subs = list(subpartitions(column))
    assert len(subs) == 1501
    assert subs == [Partition([1] * k) for k in range(1501)]


def test_containment_sweep_catches_a_two_row_containment(monkeypatch):
    # a containment that compares only the top two rows; its first
    # failures and counts are those of one check per pair
    monkeypatch.setattr(
        verification,
        "contains",
        lambda lam, nu: len(nu) <= len(lam) and all(map(le, nu[:2], lam)),
    )
    result = check_partition_contains_transpose(Bounds())
    assert (result.checks, result.disagreements) == (74_256, 4_392)
    assert result.failures == [
        f"lam={lam} nu={nu}: containment not transpose-invariant"
        for lam, nu in (([3, 2], [3, 3]), ([2, 2, 1], [2, 2, 2]), ([4, 2], [3, 3]))
    ]


def test_containment_sweep_asks_contains_once_per_pair(monkeypatch):
    calls = 0

    def counted(lam, nu):
        nonlocal calls
        calls += 1
        return contains(lam, nu)

    monkeypatch.setattr(verification, "contains", counted)
    result = check_partition_contains_transpose(Bounds())
    # 272 shapes of at most 12 boxes: the check at (lam, nu) and the one at
    # (lam', nu') read the same two values, each asked once
    assert calls == 272 * 272
    assert (result.checks, result.disagreements) == (272 + 272 * 272, 0)


def test_containment_sweep_over_one_shape_and_none():
    # only the empty partition, then no shape at all: the transpose
    # permutation of one index still reads a row of one check
    assert check_partition_contains_transpose(Bounds(max_k=-4)).checks == 2
    assert check_partition_contains_transpose(Bounds(max_k=-5)).checks == 0


def test_shape_sweeps_beyond_the_reference_bounds():
    # both sweeps depend on max_k alone: 508 shapes of at most 14 boxes
    bounds = Bounds(max_k=10)
    result = check_partition_contains_transpose(bounds)
    assert (result.ok, result.checks) == (True, 258_572)
    result = check_skew_hook_bruteforce(bounds)
    assert (result.ok, result.checks) == (True, 11_698)


def test_invariant_sweeps():
    bounds = Bounds(max_k=8, max_r=6, n_window=7)
    for suite in (
        check_partition_corner_count,
        check_partition_contains_transpose,
        check_skew_hook_bruteforce,
        check_hook_product_divides_factorial,
    ):
        result = suite(bounds)
        assert result.ok, result.failures


def test_entry_points_read_any_sequence_of_parts():
    # a tuple or a list is read as the partition it spells, and a sequence
    # that is not one is refused, at each public entry point with a shape
    # argument, here the shape (3, 2, 1)
    on_shape = {
        "character_mn": lambda lam: character_mn(lam, CycleType([3, 1, 1, 1])),
        "char_poly": lambda lam: char_poly(lam, 2),
        "skew_syt_count outer": lambda lam: skew_syt_count(lam, Partition([1])),
        "skew_syt_count inner": lambda lam: skew_syt_count(Partition([4, 3, 2]), lam),
        "syt_count_backtracking outer": lambda lam: syt_count_backtracking(lam, Partition([1])),
        "syt_count_backtracking inner": lambda lam: syt_count_backtracking(
            Partition([4, 3, 2]), lam),
        "skew_hooks": lambda lam: skew_hooks(lam, 3),
        "coeff_b": lambda lam: coeff_b(lam, 3, 2),
        "border_strips_bruteforce": border_strips_bruteforce,
    }
    for entry, call in on_shape.items():
        want = call(Partition([3, 2, 1]))
        assert want, entry
        assert call((3, 2, 1)) == want and call([3, 2, 1, 0]) == want, entry
        with pytest.raises(NotWeaklyDecreasing):
            call([1, 2, 3])
    with pytest.raises(ValueError, match="hook size must be positive, got 0"):
        skew_hooks(Partition([2, 1]), 0)
