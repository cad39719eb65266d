"""The verify suites against mutants of the library kernels, and the shape
of their check sites.

Each mutant is a slip a speedup could plausibly make in one kernel.  The
suites it reaches must report the recorded number of disagreements and
name the recorded first counterexample, so an oracle that turns into a
tautology, or a check that describes the wrong case, fails here.
"""

import ast
import functools
import operator
import sys
from pathlib import Path

import pytest

import charpoly.binom_poly as binom_poly
import charpoly.characters as characters
import charpoly.partitions as partitions
import charpoly.stability as stability
import charpoly.tableaux as tableaux
import charpoly.verification as verification
from charpoly.cli import main
from charpoly.stability import Family, SignedPartition
from charpoly.verification import SUITES, Bounds
from test_tableaux import module_level_memos

_term = tableaux._Record.term
_strips = partitions._strips
_eval_poly = binom_poly.eval_poly
_r_primary = stability.r_primary
_b_vector = stability._b_vector
_peel = characters._peel
_at_cycle = characters._at_cycle
_mn = characters._mn
_skew_syt_count = tableaux.skew_syt_count
_beta_dim = tableaux._beta_dim
_dim_syt = tableaux.dim_syt
_transpose = partitions.transpose
_shape = partitions._shape
_shrunk = verification._shrunk


def _clear_memos():
    # a mutant's values stay in the memos after it is undone
    for memo in module_level_memos().values():
        memo.cache_clear()


def _det_negated_on_2x2(rec, alpha, beta):
    term = _term(rec, alpha, beta)
    return -term if len(alpha) == 2 else term


def _leg_plus_one_at_3(mask, r):
    for leg, rest in _strips(mask, r):
        yield leg + (r == 3), rest


def _eval_plus_one_at_13(p, x):
    return _eval_poly(p, x) + (x == 13)


def _type_three_part(lam, r, h):
    return sum(sp.sign * _skew_syt_count(lam, sp.partition) for sp in _r_primary(r, h)
               if sp.family is Family.TYPE_THREE)


def _b_vector_type_three_flipped_at_4(lam, rec, r, top):
    # the kernel's own walk of the third family, with its signs flipped at r = 4
    b = _b_vector(lam, rec, r, top)
    if r != 4:
        return b
    return tuple(bh - 2 * _type_three_part(lam, r, h) for h, bh in enumerate(b))


def _r_primary_type_three_flipped_at_4(r, h):
    return tuple(
        SignedPartition(sp.partition, -sp.sign, sp.family)
        if r == 4 and sp.family is Family.TYPE_THREE else sp
        for sp in _r_primary(r, h)
    )


def _peel_unsigned_at_2(layer, r):
    if r != 2:
        return _peel(layer, r)
    peeled = {}
    for mask, c in layer.items():
        for rest in _peel({mask: 1}, r):
            peeled[rest] = peeled.get(rest, 0) + c
    return peeled


def _at_cycle_unsigned_at_2(mask, r):
    if r != 2:
        return _at_cycle(mask, r)
    return sum(_beta_dim(rest) for rest in _peel({mask: 1}, r))


# on the leaves MN sums, not in the memo: a parent's f off by one would make
# the bead ratio non-integral, and the suites would crash instead of counting
def _leaf_dim_plus_one_at_4(mask, r):
    # f + 1 on each last-layer leaf of 4 boxes, under the leaf's sign
    return _at_cycle(mask, r) + sum(
        -1 if leg & 1 else 1 for leg, rest in _strips(mask, r) if _shape(rest).size == 4)


def _mn_leaf_plus_one_at_4(mu, cycles):
    # with no cycle left to peel, mu itself is the leaf
    return _mn(mu, cycles) + (not cycles and sum(mu) == 4)


def _ratio_sign_applied_twice(mask, r):
    # the peel's (-1)^leg on top of the sign the bead ratio carries, which
    # leaves each leaf's f unsigned
    return sum(_beta_dim(rest) for _, rest in _strips(mask, r))


# a sign flip, not a +1: a count off by one trips the integrality asserts
# of the kernels that divide by it, and the suites crash instead of counting
def _beta_dim_negated_at_5(mask):
    dim = _beta_dim(mask)
    return -dim if _shape(mask).size == 5 else dim


def _ratio_flipped_on_empty_leaves(mask, r):
    # the sign of each empty leaf, of f 1, flipped, on shapes of 2 rows or
    # more at r >= 3
    total = _at_cycle(mask, r)
    if r >= 3 and len(_shape(mask)) >= 2:
        for leg, rest in _strips(mask, r):
            if not _shape(rest):
                total += 2 if leg & 1 else -2
    return total


def _r_primary_first_type_three_dropped(r, h):
    # the third family's loop starts one u too late
    gamma = _r_primary(r, h)
    three = [sp for sp in gamma if sp.family is Family.TYPE_THREE]
    return tuple(sp for sp in gamma if not three or sp is not three[0])


def _ones_in_first_row(nu):
    v = nu.count(1)
    return partitions._known_valid([nu[0] + v, *nu[1:len(nu) - v]])


def _r_primary_type_three_ones_in_first_row(r, h):
    # (r+1-u+v, 2^u) for (r+1-u, 2^u, 1^v): of the right size, but short
    # enough to fit inside shapes past the vanishing bound
    return tuple(
        SignedPartition(_ones_in_first_row(sp.partition), sp.sign, sp.family)
        if sp.family is Family.TYPE_THREE else sp
        for sp in _r_primary(r, h)
    )


def _dim_syt_negated_at_5(mu):
    dim = _dim_syt(mu)
    return -dim if sum(mu) == 5 else dim


def _skew_count_plus_one_over_a_box(outer, inner):
    count = _skew_syt_count(outer, inner)
    return count + (inner == (1,) and len(outer) >= 3 and count != 0)


def _b_vector_off_past_max_r(lam, rec, r, top):
    # b[1] one too large past verify's default max_r, where the dimension
    # row of every shape with lam_1 + len(lam) >= 7 is read
    b = _b_vector(lam, rec, r, top)
    return (b[0], b[1] + 1, *b[2:]) if r >= 7 and len(b) > 1 else b


def _b_vector_short_by_one(lam, rec, r, top):
    # the sum stops one h early, as range(top) would
    return _b_vector(lam, rec, r, top - 1) + (0,)


def _frobenius_first_parity_even(rec, alpha, beta):
    # the sign (-1)^(sum beta) dropped on a record of lam itself
    term = _term(rec, alpha, beta)
    return term if rec.transposed or not sum(beta) & 1 else -term


def _term_parity_before_swap(rec, alpha, beta):
    # on a record of the conjugate the sign comes from the caller's beta,
    # not the swapped one
    term = _term(rec, alpha, beta)
    return -term if rec.transposed and (sum(alpha) + sum(beta)) & 1 else term


def _transpose_fixes_two_row_rectangles(lam):
    return lam if len(lam) == 2 and lam[0] == lam[1] else _transpose(lam)


def _contains_ignoring_last_part(lam, nu):
    return nu <= lam and len(nu) <= len(lam) and all(map(operator.le, nu[:-1], lam))


def _transpose_pads_a_zero(lam):
    # the conjugate with a trailing 0 part, a tuple off the list of shapes
    return partitions._known_valid([*_transpose(lam), 0])


def _shrunk_misses_last_row(lam):
    return [nu for nu in _shrunk(lam) if len(nu) == len(lam)]


def _interpolate_differences_backwards(values, shift):
    # each difference taken as a - b, which negates the odd coefficients
    diffs, coeffs = list(values), []
    while diffs:
        coeffs.append(diffs[0])
        diffs = [a - b for a, b in zip(diffs, diffs[1:])]
    return binom_poly.BinomPoly(shift, coeffs)


_TRANSPOSE_SLIP = [(module, "transpose", _transpose_fixes_two_row_rectangles)
                   for module in (partitions, tableaux, characters, verification)]


# name -> (every binding the mutant replaces, {suite: (disagreements, first failure)})
MUTANTS = {
    "det_negated_on_2x2": (
        [(tableaux._Record, "term", _det_negated_on_2x2)],
        {
            "skew_recursion": (
                1969, "lam=[2, 2] nu=[2, 1]: count 1, corner sum 1, growth sum -1"),
            "skew_count_vs_backtracking": (171, "outer=[2, 2] inner=[2, 2]: counts differ"),
            "constant_coeff_routes": (52, "lam=[2, 2] r=2: primary -1, strips -1, main 1"),
        },
    ),
    # MN's last cycle takes each leaf's sign from the bead ratio, not the
    # leg, so MN at one cycle, all the kernel suites compare with, is right
    "leg_plus_one_at_3": (
        [(partitions, "_strips", _leg_plus_one_at_3),
         (characters, "_strips", _leg_plus_one_at_3),
         (verification, "_strips", _leg_plus_one_at_3)],
        {
            "skew_hook_bruteforce": (
                661, "lam=[3] r=3: malformed hook SkewHook(leg_length=1, complement=Partition())"),
            "recpart_vs_mn": (196, "lam=[] support=[3, 2] n=6: recpart 1 != mn -1"),
            "mn_peel_order": (132, "mu=[3] ct=[3]: peel order changed value 1 -> -1"),
            "recpart_band": (179, "lam=[] support=[3, 2] n=5: recpart 1 != mn -1"),
        },
    ),
    "eval_plus_one_at_13": (
        [(binom_poly, "eval_poly", _eval_plus_one_at_13),
         (characters, "eval_poly", _eval_plus_one_at_13),
         (verification, "eval_poly", _eval_plus_one_at_13)],
        {
            "recpart_vs_mn": (121, "lam=[2] support=[] n=13: recpart 66 != mn 65"),
            "binom_round_trip": (
                5, "round trip failed for BinomPoly(shift=8, coeffs=(-2, -1, -1, -4, -4, 1))"),
            "reshift_preserves_values": (
                9, "reshift round trip failed for "
                   "BinomPoly(shift=7, coeffs=(7, 7, -8, -9, -9, -1, -8, -2, -3))"),
            "main_oracle": (197, "lam=[1] r=5 n=13: poly 8 != mn 7"),
            "frobenius_route": (45, "lam=[3] n=13: poly 121 != frobenius 120"),
            "main_band": (8, "lam=[5] r=4 n=13: poly 9 != mn 8"),
            "recpart_band": (55, "lam=[4] support=[] n=13: recpart 430 != mn 429"),
        },
    ),
    # the kernel and r_primary walk the three families each on their own,
    # so the same slip gets one row in each: the kernel's shows against MN
    # and interpolation, r_primary's against the vertical-strip constant
    "type_three_signs_flipped_at_4": (
        [(stability, "_b_vector", _b_vector_type_three_flipped_at_4)],
        {
            "main_oracle": (175, "lam=[5] r=4 n=14: poly 53 != mn 51"),
            "interpolation_route": (
                4, "lam=[5] r=4: interpolated (-1, 1, 0, 0, -1, 1) != (1, 1, 0, 0, -1, 1)"),
            "constant_coeff_routes": (14, "lam=[5] r=4: primary 1, strips 1, main -1"),
            "main_band": (16, "lam=[5] r=4 n=10: poly -2 != mn -4"),
        },
    ),
    "r_primary_type_three_flipped_at_4": (
        [(stability, "r_primary", _r_primary_type_three_flipped_at_4)],
        {
            "constant_coeff_routes": (14, "lam=[5] r=4: primary -1, strips 1, main 1"),
        },
    ),
    "peel_unsigned_at_2": (
        [(characters, "_peel", _peel_unsigned_at_2),
         (verification, "_peel", _peel_unsigned_at_2),
         (characters, "_at_cycle", _at_cycle_unsigned_at_2)],
        {
            "frobenius_vs_mn": (58, "mu=[2, 2]: frobenius 0 != mn 2"),
            "recpart_vs_mn": (128, "lam=[2, 1] support=[2] n=11: recpart 103 != mn 105"),
            "mn_peel_order": (252, "mu=[1, 1] ct=[2]: peel order changed value -1 -> 1"),
            "column_orthogonality": (4, "n=4 ct=[2, 1, 1]: 8 != centralizer order"),
            "main_oracle": (294, "lam=[1, 1] r=2 n=5: poly 0 != mn 2"),
            "interpolation_route": (16, "lam=[1, 1] r=2: interpolated (2, -1, 1) != (0, -1, 1)"),
            "main_band": (22, "lam=[2] r=2 n=4: poly 0 != mn 2"),
            "recpart_band": (289, "lam=[1] support=[2, 2] n=4: recpart -1 != mn 1"),
        },
    ),
    "leaf_dim_plus_one_at_4": (
        [(characters, "_at_cycle", _leaf_dim_plus_one_at_4),
         (characters, "_mn", _mn_leaf_plus_one_at_4)],
        {
            "mn_identity_is_dimension": (
                5, "mu=[4]: MN peel 1, MN at identity 2, tableaux 1 differ"),
            "frobenius_vs_mn": (6, "mu=[6]: frobenius 1 != mn 2"),
            "recpart_vs_mn": (25, "lam=[] support=[2] n=6: recpart 1 != mn 2"),
            "mn_peel_order": (55, "mu=[4] ct=[1, 1, 1, 1]: peel order changed value 2 -> 1"),
            "column_orthogonality": (2, "n=4 ct=[1, 1, 1, 1]: 49 != centralizer order"),
            "main_oracle": (26, "lam=[] r=1 n=4: poly 1 != mn 2"),
            "interpolation_route": (9, "lam=[1] r=1: interpolated (-2, 2) != (0, 1)"),
            "main_band": (21, "lam=[2] r=1 n=4: poly 2 != mn 3"),
            "recpart_band": (99, "lam=[] support=[] n=4: recpart 1 != mn 2"),
        },
    ),
    "ratio_sign_applied_twice": (
        [(characters, "_at_cycle", _ratio_sign_applied_twice)],
        {
            "frobenius_vs_mn": (58, "mu=[2, 2]: frobenius 0 != mn 2"),
            "recpart_vs_mn": (251, "lam=[1, 1] support=[2] n=9: recpart 14 != mn 16"),
            "mn_peel_order": (300, "mu=[2, 1] ct=[3]: peel order changed value 1 -> -1"),
            "column_orthogonality": (4, "n=4 ct=[2, 1, 1]: 8 != centralizer order"),
            "main_oracle": (805, "lam=[1, 1] r=2 n=5: poly 0 != mn 2"),
            "interpolation_route": (
                31, "lam=[1, 1] r=2: interpolated (2, -1, 1) != (0, -1, 1)"),
            "main_band": (130, "lam=[1] r=3 n=3: poly -1 != mn 1"),
            "recpart_band": (475, "lam=[1] support=[3] n=3: recpart -1 != mn 1"),
        },
    ),
    # MN reads f at one size per value, that of the shapes its last cycle is
    # read off, so the slip negates whole values: column_orthogonality, a
    # sum of squares, cannot see it
    "beta_dim_negated_at_5": (
        [(tableaux, "_beta_dim", _beta_dim_negated_at_5),
         (characters, "_beta_dim", _beta_dim_negated_at_5)],
        {
            "skew_recursion": (160, "lam=[5] nu=[]: count -1, corner sum 1, growth sum -1"),
            "skew_count_vs_backtracking": (58, "outer=[5] inner=[]: counts differ"),
            "dim_equals_skew_over_empty": (7, "lam=[5]: hook formula != skew count"),
            "mn_identity_is_dimension": (
                7, "mu=[5]: MN peel 1, MN at identity -1, tableaux 1 differ"),
            "frobenius_vs_mn": (6, "mu=[5]: frobenius 1 != mn -1"),
            "recpart_vs_mn": (10, "lam=[] support=[2, 2] n=7: recpart 1 != mn -1"),
            "mn_peel_order": (79, "mu=[5] ct=[5]: peel order changed value -1 -> 1"),
            "main_oracle": (301, "lam=[] r=1 n=5: poly 1 != mn -1"),
            "coefficient_recurrence": (443, "lam=[5] h=0 r=1: -1 != corner sum 1"),
            "leading_coefficient": (42, "lam=[5] r=1: b[0] = -1 != dim"),
            "interpolation_route": (33, "lam=[1] r=2: interpolated (7, -3) != (-1, 1)"),
            "frobenius_route": (47, "lam=[5] n=12: poly -117 != frobenius 117"),
            "constant_coeff_routes": (13, "lam=[5] r=4: primary 1, strips 1, main -1"),
            "basis2_forms": (
                4, "case 1 k=5: char_poly b [-1, -1, 0, 0, 0, 0] "
                   "!= closed form [1, 1, 0, 0, 0, 0]"),
            "main_band": (73, "lam=[2] r=2 n=5: poly 1 != mn -1"),
            "recpart_band": (86, "lam=[] support=[] n=5: recpart 1 != mn -1"),
        },
    ),
    # MN's last cycle counts the empty leaf by the ratio; no oracle hands it f
    "ratio_flipped_on_empty_leaves": (
        [(characters, "_at_cycle", _ratio_flipped_on_empty_leaves)],
        {
            "mn_peel_order": (60, "mu=[2, 1] ct=[3]: peel order changed value 1 -> -1"),
            "main_band": (3, "lam=[1] r=3 n=3: poly -1 != mn 1"),
            "recpart_band": (17, "lam=[1] support=[3] n=3: recpart -1 != mn 1"),
        },
    ),
    "dim_syt_negated_at_5": (
        [(module, "dim_syt", _dim_syt_negated_at_5)
         for module in (tableaux, characters, verification)],
        {
            "hook_product_divides_factorial": (7, "lam=[5]: dim times hook product != size!"),
            "syt_branching": (18, "lam=[5]: dim -1 != corner sum 1"),
            "dim_equals_skew_over_empty": (7, "lam=[5]: hook formula != skew count"),
            "frobenius_vs_mn": (6, "mu=[5]: frobenius -1 != mn 1"),
            "leading_coefficient": (42, "lam=[5] r=1: b[0] = 1 != dim"),
            "frobenius_route": (2, "lam=[] n=5: poly 1 != frobenius -1"),
        },
    ),
    "skew_count_plus_one_over_a_box": (
        [(tableaux, "skew_syt_count", _skew_count_plus_one_over_a_box),
         (verification, "skew_syt_count", _skew_count_plus_one_over_a_box),
         (verification, "_skew_count", _skew_count_plus_one_over_a_box)],
        {
            "skew_recursion": (
                446, "lam=[1, 1, 1] nu=[]: count 1, corner sum 1, growth sum 2"),
            "column_removal_difference": (103, "lam=[1, 1, 1] h=2: 1 != 0"),
            "skew_count_vs_backtracking": (42, "outer=[1, 1, 1] inner=[1]: counts differ"),
            "coefficient_recurrence": (140, "lam=[1, 1, 1] h=1 r=2: 2 != corner sum 1"),
            "transpose_small_h": (42, "lam=[1, 1, 1] h=1: b2 2 != transposed a 1"),
        },
    ),
    "frobenius_first_parity_even": (
        [(tableaux._Record, "term", _frobenius_first_parity_even)],
        {
            "skew_recursion": (
                3551, "lam=[2, 1] nu=[1]: count 2, corner sum 2, growth sum 0"),
            "column_removal_difference": (132, "lam=[2, 1] h=2: 3 != 1"),
            "skew_count_vs_backtracking": (211, "outer=[2, 1] inner=[1, 1]: counts differ"),
            "coefficient_recurrence": (133, "lam=[2, 1] h=2 r=3: -1 != corner sum 1"),
            "transpose_small_h": (30, "lam=[2, 1] h=2: b2 1 != transposed a -1"),
            "constant_coeff_routes": (29, "lam=[2, 1] r=1: primary -1, strips -1, main 1"),
        },
    ),
    "term_parity_before_swap": (
        [(tableaux._Record, "term", _term_parity_before_swap)],
        {
            "skew_recursion": (
                3840, "lam=[1, 1] nu=[1]: count 1, corner sum 1, growth sum -1"),
            "column_removal_difference": (267, "lam=[1, 1] h=2: 2 != 0"),
            "skew_count_vs_backtracking": (162, "outer=[1, 1] inner=[1, 1]: counts differ"),
            "main_oracle": (1078, "lam=[1, 1] r=3 n=6: poly -1 != mn 1"),
            "coefficient_recurrence": (133, "lam=[2, 1] h=2 r=3: 1 != corner sum -1"),
            "transpose_small_h": (49, "lam=[2] h=2: b2 1 != transposed a -1"),
            "interpolation_route": (
                38, "lam=[1, 1] r=3: interpolated (1, -1, 1) != (-1, -1, 1)"),
            "frobenius_route": (147, "lam=[2, 1, 1] n=8: poly -30 != frobenius 0"),
            "constant_coeff_routes": (32, "lam=[1, 1] r=3: primary 1, strips 1, main -1"),
            "basis2_forms": (
                24, "case 2 k=4: char_poly b [3, 3, -1, 0, 0] "
                    "!= closed form [3, 3, 1, 0, 0]"),
            "main_band": (100, "lam=[1, 1] r=3 n=3: poly -1 != mn 1"),
        },
    ),
    # the dimension row is char_poly at r = lam_1 + len(lam), past max_r = 6
    # for every shape with lam_1 + len(lam) >= 7, which coeff_b never reads
    "stable_vector_off_past_max_r": (
        [(stability, "_b_vector", _b_vector_off_past_max_r)],
        {
            "limit_stabilization": (324, "lam=[6] h=1 r=2: 1 != a_vector 2"),
            "transpose_small_h": (36, "lam=[6] h=1: b2 1 != transposed a 2"),
        },
    ),
    "b_vector_short_by_one": (
        [(stability, "_b_vector", _b_vector_short_by_one)],
        {
            "main_oracle": (1848, "lam=[] r=1 n=1: poly 0 != mn 1"),
            "leading_coefficient": (6, "lam=[] r=1: b[0] = 0 != dim"),
            "interpolation_route": (77, "lam=[] r=1: interpolated (1,) != ()"),
            "frobenius_route": (322, "lam=[] n=2: poly 0 != frobenius 1"),
            "basis2_forms": (22, "case 1 k=0: char_poly b [0] != closed form [1]"),
            "main_band": (168, "lam=[1] r=2 n=2: poly 0 != mn -1"),
        },
    ),
    # coeff_b and the size law read r_primary; the kernel walks the
    # families with loops of its own, so no MN suite sees these two
    "r_primary_first_type_three_dropped": (
        [(stability, "r_primary", _r_primary_first_type_three_dropped)],
        {
            "transpose_small_h": (42, "lam=[3] h=3: b2 0 != transposed a 1"),
            "gamma_size_law": (72, "r=1 h=2: |Gamma| = 0 != 1"),
            "constant_coeff_routes": (33, "lam=[2] r=1: primary 0, strips -1, main -1"),
            "transposition_split": (117, "lam=[3] h=3: 1 - 0 != b2 0"),
        },
    ),
    "r_primary_type_three_ones_in_first_row": (
        [(stability, "r_primary", _r_primary_type_three_ones_in_first_row)],
        {
            "vanishing_bound": (
                132, "lam=[3] h=3 r=1: expected 0 past length+r, got -1"),
            "constant_coeff_routes": (98, "lam=[3] r=1: primary -1, strips 0, main 0"),
            "transposition_split": (127, "lam=[4] h=4: 0 - 0 != b2 1"),
        },
    ),
    "contains_ignoring_last_part": (
        [(module, "contains", _contains_ignoring_last_part)
         for module in (partitions, tableaux, verification)],
        {
            "partition_contains_transpose": (
                2440, "lam=[3, 1] nu=[2, 2]: containment not transpose-invariant"),
        },
    ),
    "transpose_fixes_two_row_rectangles": (
        _TRANSPOSE_SLIP,
        {
            "partition_contains_transpose": (291, "lam=[2]: transpose not an involution"),
            "skew_recursion": (3, "lam=[1, 1] nu=[1]: count 1, corner sum 1, growth sum 0"),
            "column_removal_difference": (1, "lam=[1, 1] h=2: 1 != 0"),
            "skew_count_vs_backtracking": (1, "outer=[1, 1] inner=[1, 1]: counts differ"),
            "frobenius_vs_mn": (4, "mu=[1, 1]: frobenius 0 != mn 1"),
            "mn_peel_order": (1, "mu=[1, 1] ct=[2]: peel order changed value 1 -> -1"),
            "main_oracle": (28, "lam=[1, 1] r=3 n=6: poly 0 != mn 1"),
            "coefficient_recurrence": (8, "lam=[2, 1] h=2 r=3: 1 != corner sum 0"),
            "transpose_small_h": (5, "lam=[2] h=2: b2 1 != transposed a 0"),
            "interpolation_route": (2, "lam=[1, 1] r=3: interpolated (1, -1, 1) != (0, -1, 1)"),
            "constant_coeff_routes": (4, "lam=[1, 1] r=3: primary 1, strips 1, main 0"),
            "main_band": (7, "lam=[1] r=2 n=2: poly -1 != mn 1"),
            "recpart_band": (1, "lam=[1] support=[2] n=2: recpart -1 != mn 1"),
        },
    ),
    # counted, not a KeyError: the containment sweep indexes off-list transposes
    "transpose_pads_a_zero": (
        [(verification, "transpose", _transpose_pads_a_zero)],
        {
            "partition_contains_transpose": (272, "lam=[]: transpose not an involution"),
        },
    ),
    # the suites' own corner list drops the corner that empties lam's
    # last row
    "shrunk_misses_last_row": (
        [(verification, "_shrunk", _shrunk_misses_last_row)],
        {
            "partition_corner_count": (195, "lam=[1]: corners != distinct part values"),
            "syt_branching": (195, "lam=[1]: dim 1 != corner sum 0"),
            "skew_recursion": (
                5011, "lam=[2, 1] nu=[]: count 2, corner sum 1, growth sum 2"),
            "coefficient_recurrence": (1148, "lam=[1] h=0 r=1: 1 != corner sum 0"),
        },
    ),
    # the interpolation the round-trip and difference suites read
    "interpolate_differences_backwards": (
        [(verification, "interpolate", _interpolate_differences_backwards)],
        {
            "binom_round_trip": (
                36, "round trip failed for BinomPoly(shift=6, coeffs=(-8, 2, -9, 6, -8, 9))"),
            "reshift_preserves_values": (
                268, "reshift to -3 changed "
                     "BinomPoly(shift=7, coeffs=(7, 7, -8, -9, -9, -1, -8, -2, -3))"),
            "forward_difference_coeffs": (90, "coeff 1: 6 != forward difference -6"),
            "interpolation_route": (116, "lam=[1] r=1: interpolated (4, 1) != (0, 1)"),
        },
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_suites_catch_mutant(mutant, monkeypatch):
    patches, want = MUTANTS[mutant]
    _clear_memos()
    try:
        for module, name, fake in patches:
            monkeypatch.setattr(module, name, fake)
        got = {}
        for suite in want:
            res = dict(SUITES)[suite](Bounds())
            got[suite] = (res.disagreements, res.failures[0] if res.failures else None)
    finally:
        monkeypatch.undo()
        _clear_memos()
    assert got == want


def _tall_residue_disagreements():
    """(cases, the (lam, r, n) where they differ) of the residue route at
    (n - k, lam) against char_poly(lam, r) at n, over tall lam: every lam
    of at most 8 boxes with more rows than columns, the columns (1^9) to
    (1^12) and (2^m, 1^j) for 1 <= m <= 4 and 5 <= j <= 7, at r <= 6 and
    every n from k + lam_1 + r to 3 past it."""
    lams = {lam for k in range(9) for lam in verification.partitions_of(k)
            if lam and len(lam) > lam[0]}
    lams |= {partitions.Partition([1] * c) for c in range(9, 13)}
    lams |= {partitions.Partition([2] * m + [1] * j) for m in range(1, 5) for j in range(5, 8)}
    cases, bad = 0, []
    for lam in sorted(lams):
        k = lam.size
        for r in range(1, 7):
            poly = stability.char_poly(lam, r).poly
            for n in range(k + lam[0] + r, k + lam[0] + r + 4):
                cases += 1
                mu = partitions.Partition([n - k, *lam])
                if verification.character_residue(mu, r) != _eval_poly(poly, n):
                    bad.append((lam, r, n))
    return cases, bad


def test_residue_route_matches_char_poly_on_tall_shapes():
    # a tall lam's record holds its conjugate, so this runs the swapped
    # orientation of _Record.term against a route that shares no code with it
    assert _tall_residue_disagreements() == (1_008, [])


def test_residue_route_catches_beta_dim_without_mn(monkeypatch):
    # the residue route counts f by the hook formula, so a _beta_dim slip
    # shows without MN
    _clear_memos()
    try:
        for module in (tableaux, characters):
            monkeypatch.setattr(module, "_beta_dim", _beta_dim_negated_at_5)
        cases, bad = _tall_residue_disagreements()
    finally:
        monkeypatch.undo()
        _clear_memos()
    assert (cases, len(bad), bad[0]) == (1_008, 68, (partitions.Partition([1] * 5), 1, 7))


_SMALL_VERIFY = ["--max-k", "4", "--max-r", "3", "--n-window", "2"]


def _verify_under(patches, monkeypatch, capsys, bounds=_SMALL_VERIFY):
    """(exit code, stdout, stderr) of ``verify`` at ``bounds`` (small ones
    by default) with ``patches`` in place."""
    _clear_memos()
    try:
        for module, name, fake in patches:
            monkeypatch.setattr(module, name, fake)
        code = main(["verify", *bounds])
    finally:
        monkeypatch.undo()
        _clear_memos()
    return (code, *capsys.readouterr())


def test_transpose_slip_fails_with_counterexamples(monkeypatch, capsys):
    # the hook-length oracle reads no transpose, so the slip is a
    # counterexample in every suite it reaches, not a crash
    code, out, err = _verify_under(_TRANSPOSE_SLIP, monkeypatch, capsys)
    *suites, verdict = [line for line in out.splitlines() if not line.startswith(("#", "band "))]
    failed = [line for line in suites if line.startswith("FAIL ")]
    assert (code, err) == (1, "")
    assert verdict.startswith(f"FAIL {len(suites) - len(failed)}/{len(suites)} properties")
    assert failed[0].endswith("; first: lam=[2]: transpose not an involution")
    assert all("; first: " in line for line in failed)


def test_stable_vector_slip_past_max_r_fails_verify(monkeypatch, capsys):
    # the slip corrupts the dimension row of every table of a shape with
    # lam_1 + len(lam) >= 7, so verify at its defaults must not pass it
    patches = MUTANTS["stable_vector_off_past_max_r"][0]
    code, out, err = _verify_under(patches, monkeypatch, capsys, bounds=[])
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")]
    assert (code, err) == (1, "")
    assert failed[:2] == ["limit_stabilization", "transpose_small_h"]


def test_ratio_slip_on_empty_leaves_fails_verify(monkeypatch, capsys):
    # no oracle fills MN's memo, so MN counts each empty leaf by the
    # ratio itself and the ascending peel, which reads no f, disagrees
    patches = MUTANTS["ratio_flipped_on_empty_leaves"][0]
    code, out, err = _verify_under(patches, monkeypatch, capsys, bounds=[])
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert (code, err) == (1, "")
    assert failed[0].split()[1] == "mn_peel_order"
    assert failed[0].endswith("; first: mu=[2, 1] ct=[3]: peel order changed value 1 -> -1")


def _contains_without_length_test(lam, nu):
    return nu <= lam and all(map(operator.le, nu, lam))


def test_kernel_crash_under_verify_exits_3(monkeypatch, capsys):
    # skew_syt_count then indexes past the rows of its outer shape
    patches = [(module, "contains", _contains_without_length_test)
               for module in (partitions, tableaux, verification)]
    code, out, err = _verify_under(patches, monkeypatch, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: IndexError: ") and err.count("\n") == 1


def _subpartitions_first_row_stuck(lam):
    # subpartitions with the cap on each lower row by the row above it
    # dropped, and the first row never growing: it yields non-partitions
    rows = len(lam)
    parts = []
    while True:
        yield partitions._known_valid(parts)
        if len(parts) < rows:
            parts.append(1)
            continue
        while parts:
            i = len(parts) - 1
            p = parts[i] + 1
            if p <= lam[i] and (i != 0 or p <= parts[i - 1]):
                parts[i] = p
                break
            parts.pop()
        else:
            return


def test_library_bug_under_verify_exits_3_not_2(monkeypatch, capsys):
    # the slip's non-partitions raise inside the sweeps; that is an
    # internal error, not a usage error, however the library words it
    patches = [(verification, "subpartitions", _subpartitions_first_row_stuck)]
    code, out, err = _verify_under(patches, monkeypatch, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1


def _reach(module, call):
    """The functions of ``module`` that ``call()`` enters, by qualified
    name, seen with ``sys.setprofile`` only, from empty memos, so that
    nothing is hidden behind a hit; a generator expression or a nested
    function counts as the function it is written in."""
    _clear_memos()
    reached = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and frame.f_globals.get("__name__") == module.__name__:
            reached.add(getattr(code, "co_qualname", code.co_name).split(".<locals>")[0])

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return reached


def test_char_poly_and_coeff_b_share_no_stability_function():
    # the first entry of an oracle-independence ledger: the kernel and the
    # definition it is checked against reach disjoint parts of stability,
    # so a slip in one family cannot land on both sides of a suite
    pairs = [(lam, r) for k in range(7) for lam in verification.partitions_of(k)
             for r in range(1, 8)]
    kernel = _reach(stability, lambda: [stability.char_poly(lam, r) for lam, r in pairs])
    oracle = _reach(stability, lambda: [verification.coeff_b(lam, h, r) for lam, r in pairs
                                       for h in range(lam.size + 1)])
    assert "_b_vector" in kernel and "r_primary" in oracle
    assert not kernel & oracle, kernel & oracle


@pytest.mark.parametrize(
    "suite", ["limit_stabilization", "transpose_small_h", "constant_coeff_routes"])
def test_kernel_suites_reach_kernel_and_definition(suite):
    # the next entry of the ledger: each of these suites holds the kernel
    # (_b_vector, through char_poly or a_vector) against the definition
    # (coeff_b or the r-sign, through r_primary), so neither side checks
    # itself.  Outside stability both sides share tableaux._Record.term,
    # as every kernel-versus-definition suite does: the kernel sums its
    # terms off the hook table, and coeff_b reads each count through
    # skew_syt_count, one term of the same table
    reached = _reach(stability, lambda: dict(SUITES)[suite](Bounds(5, 4, 3)))
    assert {"_b_vector", "r_primary"} <= reached, reached


def _recpart_polys():
    supports = tuple(verification._cycle_supports(5))
    for k in range(5):
        for lam in verification.partitions_of(k):
            verification._recpart(lam, supports)


def test_backtracking_reaches_no_tableaux_function():
    # the ledger's entry for the skew-count oracle: it fills cells and
    # reads nothing of tableaux (no hook table, no hook formula, no
    # beta-number count), so a slip there cannot land on both sides of
    # skew_count_vs_backtracking or mn_identity_is_dimension
    pairs = [(outer, inner) for k in range(7) for outer in verification.partitions_of(k)
             for inner in verification.subpartitions(outer)]
    sweep = lambda: [verification.syt_count_backtracking(*pair) for pair in pairs]
    assert _reach(tableaux, sweep) == set()
    assert {"_fillings", "_fill"} <= _reach(verification, sweep)


def test_strip_oracle_reaches_no_beta_set_code():
    # the ledger's entry for skew_hook_bruteforce: the oracle reads lam / mu
    # row by row and never the beta-set codec or the strip step that
    # skew_hooks decodes, so the suite never holds the strip step against
    # itself
    shapes = [lam for k in range(9) for lam in verification.partitions_of(k)]
    beta_code = {"_beta", "_beads", "_shape", "_strips"}
    oracle = _reach(partitions, lambda: [verification.border_strips_bruteforce(lam)
                                         for lam in shapes])
    checked = _reach(partitions, lambda: [verification.skew_hooks(lam, r) for lam in shapes
                                          for r in range(1, lam.size + 1)])
    assert not oracle & beta_code, oracle & beta_code
    assert {"_beta", "_strips", "_shape"} <= checked, checked


def _ascending_values():
    for n in range(7):
        cts = list(verification.partitions_of(n))
        walk = verification._ascending_walk(cts)
        for mu in cts:
            verification._mn_ascending(mu, walk)


@pytest.mark.parametrize("oracle", [_recpart_polys, _ascending_values])
def test_mn_oracles_reach_no_mn_dimension(oracle):
    # the ledger's entry for the character oracles: the vertical-strip
    # polynomial and the ascending peel share only the peel step (_peel,
    # _strips) with character_mn, and never its memo of dimensions, the
    # bead ratio or the beta-number count; so a slip in MN's f shows as a
    # disagreement, not as a value the oracle handed MN
    mn_only = {characters: {"_at_cycle", "_dim"},
               tableaux: {"_beta_dim"}}
    for module, names in mn_only.items():
        reached = _reach(module, oracle)
        assert not reached & names, reached & names
    assert "_peel" in _reach(characters, oracle)


def test_vanishing_bound_asks_the_pair_memo_nothing():
    # past len(lam) + r no r-primary fits inside lam, and coeff_b skips a
    # primary that cannot fit before it asks the memo
    _clear_memos()
    try:
        res = verification.check_vanishing_bound(Bounds())
        assert res.ok and res.checks > 0
        assert verification._skew_count.cache_info().currsize == 0
    finally:
        _clear_memos()


def test_skew_recursion_asks_the_pair_memo_nothing():
    # it reads each of its pairs once, straight from skew_syt_count
    _clear_memos()
    try:
        res = verification.check_skew_recursion(Bounds())
        assert res.ok and res.checks == 8_583
        assert verification._skew_count.cache_info().currsize == 0
    finally:
        _clear_memos()


def test_pair_memo_keeps_only_the_pairs_asked_again():
    # coeff_b, _count_if_fits, the backtracking sweep and the dimension
    # sweep; the skew recursion's 8,855 pairs are not among them
    _clear_memos()
    try:
        assert all(res.ok for res in verification.run_suites(Bounds()))
        assert verification._skew_count.cache_info().currsize == 1_298
    finally:
        _clear_memos()


def test_recpart_polynomial_made_once_per_lam_and_support(monkeypatch):
    # one batch per lam, which both suites share, makes each (lam, support)
    # polynomial once
    made, pairs = [], []

    def recorded(lam, supports):
        made.append(lam)
        polys = characters.recpart_polys(lam, supports)
        pairs.extend((lam, support) for support in polys)
        return polys

    monkeypatch.setattr(verification, "recpart_polys", recorded)
    _clear_memos()
    try:
        for suite in (verification.check_recpart_vs_mn, verification.check_recpart_band):
            assert suite(Bounds()).checks > 0
    finally:
        _clear_memos()
    assert len(made) == len(set(made)) == 19
    assert len(pairs) == len(set(pairs)) == 209


def test_recpart_counts_f_once_per_final_shape_of_a_lam(monkeypatch):
    # the hook formula runs once per beta-set a batch ends on, not once
    # per (support, shape): 1,042 counts when each support was built alone
    counted = []

    def recorded(shape):
        counted.append(shape)
        return _dim_syt(shape)

    monkeypatch.setattr(characters, "dim_syt", recorded)
    _clear_memos()
    try:
        for suite in (verification.check_recpart_vs_mn, verification.check_recpart_band):
            assert suite(Bounds()).ok
    finally:
        _clear_memos()
    assert len(counted) == 110


def test_identity_sweep_fills_one_backtracking_memo(monkeypatch):
    # every dimension is counted upward from the empty inner, so the 139
    # shapes share one memo (one per shape when the memo was kept per
    # outer), and the sweep, its last reader, drops it at its end
    made = []

    def recorded(inner):
        made.append(memo := real(inner))
        return memo

    real = verification._fillings.__wrapped__
    monkeypatch.setattr(verification, "_fillings", functools.lru_cache(maxsize=1)(recorded))
    res = verification.check_mn_identity_is_dimension(Bounds())
    assert res.ok and res.checks == 139
    assert len(made) == 1 and len(made[0][1]) == 139
    assert verification._fillings.cache_info().currsize == 0


def test_down_sets_hold_the_shared_shape_objects():
    # listed once per process, in the order of subpartitions, from the
    # objects _partitions holds; so are the cells that grow each inner
    for lam in verification._shapes_upto(9):
        down = verification._down_set(lam)
        assert down is verification._down_set(lam)
        assert list(down) == list(verification.subpartitions(lam)) and down[-1] == lam
        assert all(nu is verification._partitions(nu.size)[nu] for nu in down)
        grown = verification._grown(lam)
        assert grown == [nu for nu in verification._partitions(lam.size + 1)
                         if partitions.contains(nu, lam)]
        assert all(nu is verification._partitions(nu.size)[nu] for nu in grown)


def test_pair_memo_holds_no_zeros(monkeypatch):
    # every caller tests containment before it asks the pair memo, so the
    # memo counts no pair that does not fit
    counted = []

    def recorded(outer, inner):
        counted.append(count := _skew_syt_count(outer, inner))
        return count

    monkeypatch.setattr(verification, "_skew_count", functools.cache(recorded))
    _clear_memos()
    try:
        assert all(res.ok for res in verification.run_suites(Bounds(4, 3, 2)))
        assert counted and 0 not in counted
    finally:
        _clear_memos()


def _method_call(node, method):
    """The receiver name of ``<name>.<method>(...)``, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == method and isinstance(node.func.value, ast.Name)):
        return node.func.value.id
    return None


def _calls_fail(body, receiver):
    return any(_method_call(node, "fail") == receiver
               for stmt in body for node in ast.walk(stmt))


def test_every_failing_check_is_described_where_it_fails():
    tree = ast.parse(Path(verification.__file__).read_text())
    guarded = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.UnaryOp)
                and isinstance(node.test.op, ast.Not)):
            receiver = _method_call(node.test.operand, "check")
            if receiver is not None:
                assert _calls_fail(node.body, receiver), ast.unparse(node.test)
                guarded.add(id(node.test.operand))
        elif isinstance(node, ast.For):
            receiver = _method_call(node.iter, "check_each")
            if receiver is not None:
                assert _calls_fail(node.body, receiver), ast.unparse(node.iter)
                guarded.add(id(node.iter))
    sites = [node for node in ast.walk(tree)
             if _method_call(node, "check") or _method_call(node, "check_each")]
    assert len(sites) > 30
    # no check whose failure would go undescribed
    assert {id(node) for node in sites} == guarded
    assert not any(isinstance(node, ast.Lambda) for site in sites for node in ast.walk(site))
    assert not hasattr(verification.SuiteResult, "expect")


def test_each_suite_is_registered_once_under_its_function_name():
    names = [name for name, _ in SUITES]
    defined = sorted(attr.removeprefix("check_") for attr, obj in vars(verification).items()
                     if attr.startswith("check_") and callable(obj))
    assert sorted(names) == defined and len(set(names)) == len(names)
    for name, func in SUITES:
        # perfbench maps each suite to its spans through the function's name
        assert func is getattr(verification, f"check_{name}")
        assert (func.__name__, func.__qualname__) == (f"check_{name}",) * 2
        assert func.__module__ == verification.__name__
    # the report-only bands are registered, and so reported, last
    assert names[-2:] == ["main_band", "recpart_band"]


@pytest.mark.parametrize("name", [name for name, _ in SUITES])
def test_direct_call_returns_a_named_timed_result(name):
    res = getattr(verification, f"check_{name}")(Bounds(2, 2, 1))
    assert res.name == name
    assert res.report_only == (name in ("main_band", "recpart_band"))
    assert res.seconds > 0
