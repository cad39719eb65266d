"""The verify suites against mutants of the library kernels, and the shape
of their check sites.

Each mutant is a slip a speedup could plausibly make in one kernel.  The
suites it reaches must report the recorded number of disagreements and
name the recorded first counterexample, so an oracle that turns into a
tautology, or a check that describes the wrong case, fails here.
"""

import ast
from pathlib import Path

import pytest

import charpoly.binom_poly as binom_poly
import charpoly.characters as characters
import charpoly.partitions as partitions
import charpoly.stability as stability
import charpoly.tableaux as tableaux
import charpoly.verification as verification
from charpoly.stability import Family
from charpoly.verification import SUITES, Bounds

_det = tableaux._det
_strips = partitions._strips
_eval_poly = binom_poly.eval_poly
_r_primary = stability.r_primary


def _clear_memos():
    # a mutant's values stay in these memos after it is undone
    for memo in (tableaux._skew_count, tableaux._record, tableaux._frobenius,
                 characters._leaf_dim, _r_primary, verification._fillings):
        memo.cache_clear()


def _det_negated_on_2x2(m):
    det = _det(m)
    return -det if len(m) == 2 else det


def _leg_plus_one_at_3(mask, r):
    for leg, rest in _strips(mask, r):
        yield leg + (r == 3), rest


def _eval_plus_one_at_13(p, x):
    return _eval_poly(p, x) + (x == 13)


def _type_three_signs_flipped_at_4(r, h):
    return tuple(
        sp._replace(sign=-sp.sign) if r == 4 and sp.family is Family.TYPE_THREE else sp
        for sp in _r_primary(r, h)
    )


# name -> (every binding the mutant replaces, {suite: (disagreements, first failure)})
MUTANTS = {
    "det_negated_on_2x2": (
        [(tableaux, "_det", _det_negated_on_2x2)],
        {
            "skew_recursion": (
                1969, "lam=[2, 2] nu=[2, 1]: count 1, corner sum 1, growth sum -1"),
            "skew_count_vs_backtracking": (171, "outer=[2, 2] inner=[2, 2]: counts differ"),
            "main_oracle": (826, "lam=[2, 2] r=2 n=8: poly 6 != mn 4"),
            "interpolation_route": (
                22, "lam=[2, 2] r=2: interpolated (-1, 0, 1, -2, 2) != (1, 0, 1, -2, 2)"),
            "frobenius_route": (210, "lam=[2, 2] n=8: poly 6 != frobenius 4"),
            "constant_coeff_routes": (52, "lam=[2, 2] r=2: primary -1, strips -1, main 1"),
            "basis2_forms": (
                9, "case 4 k=4: char_poly b [2, 2, 1, 0, 1] != closed form [2, 2, 1, 0, -1]"),
            "main_band": (64, "lam=[2, 2] r=2 n=6: poly 1 != mn -1"),
        },
    ),
    "leg_plus_one_at_3": (
        [(partitions, "_strips", _leg_plus_one_at_3),
         (characters, "_strips", _leg_plus_one_at_3)],
        {
            "skew_hook_bruteforce": (
                661, "lam=[3] r=3: malformed hook SkewHook(leg_length=1, complement=Partition())"),
            "recpart_vs_mn": (196, "lam=[] support=[3] n=6: recpart 1 != mn -1"),
            "main_oracle": (466, "lam=[] r=3 n=3: poly 1 != mn -1"),
            "interpolation_route": (30, "lam=[] r=3: interpolated (-1,) != (1,)"),
            "main_band": (71, "lam=[1] r=3 n=3: poly -1 != mn 1"),
            "recpart_band": (205, "lam=[] support=[3] n=3: recpart 1 != mn -1"),
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
    "type_three_signs_flipped_at_4": (
        [(stability, "r_primary", _type_three_signs_flipped_at_4)],
        {
            "main_oracle": (175, "lam=[5] r=4 n=14: poly 53 != mn 51"),
            "interpolation_route": (
                4, "lam=[5] r=4: interpolated (-1, 1, 0, 0, -1, 1) != (1, 1, 0, 0, -1, 1)"),
            "constant_coeff_routes": (14, "lam=[5] r=4: primary -1, strips 1, main -1"),
            "main_band": (16, "lam=[5] r=4 n=10: poly -2 != mn -4"),
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
