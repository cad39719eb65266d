"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance is zero: all quantities are exact integers and the CLI
tables are compared byte-for-byte against golden files.
"""

import time

from charpoly.partitions import Partition
from charpoly.stability import Family, r_primary
from charpoly.verification import (
    Bounds,
    check_basis2_forms,
    check_coefficient_recurrence,
    check_column_removal_difference,
    check_constant_coeff_routes,
    check_frobenius_vs_mn,
    check_gamma_size_law,
    check_interpolation_route,
    check_limit_stabilization,
    check_main_oracle,
    check_recpart_band,
    check_recpart_vs_mn,
    check_skew_count_vs_backtracking,
    check_vanishing_bound,
)

BOUNDS = Bounds(max_k=8, max_r=6, n_window=7)


def _report(criterion, label, detail):
    print(f"ACCEPTANCE {criterion} ({label}): PASS [{detail}]")


def _assert_ok(result):
    assert result.ok, (result.name, result.failures)
    return result.checks


def test_criterion_1_worked_table_golden(run_cli, golden):
    started = time.monotonic()
    code, text_out, _ = run_cli("table", "--lambda", "3,3", "--r-list", "2,3,4,5")
    elapsed = time.monotonic() - started
    assert code == 0
    assert text_out == (golden / "table_33.txt").read_text()
    assert "b=[5,5,3,1,0,0,0]" in text_out
    assert "b=[5,5,2,1,1,1,0]" in text_out
    assert "b=[5,5,2,0,-1,-1,0]" in text_out
    assert "b=[5,5,2,0,0,0,0]" in text_out
    assert "f = 5C(n,6) -5C(n,5) +2C(n,4)" in text_out

    _, latex_out, _ = run_cli(
        "table", "--lambda", "3,3", "--r-list", "2,3,4,5", "--format", "latex"
    )
    assert latex_out == (golden / "table_33.tex").read_text()
    _, json_out, _ = run_cli(
        "table", "--lambda", "3,3", "--r-list", "2,3,4,5", "--format", "json"
    )
    assert json_out == (golden / "table_33.json").read_text()

    assert elapsed < 1.0, f"table took {elapsed:.2f}s"
    _report(1, "worked-example table", f"3 formats byte-exact, {elapsed:.2f}s")


def test_criterion_2_three_primary_golden(run_cli, golden):
    code, out, _ = run_cli("primaries", "--r", "3", "--max-h", "8")
    assert code == 0
    assert out == (golden / "primaries_r3.txt").read_text()

    # family-level sign pattern: columns, (3), (2,1), (2,2), (4,1^v),
    # (3,2,1^v), (2,2,2,1^v) carry signs +,+,+,-,+,+,-,+,-
    by_shape = {}
    for h in range(9):
        for sp in r_primary(3, h):
            head = tuple(p for p in sp.partition if p >= 2)
            if sp.family is Family.COLUMN:
                key = ("column", len(sp.partition))
            else:
                key = (sp.family.value, head)
            by_shape.setdefault(key, set()).add(sp.sign)
    assert by_shape[("column", 0)] == {1}
    assert by_shape[("column", 1)] == {1}
    assert by_shape[("column", 2)] == {1}
    assert by_shape[("type2", (3,))] == {-1}
    assert by_shape[("type2", (2,))] == {1}
    assert by_shape[("type2", (2, 2))] == {1}
    assert by_shape[("type3", (4,))] == {-1}
    assert by_shape[("type3", (3, 2))] == {1}
    assert by_shape[("type3", (2, 2, 2))] == {-1}
    _report(2, "3-primary table", "byte-exact incl. signs by family")


def test_criterion_3_main_oracle_equivalence():
    started = time.monotonic()
    checks = _assert_ok(check_main_oracle(BOUNDS))
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"sweep took {elapsed:.1f}s"
    _report(3, "polynomial vs Murnaghan-Nakayama", f"{checks} checks, {elapsed:.1f}s")


def test_criterion_4_frobenius_cross_check():
    checks = _assert_ok(check_frobenius_vs_mn(BOUNDS))
    _report(4, "Frobenius vs Murnaghan-Nakayama", f"{checks} checks, n <= 10")


def test_criterion_5_recpart_cross_check():
    checks = _assert_ok(check_recpart_vs_mn(BOUNDS))
    band = check_recpart_band(BOUNDS)
    assert band.checks > 0
    _report(
        5,
        "vertical-strip evaluator vs Murnaghan-Nakayama",
        f"{checks} asserted; band {band.checks} checks, "
        f"{band.disagreements} disagreements (report only)",
    )


def test_criterion_6_transposition_closed_forms():
    checks = _assert_ok(check_basis2_forms(BOUNDS))
    _report(6, "transposition closed forms", f"{checks} checks, k <= 12")


def test_criterion_7_identity_suite():
    total = 0
    for suite in (
        check_column_removal_difference,
        check_coefficient_recurrence,
        check_limit_stabilization,
        check_vanishing_bound,
        check_gamma_size_law,
        check_skew_count_vs_backtracking,
    ):
        total += _assert_ok(suite(BOUNDS))
    _report(7, "identity suite", f"{total} checks across 6 identities")


def test_criterion_8_dual_derivations():
    routes = _assert_ok(check_constant_coeff_routes(BOUNDS))
    interp = _assert_ok(check_interpolation_route(BOUNDS))
    _report(
        8,
        "dual derivations",
        f"constant term {routes} checks (k <= 9); interpolation {interp} checks",
    )
