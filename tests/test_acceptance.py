"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one status line per
criterion.  Every comparison is exact rational or integer arithmetic; there
are no tolerances anywhere.
"""

import random

import pytest

from lexval import (
    CorpusSpec,
    InvalidSpecError,
    ValuePair,
    build_bounded_monic,
    check_axioms,
    increasing_value_sequence,
    make_spec,
    parse_poly,
    quotient_census,
    random_xy_poly,
    sample_image,
    structure_checks,
    value,
    w_expand,
    witness_for_value,
)
from lexval.valuation import (
    V_ALPHA_DIVISIBLE,
    V_BETA_TOO_LOW,
    V_COMMENSURABLE,
    V_NOT_COPRIME,
    V_W0_MISMATCH,
    V_W_COEFF_TOO_LOW,
    V_W_NOT_MONIC,
)

from conftest import reconstruct

SEED = 0
CORPUS = CorpusSpec(max_deg_x=6, max_deg_y=6, random_count=1000, seed=SEED)


def _criterion(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_01_y4_expansion(ex55):
    y4 = parse_poly("y^4")
    exp = w_expand(y4, ex55.w)
    expected = {
        (0, 0): parse_poly("x^6 - x"),
        (0, 1): parse_poly("2x^2 - 1/x^3"),
        (1, 0): parse_poly("1/x^2 - 2x^3"),
        (1, 1): parse_poly("-2/x"),
        (2, 0): parse_poly("1"),
        (2, 1): parse_poly("0"),
    }
    cells_ok = len(exp.grid) == 3 and all(
        exp.cell(i, j) == f.as_ratfunc() for (i, j), f in expected.items()
    )
    rebuilt_ok = reconstruct(exp, ex55.w) == y4
    _criterion(1, "w-expansion of y^4 has the expected five coefficients and reconstructs", cells_ok and rebuilt_ok)


def test_criterion_02_ex55_values(ex55):
    checks = {
        "x": ValuePair(-2, -2),
        "y": ValuePair(-3, -3),
        "y^2 + y/x + x^3": ValuePair(0, 1),
        "y^2 + x^3": ValuePair(-1, -1),
        "x*(y^2 + y/x + x^3)": ValuePair(-2, -1),
    }
    ok = all(value(ex55, parse_poly(s)) == v for s, v in checks.items())
    _criterion(2, "ex55 anchor values for x, y, w, y^2+x^3 and x*w", ok)


def test_criterion_03_witness_sequence(ex55):
    seq = increasing_value_sequence(ex55, 5)
    ok = all(
        f.deg_y == 2 * (d + 1) and v == ValuePair(-1, d - 1) for d, (f, v) in enumerate(seq)
    )
    ok = ok and [v for _, v in seq] == sorted(v for _, v in seq)
    _criterion(3, "witness sequence has deg_y = 2(d+1) and value (-1, d-1), strictly increasing", ok)


def test_criterion_04_image_monoid_ex55(ex55):
    report = sample_image(ex55, CORPUS, "ex55")
    members_ok = report.ok
    window_ok = all(
        value(ex55, witness_for_value(ex55, i, j)) == ValuePair(-i, j - i)
        for i in range(1, 5)
        for j in range(5)
    )
    _criterion(
        4,
        "every sampled ex55 value is in the image monoid and the (-i, j-i) window is attained",
        members_ok and window_ok,
        detail=f"violations={len(report.violations)}",
    )


def test_criterion_05_ex52_cone(ex52):
    report = sample_image(ex52, CORPUS, "cone")
    nonpositive = all(v.a <= 0 and v.b <= 0 for v in report.attained)
    never_minus_one_zero = ValuePair(-1, 0) not in report.attained
    _criterion(
        5,
        "every sampled ex52 value lies in the nonpositive cone and (-1,0) is never attained",
        report.ok and nonpositive and never_minus_one_zero,
        detail=f"violations={len(report.violations)}",
    )


def test_criterion_06_axiom_audit(ex55, ex52):
    ok = True
    details = []
    for spec, label in ((ex55, "ex55"), (ex52, "ex52")):
        rng = random.Random(2024)
        corpus = [random_xy_poly(rng, 5) for _ in range(200)]
        report = check_axioms(spec, corpus, 500, seed=2024)
        ok = ok and report.ok and report.pairs_checked == 500
        details.append(f"{label}: {report.total_violations} violations")
    _criterion(6, "axiom audit over 500 seeded pairs is clean on both presets", ok, "; ".join(details))


def test_criterion_07_bounded_builder(ex55, ex52):
    ok = True
    for spec in (ex55, ex52):
        bound = (spec.m * spec.n - spec.m - spec.n) * spec.alpha
        for d in range(7):
            f = build_bounded_monic(spec, d)
            ok = ok and f.is_monic_in_y() and f.deg_y == 2 * d
            ok = ok and value(spec, f) >= bound
    # hand recursion for ex55, d=1: c2 = 1; c1 corrects -1/x, already strictly
    # proper, so c1 = 0; c0 corrects -x^3, so c0 = x^3
    ok = ok and build_bounded_monic(ex55, 1) == parse_poly("y^2 + x^3")
    _criterion(7, "bounded builder yields monic deg 2d polynomials with value >= (-1,-1)", ok)


def test_criterion_08_quotient_census(ex55, ex52):
    h_ok = all(quotient_census(ex55, ell, family="h_family") == ell + 1 for ell in range(7))
    bound_ok = all(
        quotient_census(spec, ell, family="corpus", seed=SEED) <= ell + 1
        for spec in (ex55, ex52)
        for ell in range(7)
    )
    _criterion(8, "h-family census counts ell+1 classes and the corpus census respects the bound", h_ok and bound_ok)


def test_criterion_09_structure_checks(ex55, ex52):
    ok = True
    for spec in (ex55, ex52):
        report = structure_checks(spec, CorpusSpec(max_deg_x=6, max_deg_y=6, random_count=200, seed=SEED))
        ok = ok and report.ok and report.rational_checked == 200
    _criterion(9, "low-degree values in Z>=0 alpha, w escapes, rational elements in Z alpha + Z>=0 beta", ok)


def test_criterion_10_spec_validation(ex55, ex52):
    ok = ex55.m == 2 and ex52.m == 2  # both presets constructed by fixtures
    rejections = [
        (V_NOT_COPRIME, (2, 4, "y^2 + x^4", ValuePair(-1, -1), ValuePair(0, 1))),
        (V_W_NOT_MONIC, (2, 3, "2y^2 + x^3", ValuePair(-1, -1), ValuePair(0, 1))),
        (V_ALPHA_DIVISIBLE, (2, 3, "y^2 + y/x + x^3", ValuePair(-2, -2), ValuePair(0, 1))),
        (V_COMMENSURABLE, (2, 3, "y^2 + y/x + x^3", ValuePair(-1, -1), ValuePair(1, 1))),
        (V_BETA_TOO_LOW, (2, 3, "y^2 + y/x + x^3", ValuePair(-1, -1), ValuePair(-7, 1))),
        (V_W_COEFF_TOO_LOW, (2, 3, "y^2 + x^2*y + x^3", ValuePair(-1, -1), ValuePair(0, 1))),
        (V_W0_MISMATCH, (2, 3, "y^2 + x^2", ValuePair(-1, -1), ValuePair(0, 1))),
    ]
    for name, (m, n, w, alpha, beta) in rejections:
        with pytest.raises(InvalidSpecError) as err:
            make_spec(m, n, parse_poly(w), alpha, beta)
        ok = ok and name in err.value.violations
    _criterion(10, "presets construct; every single-condition mutation is rejected by name", ok)
