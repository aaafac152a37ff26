"""Independent cross-checks of the core pipeline through sympy.

These recompute the expansion and the value along a completely separate
route (sympy polynomial division over QQ(x) and sympy degree bookkeeping)
and require exact agreement.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
sp = sympy

from lexval import load_spec, parse_poly, random_xy_poly, value, w_expand

from conftest import SY, sympy_rows, sympy_value, to_sympy, to_sympy_scalar  # noqa: E402


def test_y4_expansion_against_sympy(ex55):
    w_expr = to_sympy(ex55.w)
    rows = sympy_rows(SY**4, w_expr)
    exp = w_expand(parse_poly("y^4"), ex55.w)
    assert len(rows) == len(exp.rows)
    for i, r in enumerate(rows):
        for j in range(2):
            ours = exp.cell(i, j)
            theirs = sp.cancel(r.as_expr().coeff(SY, j))
            assert sp.simplify(to_sympy_scalar(ours) - theirs) == 0


@pytest.mark.parametrize("label", ["ex55", "ex52"])
def test_value_against_sympy(label):
    spec = load_spec(label)
    w_expr = to_sympy(spec.w)
    alpha = (spec.alpha.a, spec.alpha.b)
    beta = (spec.beta.a, spec.beta.b)
    rng = random.Random(77)
    for _ in range(15):
        f = random_xy_poly(rng, 5)
        mine = value(spec, f)
        ref = sympy_value(to_sympy(f), w_expr, spec.m, spec.n, alpha, beta)
        assert (mine.a, mine.b) == ref, str(f)
