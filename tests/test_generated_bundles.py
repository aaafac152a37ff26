"""Expansion, lead terms and the axiom audit over generated valid bundles."""

import random
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lexval import (  # noqa: E402
    RatFunc,
    UniPoly,
    ValuePair,
    YPoly,
    check_axioms,
    lead_term,
    make_spec,
    parse_poly,
    random_rational_poly,
    random_xy_poly,
    spec_violations,
)
from lexval.ratfunc import v_inf  # noqa: E402

from conftest import expand_by_division  # noqa: E402

X = UniPoly.x()
# Shared denominators of w's lower coefficients: none, a power of x, and
# non-monomials, so that the cleared H is not always a monomial.
DENOMINATORS = (UniPoly.one(), X, X**2, X**2 + 1, X + 2, UniPoly((1, Fraction(3, 2), 2)))
COEFFS = st.sampled_from((-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)))


def _xpoly(draw, deg: int) -> UniPoly:
    """A polynomial of degree exactly deg with small rational coefficients."""
    lower = [draw(st.one_of(st.just(0), COEFFS)) for _ in range(deg)]
    return UniPoly(lower + [draw(COEFFS)])


@st.composite
def bundles(draw):
    """(m, n, w, alpha, beta) that spec_violations accepts."""
    m = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 7).filter(lambda n: gcd(m, n) == 1))
    den = draw(st.sampled_from(DENOMINATORS))
    # w_0 has order -n at infinity; a nonzero w_k needs deg(w_k) * m < (m - k) * n.
    terms = {m: 1, 0: RatFunc(_xpoly(draw, den.degree + n), den)}
    for k in range(1, m):
        if draw(st.booleans()):
            continue
        e = draw(st.integers(-2, ((m - k) * n - 1) // m))
        terms[k] = RatFunc(_xpoly(draw, max(den.degree + e, 0)), den)
    alpha = ValuePair(draw(st.integers(-3, 0)), draw(st.integers(-3, 3)))
    beta = ValuePair(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    w = YPoly(terms)
    assume(not spec_violations(m, n, w, alpha, beta))
    return m, n, w, alpha, beta


def _reference_lead(spec, f):
    """The minimizing cell (i, j, coeff, value) over the division reference's cells."""
    cells = [
        ((-v_inf(c) * spec.m + j * spec.n) * spec.alpha + i * spec.beta, i, j, c)
        for i, row in enumerate(expand_by_division(f, spec.w))
        for j, c in enumerate(row)
        if not c.is_zero()
    ]
    best = min(cells, key=lambda cell: cell[0])
    assert [cell[0] for cell in cells].count(best[0]) == 1
    return best


@settings(
    derandomize=True,
    database=None,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(bundles(), st.integers(0, 10**6))
# A_{m-1} = 0 with a non-monomial H.
@example((2, 1, parse_poly("y^2 + x^3/(x^2+1)"), ValuePair(-1, -1), ValuePair(0, 1)), 0)
def test_generated_bundle(bundle, seed):
    spec = make_spec(*bundle)
    rng = random.Random(seed)
    corpus = [random_rational_poly(rng, 3, 2 * spec.m) for _ in range(4)]
    corpus += [random_xy_poly(rng, 4) for _ in range(8)] + [spec.w]
    for f in corpus:
        assert spec.divisor.expand(f).rows == expand_by_division(f, spec.w)
        lead = lead_term(spec, f)
        value, i, j, coeff = _reference_lead(spec, f)
        assert (lead.i, lead.j, lead.value, lead.coeff) == (i, j, value, coeff)
    report = check_axioms(spec, corpus, 30, seed=seed)
    assert report.ok, report.violations
