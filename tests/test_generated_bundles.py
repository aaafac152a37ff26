"""Expansion, the row bound, lead terms, the audits' cleared rows, parse/print
round trips and the axiom audit over generated valid bundles."""

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
    WExpansion,
    YPoly,
    check_axioms,
    class_witness,
    lead_term,
    make_spec,
    parse_poly,
    quotient_census,
    quotient_class,
    random_rational_poly,
    random_xy_poly,
    spec_violations,
    value,
    w_expand,
)
import lexval.witness as witness_mod  # noqa: E402
from lexval.ratfunc import residue_at_inf, v_inf  # noqa: E402
from lexval.valgroup import basis_det  # noqa: E402
from lexval.valuation import _cleared_value  # noqa: E402
from lexval.witness import _seeded_corpus  # noqa: E402
from lexval.ypoly import Divisor, _clear_denominators, _from_rows, _rows_plus, _rows_times  # noqa: E402

from conftest import (  # noqa: E402
    SHARED_FACTOR_INPUTS,
    bounded_monic_reference,
    expand_by_division,
    product_reference,
    sympy_value,
    to_sympy,
)

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


def _check_row_bound(spec, f, rows):
    """Every nonzero cell of row i has value >= v0(f) + i * (beta - m*n*alpha).

    v0 is the monomial valuation that the bundle's valuation augments
    (MacLane): the cell formula at i = 0 over f's own y-coefficients.
    """
    v0 = min((-v_inf(c) * spec.m + e * spec.n) * spec.alpha for e, c in f.items())
    step = spec.beta - (spec.m * spec.n) * spec.alpha
    assert step > ValuePair(0, 0)
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            if not c.is_zero():
                assert (-v_inf(c) * spec.m + j * spec.n) * spec.alpha + i * spec.beta >= v0 + i * step


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


def _check_by_division(spec, f):
    """expand, lead and value of f against the division reference, and the
    row bound over its rows."""
    rows = expand_by_division(f, spec.w)
    assert spec.divisor.expand(f).rows == rows == w_expand(f, spec.w).rows
    _check_row_bound(spec, f, rows)
    lead = lead_term(spec, f)
    v, i, j, coeff = _reference_lead(spec, f)
    assert (lead.i, lead.j, lead.value, lead.coeff) == (i, j, v, coeff)
    assert lead.exp.residue(i, j) == residue_at_inf(coeff)
    assert value(spec, f) == v


def test_shared_factor_denominators_against_division(ex55, ex52):
    for spec in (ex55, ex52):
        for text in SHARED_FACTOR_INPUTS:
            _check_by_division(spec, parse_poly(text))


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
    for f in corpus + [parse_poly(text) for text in SHARED_FACTOR_INPUTS]:
        _check_by_division(spec, f)
    report = check_axioms(spec, corpus, 30, seed=seed)
    assert report.ok, report.violations
    # The y-power grids of a fresh store, built by multiplying by y, against
    # division, and the bounded-monic builder over them against the recursion
    # over Q(x).
    divisor = Divisor(spec.w)
    powers = [expand_by_division(YPoly.monomial(e), spec.w) for e in range(3 * spec.m + 1)]
    assert [WExpansion(grid=divisor.ypower(e), den=[1], divisor=divisor).rows for e in range(3 * spec.m + 1)] == powers
    for dm in range(2 * spec.m + 1):
        assert divisor.bounded_monic(dm)[0] == bounded_monic_reference(spec.w, dm, powers)


@settings(
    derandomize=True,
    database=None,
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(bundles(), st.integers(0, 10**6))
def test_generated_value_against_sympy(bundle, seed):
    # The sympy oracle's separate route, division over QQ(x), on three
    # polynomial elements and one rational element per bundle.
    pytest.importorskip("sympy")
    spec = make_spec(*bundle)
    rng = random.Random(seed)
    corpus = [random_xy_poly(rng, 4) for _ in range(3)] + [random_rational_poly(rng, 3, 2 * spec.m)]
    w_expr = to_sympy(spec.w)
    alpha, beta = (spec.alpha.a, spec.alpha.b), (spec.beta.a, spec.beta.b)
    for f in corpus:
        v = value(spec, f)
        assert (v.a, v.b) == sympy_value(to_sympy(f), w_expr, spec.m, spec.n, alpha, beta), str(f)


def _check_builder_by_uniqueness(spec, d_max=3):
    """The builder's output at d = 0 .. d_max against the property that
    determines it, not against the recursion: it is the only monic
    polynomial of y-degree d*m over Q[x] whose expansion cells are all zero
    or proper (numerator degree below denominator degree) except the top
    cell (d, 0), which is 1."""
    for d in range(d_max + 1):
        f = spec.divisor.bounded_monic(d * spec.m)[0]
        assert f.deg_y == d * spec.m and f.is_monic_in_y()
        assert all(c.is_polynomial() for c in f.terms.values())
        rows = expand_by_division(f, spec.w)
        assert len(rows) == d + 1 and rows[d][0] == RatFunc.one()
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                if (i, j) != (d, 0):
                    assert c.is_zero() or c.num.degree < c.den.degree, (d, i, j, c)


def test_builder_output_is_the_unique_proper_monic_on_the_presets(ex55, ex52):
    for spec in (ex55, ex52):
        _check_builder_by_uniqueness(spec)


@settings(
    derandomize=True,
    database=None,
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(bundles())
def test_generated_builder_output_is_the_unique_proper_monic(bundle):
    _check_builder_by_uniqueness(make_spec(*bundle))


def _check_census_one_cell(spec, ell=12):
    """The fact the census reads values by: for i = q*m + r <= ell, the
    division reference's expansion of class_witness(spec, q, r) has one
    nonzero cell, at (q, r), and the census values class i as that witness."""
    seen = []

    def recorded(v, *rest):
        seen.append(v)
        return quotient_class(v, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(witness_mod, "quotient_class", recorded)
        assert quotient_census(spec, ell) == ell + 1
    assert len(seen) == ell + 1
    for i, v in enumerate(seen):
        q, r = divmod(i, spec.m)
        f = class_witness(spec, q, r)
        rows = expand_by_division(f, spec.w)
        assert [(a, b) for a, row in enumerate(rows) for b, c in enumerate(row) if not c.is_zero()] == [(q, r)]
        assert v == value(spec, f), (q, r)


def test_census_reads_one_cell_on_the_presets(ex55, ex52):
    for spec in (ex55, ex52):
        _check_census_one_cell(spec)


# w = y^m + x/D*y + (x^(n+2) + 1)/D at (m, n) = (2, 3) and (3, 2), over the
# last of DENOMINATORS, D = 2x^2 + 3/2*x + 1, whose monic h has a non-unit
# denominator.
D_LAST = DENOMINATORS[-1]
W_OVER_D = {m: YPoly({m: 1, 1: RatFunc(X, D_LAST), 0: RatFunc(X ** (n + 2) + 1, D_LAST)}) for m, n in ((2, 3), (3, 2))}


@settings(
    derandomize=True,
    database=None,
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(bundles())
@example((2, 3, W_OVER_D[2], ValuePair(-1, -1), ValuePair(0, 1)))
@example((3, 2, W_OVER_D[3], ValuePair(-1, 0), ValuePair(1, -1)))
def test_generated_census_reads_one_cell(bundle):
    assume(basis_det(bundle[3], bundle[4]) in (1, -1))
    _check_census_one_cell(make_spec(*bundle))


@settings(
    derandomize=True,
    database=None,
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(bundles())
def test_generated_bounded_monic_in_any_order_matches_the_reference(bundle):
    # The divisor's store, asked for degrees that grow and shrink, gives the
    # recursion over Q(x) at each.
    spec = make_spec(*bundle)
    powers = [expand_by_division(YPoly.monomial(e), spec.w) for e in range(3 * spec.m + 1)]
    for d in (2, 0, 3, 1, 3, 2, 0):
        assert spec.divisor.bounded_monic(d * spec.m)[0] == bounded_monic_reference(spec.w, d * spec.m, powers)


@settings(
    derandomize=True,
    database=None,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(bundles(), st.integers(0, 10**6))
def test_generated_bundle_value_is_lead_term_value(bundle, seed):
    # value runs lead_term's cell search and builds only the pair.
    spec = make_spec(*bundle)
    rng = random.Random(seed)
    corpus = [random_rational_poly(rng, 3, 2 * spec.m) for _ in range(4)]
    corpus += [random_xy_poly(rng, 4) for _ in range(8)] + [spec.w, spec.w * spec.w]
    for f in corpus:
        assert value(spec, f) == lead_term(spec, f).value


@settings(
    derandomize=True,
    database=None,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(bundles(), st.integers(0, 10**6))
@example((2, 1, parse_poly("y^2 + x^3/(x^2+1)"), ValuePair(-1, -1), ValuePair(0, 1)), 0)
# m = 3, so that a product of two cells reaches position 2m - 2 = 4.
@example((3, 2, parse_poly("y^3 + x*y/(2*x^2 + 2) + 3*x^2/2"), ValuePair(-1, -1), ValuePair(0, 1)), 0)
def test_generated_bundle_grids_without_division(bundle, seed):
    # The builder's grid, E(f) + lam*E(g) and E(f)*E(g) against division: the
    # same rows and the same reduced cells.
    spec = make_spec(*bundle)
    divisor = Divisor(spec.w)
    for dm in range(3 * spec.m + 1):
        f, exp = divisor.bounded_monic(dm)
        rows = expand_by_division(f, spec.w)
        assert len(exp.grid) == len(rows) and exp.rows == rows
    rng = random.Random(seed)
    corpus = [random_rational_poly(rng, 3, 2 * spec.m) for _ in range(3)]
    corpus += [random_xy_poly(rng, 4) for _ in range(3)] + [spec.w]
    exps = [spec.divisor.expand(f) for f in corpus]
    for _ in range(8):
        a, b = rng.randrange(len(corpus)), rng.randrange(len(corpus))
        lam = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 5)))
        rows = expand_by_division(corpus[a] + corpus[b].scale(lam), spec.w)
        exp = exps[a].plus(lam, exps[b])
        assert len(exp.grid) == len(rows) and exp.rows == rows
    for exp in exps:
        zero = exp.plus(Fraction(-1), exp)
        assert len(zero.grid) == 1 and not any(n for n, _ in zero.grid[0])
    factors = list(zip(corpus, exps)) + [(f, spec.divisor.expand(f)) for f in (parse_poly("2*x^3 - x"), YPoly.zero())]
    for _ in range(6):
        (f, ef), (g, eg) = rng.choice(factors), rng.choice(factors)
        rows = expand_by_division(f * g, spec.w)
        exp = ef.times(eg)
        assert len(exp.grid) == len(rows) and exp.rows == rows


@settings(
    derandomize=True,
    database=None,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(bundles(), st.integers(0, 10**6))
@example((2, 1, parse_poly("y^2 + x^3/(x^2+1)"), ValuePair(-1, -1), ValuePair(0, 1)), 0)
def test_generated_bundle_rows_and_round_trips(bundle, seed):
    # The audits value drawn rows, and products and f + lam*g formed as rows:
    # each equals value of the YPoly built from the same rows, and the rows
    # rebuild f*g and f + g.scale(lam), rational coefficients included.
    spec = make_spec(*bundle)
    rng = random.Random(seed)
    rows = _seeded_corpus(rng, 2, 2 * spec.m, 6, total_degree=True)
    rows += [_clear_denominators(random_rational_poly(rng, 3, 2 * spec.m)) for _ in range(3)]
    polys = [_from_rows(*r) for r in rows]
    for r, f in zip(rows, polys):
        assert _cleared_value(spec, *r) == value(spec, f)
    for _ in range(10):
        a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
        prod, expected = _rows_times(rows[a], rows[b]), product_reference(polys[a], polys[b])
        assert _from_rows(*prod) == expected == polys[a] * polys[b]
        assert _cleared_value(spec, *prod) == value(spec, expected)
        lam = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 5)))
        combo = _rows_plus(rows[a], lam, rows[b])
        assert _from_rows(*combo) == polys[a] + polys[b].scale(lam)
        assert _cleared_value(spec, *combo) == value(spec, polys[a] + polys[b].scale(lam))
    # What the CLI prints parses back to what it printed: w, every cell of
    # `expand` and the coefficient of `lead`.
    assert parse_poly(str(spec.w)) == spec.w
    for f in polys[-3:] + [spec.w]:
        for row in w_expand(f, spec.w).rows:
            for c in row:
                assert parse_poly(str(c)) == YPoly.const(c)
        coeff = lead_term(spec, f).coeff
        assert parse_poly(str(coeff)) == YPoly.const(coeff)
