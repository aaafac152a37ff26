"""YPoly products, sums and scalings against term-by-term RatFunc arithmetic."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lexval import RatFunc, UniPoly, YPoly, parse_poly  # noqa: E402

X = UniPoly.x()
# Denominators with Fraction contents, some sharing factors, some not polynomial.
DENOMINATORS = st.sampled_from(
    (UniPoly.one(), UniPoly((3,)), X, X**2, X**2 + 1, X + 2, UniPoly((1, Fraction(3, 2), 2)), (X + 2) * X)
)
FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
COEFFS = st.builds(RatFunc, st.lists(FRACTIONS, max_size=4).map(UniPoly), DENOMINATORS)
YPOLYS = st.dictionaries(st.integers(0, 4), COEFFS, max_size=4).map(YPoly)
SCALARS = st.one_of(st.integers(-3, 3), FRACTIONS, st.lists(FRACTIONS, max_size=3).map(UniPoly), COEFFS)


def _fields(f: YPoly) -> dict:
    """The canonical fields of every stored coefficient."""
    return {e: (c.num.ints, c.num.denom, c.den.ints, c.den.denom) for e, c in f.terms.items()}


def _reference(pairs) -> dict:
    """Fields of the sum of c * y^e over (e, c), added one RatFunc at a time."""
    out: dict[int, RatFunc] = {}
    for e, c in pairs:
        out[e] = out.get(e, RatFunc.zero()) + c
    return _fields(YPoly._canonical({e: c for e, c in out.items() if c}))


@given(YPOLYS, YPOLYS)
# Products whose y-coefficient cancels, over an integer and over a polynomial den.
@example(parse_poly("y + x/2"), parse_poly("y - x/2"))
@example(parse_poly("y + 1/x"), parse_poly("y - 1/x"))
def test_product_matches_term_by_term(f, g):
    expected = _reference((e1 + e2, c1 * c2) for e1, c1 in f.terms.items() for e2, c2 in g.terms.items())
    assert _fields(f * g) == expected
    assert _fields(g * f) == expected


@given(YPOLYS, YPOLYS)
def test_sum_matches_term_by_term(f, g):
    assert _fields(f + g) == _reference([*f.terms.items(), *g.terms.items()])
    assert _fields((f + g) + (-g)) == _fields(f)


@given(YPOLYS, SCALARS)
def test_scale_matches_term_by_term(f, s):
    r = RatFunc(s) if not isinstance(s, RatFunc) else s
    assert _fields(f.scale(s)) == _reference((e, c * r) for e, c in f.terms.items())
    assert _fields(f * s) == _fields(f.scale(s))


@given(YPOLYS)
def test_cancellation_stores_no_term(f):
    for zero in (f + (-f), f - f, f.scale(0), f.scale(Fraction(0)), f * 0, f * YPoly.zero()):
        assert zero.terms == {}
