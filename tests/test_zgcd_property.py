"""Gcds in Z[x] against Euclid's algorithm over Q, on primitive pairs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lexval.ratfunc import _euclid, _poly, _primitive, _zgcd, _zmul  # noqa: E402

# Primitive nonzero coefficient lists without trailing zeros, of either sign.
PRIMITIVE = st.builds(
    lambda s, body, top: _primitive([0] * s + body + [top])[1],
    st.integers(0, 3),
    st.lists(st.integers(-20, 20), max_size=7),
    st.integers(-20, 20).filter(bool),
)


def _euclid_gcd(a, b):
    """The gcd with positive lead: Euclid's monic gcd over Q has primitive integer coefficients."""
    return list(_euclid(_poly(list(a)), _poly(list(b))).ints)


def _check(a, b):
    g, qa, qb = _zgcd(a, b)
    assert g == _euclid_gcd(a, b)
    assert _zmul(g, qa) == list(a) and _zmul(g, qb) == list(b)
    return g


@given(PRIMITIVE, PRIMITIVE, PRIMITIVE)
@example([1, 1], [-1, 1], [2, 0, 1])
@example([0, 0, 3, 1], [0, 1], [-1, 0, 0, 1])
def test_zgcd_matches_euclid_with_a_planted_factor(a, b, g):
    # A product of primitive lists is primitive (Gauss), so both inputs are.
    _check(a, b)
    _check(_zmul(a, g), _zmul(b, g))


@given(PRIMITIVE, PRIMITIVE, st.integers(-5, 5).filter(bool))
@example([1, 0, 1], [0, 1], 1)
@example([-2, 3], [1, 1, 1], -4)
def test_zgcd_of_a_coprime_pair_is_one(a, q, c):
    # gcd(a, q*a + c) = gcd(a, c), and c is a unit over Q.
    b = _zmul(a, q)
    b[0] += c
    while b and not b[-1]:
        b.pop()
    if b:
        assert _check(a, _primitive(b)[1]) == [1]


def test_unit_candidate_divides_nothing(monkeypatch):
    # A gcd image of one balanced digit is a unit: GCDHEU returns 1 and the
    # inputs as cofactors without trial divisions.
    import lexval.ratfunc as ratfunc_mod

    def refuse(a, g):
        raise AssertionError(f"trial division by {g}")

    monkeypatch.setattr(ratfunc_mod, "_zdivmod", refuse)
    for a, b in (([1, 1], [-1, 1]), ([3, 0, 2], [1, 5, 0, 7]), ((2, -1, 1), (5, 3))):
        assert _zgcd(a, b) == ([1], list(a), list(b))
