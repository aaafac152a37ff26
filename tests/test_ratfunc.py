"""Exact polynomial and rational-function arithmetic, and the degree valuation."""

import random
from fractions import Fraction
from math import gcd, inf

import pytest

from lexval import RatFunc, UniPoly, poly_gcd, residue_at_inf, uni_divmod, v_inf

from conftest import assert_canonical_ratfunc, corrector

X = UniPoly.x()


def test_unipoly_strips_trailing_zeros():
    p = UniPoly((1, 2, 0, 0))
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert UniPoly((0, 0)).is_zero()


def test_unipoly_degree_of_zero_below_everything():
    assert UniPoly().degree < -(10**9)


def test_unipoly_arithmetic():
    p = X**2 + 1
    q = X - 1
    assert p + q == X**2 + X
    assert p - p == UniPoly.zero()
    assert p * q == X**3 - X**2 + X - 1
    assert (X + 1) ** 2 == X**2 + 2 * X + 1
    assert -(X - 3) == 3 - X


def test_unipoly_eval():
    p = X**3 - 2 * X + 5
    assert p(Fraction(2)) == 8 - 4 + 5
    assert p(Fraction(1, 2)) == Fraction(1, 8) - 1 + 5


def test_uni_divmod_basic_cases():
    q, r = uni_divmod(X**2 + 1, X)
    assert (q, r) == (X, UniPoly.one())
    q, r = uni_divmod(X**3, X**3)
    assert (q, r) == (UniPoly.one(), UniPoly.zero())
    q, r = uni_divmod(UniPoly.one(), X)
    assert (q, r) == (UniPoly.zero(), UniPoly.one())


def test_uni_divmod_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        uni_divmod(X, UniPoly.zero())


def test_uni_divmod_identity_random():
    rng = random.Random(7)
    for _ in range(200):
        a = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 9))])
        b = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        if b.is_zero():
            continue
        q, r = uni_divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_poly_gcd_monic():
    a = (X - 1) * (X + 2)
    b = (X - 1) * (X + 3)
    assert poly_gcd(a, b) == X - 1
    assert poly_gcd(2 * a, 4 * a) == a.monic()


def test_ratfunc_reduces_to_canonical_form():
    h = RatFunc((X**2 - 1), (X - 1) * 2)
    assert h == RatFunc(X + 1, 2)
    # (x^2-1)/(2x-2) reduces to (x+1)/2; the monic-denominator rule moves the
    # constant into the numerator
    assert h.den == UniPoly.one()
    assert h.num == UniPoly((Fraction(1, 2), Fraction(1, 2)))
    assert_canonical_ratfunc(h)


def test_ratfunc_zero_is_zero_over_one():
    z = RatFunc(UniPoly.zero(), X**3)
    assert z.is_zero()
    assert z.den == UniPoly.one()


def test_ratfunc_arith_examples():
    one_over_x = RatFunc(1, X)
    assert one_over_x + RatFunc(X) == RatFunc(X**2 + 1, X)
    assert one_over_x * RatFunc(X) == RatFunc.one()
    assert RatFunc.one() / RatFunc(X**3) == RatFunc(1, X**3)
    assert -RatFunc(X) == RatFunc(-X)
    assert RatFunc(X) - RatFunc(X) == RatFunc.zero()


def test_ratfunc_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RatFunc.one() / RatFunc.zero()
    with pytest.raises(ZeroDivisionError):
        RatFunc(X, UniPoly.zero())


def test_ratfunc_pow_negative():
    h = RatFunc(X, X**2 + 1)
    assert h**-1 == RatFunc(X**2 + 1, X)
    assert h**0 == RatFunc.one()


def test_v_inf_examples():
    assert v_inf(RatFunc(X**3)) == -3
    assert v_inf(RatFunc(UniPoly((1, 0, 0, 0, 0, -2)), X**3)) == -2
    assert v_inf(RatFunc.zero()) == inf
    assert v_inf(RatFunc(Fraction(7, 2))) == 0


def test_residue_examples():
    assert residue_at_inf(RatFunc(-(X**3))) == -1
    assert residue_at_inf(RatFunc(UniPoly((1, 0, 0, 0, 0, -2)), X**3)) == -2
    assert residue_at_inf(RatFunc(5)) == 5
    with pytest.raises(ValueError):
        residue_at_inf(RatFunc.zero())


def test_corrector_examples():
    assert corrector(RatFunc(-1, X)) == UniPoly.zero()
    assert corrector(RatFunc(-(X**3))) == X**3
    assert corrector(RatFunc(X**2 + 1, X)) == -X


def _random_ratfunc(rng, allow_zero=False):
    num = UniPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 7))])
    if not allow_zero and num.is_zero():
        num = UniPoly.one()
    den = UniPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))] + [rng.choice((1, 2, 3))])
    return RatFunc(num, den)


def test_v_inf_multiplicative_on_random_pairs():
    rng = random.Random(55)
    checked = 0
    while checked < 500:
        a = _random_ratfunc(rng)
        b = _random_ratfunc(rng)
        if a.is_zero() or b.is_zero():
            continue
        checked += 1
        assert v_inf(a * b) == v_inf(a) + v_inf(b)
        assert residue_at_inf(a * b) == residue_at_inf(a) * residue_at_inf(b)


def test_v_inf_triangle_on_random_pairs():
    rng = random.Random(56)
    for _ in range(500):
        a = _random_ratfunc(rng, allow_zero=True)
        b = _random_ratfunc(rng, allow_zero=True)
        s = a + b
        assert v_inf(s) >= min(v_inf(a), v_inf(b))
        if v_inf(a) != v_inf(b):
            assert v_inf(s) == min(v_inf(a), v_inf(b))


def test_corrector_properties_random():
    rng = random.Random(57)
    for _ in range(300):
        h = _random_ratfunc(rng, allow_zero=True)
        f = corrector(h)
        assert v_inf(RatFunc(f) + h) > 0
        p = UniPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
        assert corrector(h + RatFunc(p)) == f - p


def test_canonical_closure_random():
    rng = random.Random(58)
    for _ in range(200):
        a = _random_ratfunc(rng, allow_zero=True)
        b = _random_ratfunc(rng)
        for out in (a + b, a - b, a * b, a / b, -a):
            assert_canonical_ratfunc(out)


def test_constant_factor_matches_reducing_product():
    # A constant factor scales the other side's numerator and takes no gcd;
    # the reducing constructor must agree on every field.
    rng = random.Random(59)
    for _ in range(300):
        a = _random_ratfunc(rng, allow_zero=True)
        c = RatFunc(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        want = RatFunc(a.num * c.num, a.den * c.den)
        for out in (a * c, c * a):
            assert_canonical_ratfunc(out)
            assert (out.num.ints, out.num.denom, out.den.ints) == (want.num.ints, want.num.denom, want.den.ints)


def test_unipoly_str_roundtrip_through_fraction_eval():
    # printing is exercised against the parser in test_exprs; here we spot-check forms
    assert str(X**3 - X) == "x^3 - x"
    assert str(UniPoly((Fraction(1, 2), -1))) == "-x + 1/2"
    assert str(UniPoly.zero()) == "0"
    assert str(RatFunc(1, X)) == "1/x"
    assert str(RatFunc(UniPoly((1, 0, 0, 0, 0, -2)), X**3)) == "(-2*x^5 + 1)/x^3"
    assert str(UniPoly((Fraction(1, 3), Fraction(2, 3)))) == "2/3*x + 1/3"
    assert str(UniPoly((-1,))) == "-1"
    assert str(UniPoly((0, 0, Fraction(-1, 2)))) == "-1/2*x^2"
    assert str(-(X**3)) == "-x^3"
    assert str(UniPoly((Fraction(3, 4), 0, -1, Fraction(-5, 6)))) == "-5/6*x^3 - x^2 + 3/4"


# ---------------------------------------------------------------------------
# The integer layout and the gcd core, against plain Fraction references.


def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_divmod(a, b):
    """Long division of Fraction coefficient lists, lowest degree first."""
    rem = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(rem) - len(b), -1, -1):
        t = rem[i + len(b) - 1] / b[-1]
        q[i] = t
        for j, c in enumerate(b):
            rem[i + j] -= t * c
    return _ref_trim(q), _ref_trim(rem[: len(b) - 1])


def _ref_monic(a):
    return [c / a[-1] for c in a] if a else []


def _ref_gcd(a, b):
    """Monic gcd by Euclid over Fraction lists: the algorithm poly_gcd replaced."""
    a, b = _ref_trim(a), _ref_trim(b)
    while b:
        a, b = b, _ref_monic(_ref_divmod(a, b)[1])
    return _ref_monic(a)


def _ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_reduced(num, den):
    """(num, den) divided by their gcd, den monic, as Fraction lists."""
    g = _ref_gcd(num, den)
    n, d = _ref_divmod(num, g)[0], _ref_divmod(den, g)[0]
    return [c / d[-1] for c in n], [c / d[-1] for c in d]


def _planted_pairs(rng):
    """Pairs (a, b) of Fraction lists with planted common factors, and edge cases."""

    def rand(deg, fractions=False, lo=-9, hi=9):
        cs = [Fraction(rng.randint(lo, hi), rng.randint(1, 7) if fractions else 1) for _ in range(deg)]
        return cs + [Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 4) if fractions else 1)]

    pairs = []
    for _ in range(60):
        fractions = rng.random() < 0.5
        g = rand(rng.randint(0, 6), fractions)
        a = _ref_mul(g, rand(rng.randint(0, 8), fractions))
        b = _ref_mul(g, rand(rng.randint(0, 8), fractions))
        xs = [Fraction(0)] * rng.randint(0, 4)
        pairs.append((xs + a, [Fraction(0)] * rng.randint(0, 4) + b))
    for _ in range(6):
        # degree around 60: a planted factor of degree 20 and larger coefficients
        g = rand(20, lo=-99, hi=99)
        pairs.append((_ref_mul(g, rand(40, lo=-99, hi=99)), _ref_mul(g, rand(38, lo=-99, hi=99))))
    f = rand(9, fractions=True)
    x = [Fraction(0), Fraction(1)]
    pairs += [
        (f, f),                                   # f = g
        (f, [c * -7 for c in f]),                 # a constant multiple, negative lead
        (rand(7), rand(6)),                       # almost surely coprime
        ([Fraction(3)], rand(5)),                 # a constant
        (_ref_mul(x, x), _ref_mul(x, rand(4))),   # powers of x only
        ([Fraction(0)] * 5 + [Fraction(-2)], [Fraction(0)] * 3 + [Fraction(4, 3)]),
        ([Fraction(-1), Fraction(0), Fraction(1)], [Fraction(1), Fraction(2), Fraction(1)]),
    ]
    return pairs


@pytest.mark.parametrize("path", ["heuristic", "euclid_fallback"])
def test_gcd_core_matches_euclid(path, monkeypatch):
    import lexval.ratfunc as ratfunc_mod

    if path == "euclid_fallback":
        monkeypatch.setattr(ratfunc_mod, "_heu_gcd", lambda a, b: None)
    rng = random.Random(61)
    for a, b in _planted_pairs(rng):
        pa, pb = UniPoly(a), UniPoly(b)
        assert list(poly_gcd(pa, pb).coeffs) == _ref_gcd(a, b)
        # RatFunc's normalisation and sum use the cofactors of the same gcd.
        h = RatFunc(pa, pb)
        n, d = _ref_reduced(a, b)
        assert (list(h.num.coeffs), list(h.den.coeffs)) == (n, d)
        assert_canonical_ratfunc(h)
        if len(a) + len(b) > 40:
            continue  # the reference below would reduce at degree 120
        s = RatFunc(1, pa) + RatFunc(1, pb)
        n, d = _ref_reduced([p + q for p, q in zip(a + [0] * len(b), b + [0] * len(a))], _ref_mul(a, b))
        assert (list(s.num.coeffs), list(s.den.coeffs)) == (_ref_trim(n), d)
        assert_canonical_ratfunc(s)


def _assert_layout(p):
    assert p.denom > 0
    assert gcd(p.denom, *p.ints) == 1
    assert not p.ints or p.ints[-1] != 0
    assert p.coeffs == tuple(Fraction(c, p.denom) for c in p.ints)


def test_unipoly_layout_invariants():
    rng = random.Random(62)
    for _ in range(300):
        a = [Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))]
        b = [Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(rng.randint(1, 6))]
        pa, pb = UniPoly(a), UniPoly(b)
        k = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        results = {
            "a": (pa, a),
            "-a": (-pa, [-c for c in a]),
            "a+b": (pa + pb, [p + q for p, q in zip(a + [0] * len(b), b + [0] * len(a))]),
            "a-a": (pa - pa, []),
            "a*b": (pa * pb, _ref_mul(a, b) if a and b else []),
            "k*a": (k * pa, [k * c for c in a]),
            "a^3": (pa**3, _ref_mul(_ref_mul(a, a), a) if a else []),
        }
        if _ref_trim(b):
            q, r = divmod(pa, pb)
            rq, rr = _ref_divmod(_ref_trim(a), _ref_trim(b)) if len(_ref_trim(a)) >= len(_ref_trim(b)) else ([], a)
            results["a//b"], results["a%b"] = (q, rq), (r, rr)
            results["monic"] = (pb.monic(), _ref_monic(_ref_trim(b)))
        for name, (p, ref) in results.items():
            _assert_layout(p)
            # coeffs is the Fraction tuple the old layout stored.
            assert p.coeffs == tuple(_ref_trim(ref)), name
    # Equal polynomials built different ways are equal and hash alike.
    x = UniPoly.x()
    same = [
        UniPoly([Fraction(1, 2), Fraction(3, 4)]),
        UniPoly([1, 3]) * Fraction(1, 4) + UniPoly([Fraction(1, 4)]),
        (x * 6 + 4) * Fraction(1, 8),
        UniPoly([Fraction(2, 4), Fraction(6, 8), 0, 0]),
        -UniPoly([Fraction(-1, 2), Fraction(-3, 4)]),
        divmod(UniPoly([1, Fraction(5, 2), Fraction(3, 2)]), UniPoly([2, 2]))[0],
    ]
    for p in same:
        _assert_layout(p)
        assert p == same[0]
        assert hash(p) == hash(same[0])
    assert (UniPoly([3]), UniPoly([0])) == (3, 0)
