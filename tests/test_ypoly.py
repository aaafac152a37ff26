"""y-polynomials, division by a monic divisor, and grid expansions."""

import random
from fractions import Fraction
from math import lcm

import pytest

from lexval import (
    RatFunc, UniPoly, WExpansion, YPoly, load_spec, parse_poly, random_rational_poly, random_xy_poly, w_expand,
)
from lexval.ratfunc import _zmul, poly_gcd, residue_at_inf
from lexval.witness import _below, _random_ints
from lexval.ypoly import Divisor, _clear_denominators, _cofactors

from conftest import SHARED_FACTOR_INPUTS, assert_canonical_ypoly, clear_by_lcm, divmod_w, expand_by_division, reconstruct

W55 = parse_poly("y^2 + y/x + x^3")
X = UniPoly.x()
# Divisors whose coefficient denominators are not powers of x, or whose
# coefficients are fractions.
W_X1 = parse_poly("y^2 + y/(x+1) + x^3")
W_FRAC = parse_poly("y^3 + x*y/(2*x^2 + 2) + 3*x^2/2")


def rf(s: str) -> RatFunc:
    return parse_poly(s).as_ratfunc()


def ypower_cell(divisor: Divisor, e: int, t: int) -> RatFunc:
    """Cell t of y^e, read as the `ypower` command reads it: the grid from
    the divisor's store, one cell reduced.  Zero above the grid's top row."""
    grid = divisor.ypower(e)
    i, j = divmod(t, divisor.m)
    return WExpansion(grid=grid, den=[1], divisor=divisor).cell(i, j) if i < len(grid) else RatFunc.zero()


def test_ypoly_basic_arithmetic():
    y = YPoly.y()
    assert y + YPoly.const(X**3) == parse_poly("y + x^3")
    assert y * y == parse_poly("y^2")
    assert (y - y).is_zero()
    assert parse_poly("y^2 + x^3") - parse_poly("x^3") == parse_poly("y^2")


def test_ypoly_square_of_w():
    expected = parse_poly("y^4 + 2y^3/x + (2x^3 + 1/x^2)y^2 + 2x^2*y + x^6")
    assert W55 * W55 == expected


def test_ypoly_scale():
    f = parse_poly("y^2 + x^3")
    assert f.scale(rf("1/x")) == parse_poly("y^2/x + x^2")
    assert f.scale(0).is_zero()


def test_ypoly_evaluation():
    f = parse_poly("y^2 + y/x + x^3")
    assert f(Fraction(1), Fraction(2)) == 4 + 2 + 1
    assert f(Fraction(2), Fraction(1)) == 1 + Fraction(1, 2) + 8


def test_deg_y_and_monic():
    assert parse_poly("y^3 + x").deg_y == 3
    assert YPoly.zero().deg_y < -(10**9)
    assert W55.is_monic_in_y()
    assert not parse_poly("2y^2 + x").is_monic_in_y()


def test_divmod_w_underflow_and_identity():
    q, r = divmod_w(YPoly.y(), parse_poly("y^2 + x^3"))
    assert q.is_zero() and r == YPoly.y()
    q, r = divmod_w(W55, W55)
    assert q == YPoly.one() and r.is_zero()


def test_divmod_w_y4_quotient():
    q, r = divmod_w(parse_poly("y^4"), W55)
    assert q == parse_poly("y^2 - y/x - x^3 + 1/x^2")
    assert q * W55 + r == parse_poly("y^4")
    assert r.deg_y < W55.deg_y


def test_divisor_rejects_bad_divisors():
    # A divisor must be monic in y and of y-degree at least 1.
    for bad in ("2y^2 + x", "x^3", "1"):
        with pytest.raises(ValueError):
            Divisor(parse_poly(bad))
        with pytest.raises(ValueError):
            w_expand(YPoly.y(), parse_poly(bad))


def test_w_expand_y4_grid():
    exp = w_expand(parse_poly("y^4"), W55)
    assert exp.m == 2
    assert len(exp.grid) == 3
    assert exp.cell(0, 0) == rf("x^6 - x")
    assert exp.cell(0, 1) == rf("2x^2 - 1/x^3")
    assert exp.cell(1, 0) == rf("1/x^2 - 2x^3")
    assert exp.cell(1, 1) == rf("-2/x")
    assert exp.cell(2, 0) == RatFunc.one()
    assert exp.cell(2, 1).is_zero()
    assert reconstruct(exp, W55) == parse_poly("y^4")


def test_w_expand_constant():
    exp = w_expand(YPoly.const(Fraction(5, 3)), W55)
    assert len(exp.grid) == 1
    assert exp.cell(0, 0) == RatFunc(Fraction(5, 3))
    assert exp.cell(0, 1).is_zero()


def test_w_expand_of_y2_plus_x3():
    exp = w_expand(parse_poly("y^2 + x^3"), W55)
    assert exp.cell(0, 0).is_zero()
    assert exp.cell(0, 1) == rf("-1/x")
    assert exp.cell(1, 0) == RatFunc.one()


def test_w_expand_zero():
    exp = w_expand(YPoly.zero(), W55)
    assert len(exp.grid) == 1
    assert all(c.is_zero() for c in exp.rows[0])


def _random_ypoly(rng, max_deg_y=12):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = rng.randint(0, max_deg_y)
        num = UniPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        if num.is_zero():
            continue
        den = rng.choice((UniPoly.one(), X, X**2 + 1))
        terms[e] = RatFunc(num, den)
    return YPoly(terms)


def test_w_expand_reconstruction_random():
    rng = random.Random(20)
    divisors = (W55, parse_poly("y^2 + x^3"), parse_poly("y^3 + x*y + x^2"), W_X1, W_FRAC)
    for _ in range(120):
        w = rng.choice(divisors)
        f = _random_ypoly(rng)
        exp = w_expand(f, w)
        assert reconstruct(exp, w) == f
        assert (len(exp.grid) - 1) * w.deg_y <= max(f.deg_y, 0)
        for row in exp.rows:
            assert len(row) == w.deg_y
        if not f.is_zero():
            assert any(not c.is_zero() for c in exp.rows[-1])
        assert_canonical_ypoly(f)


def _random_fraction_ypoly(rng, max_deg_y=9):
    """Random element of Q(x)[y] with fractional coefficients; may be zero."""
    dens = (UniPoly.one(), X, X**2 + 1, UniPoly([1, 1]), UniPoly([Fraction(1, 3), 2]))
    terms = {}
    for _ in range(rng.randint(0, 5)):
        num = UniPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))])
        if not num.is_zero():
            terms[rng.randint(0, max_deg_y)] = RatFunc(num, rng.choice(dens))
    return YPoly(terms)


def test_w_expand_matches_iterated_division():
    rng = random.Random(23)
    divisors = (
        W55,
        parse_poly("y^2 + x^3"),
        parse_poly("y^3 + x*y + x^2"),
        W_X1,
        W_FRAC,
        parse_poly("y^2 + 2y/3 + x^3/2"),
    )
    for w in divisors:
        for e in range(12):
            f = YPoly.monomial(e)
            assert w_expand(f, w).rows == expand_by_division(f, w)
        for _ in range(30):
            f = _random_fraction_ypoly(rng)
            assert w_expand(f, w).rows == expand_by_division(f, w)


def test_w_expand_numeric_reconstruction():
    # independent oracle: evaluate both sides at rational points
    rng = random.Random(21)
    for _ in range(40):
        f = _random_ypoly(rng, max_deg_y=8)
        exp = w_expand(f, W55)
        for _ in range(3):
            xv = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            yv = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            wv = W55(xv, yv)
            total = Fraction(0)
            for i, row in enumerate(exp.rows):
                for j, c in enumerate(row):
                    if not c.is_zero():
                        total += c(xv) * yv**j * wv**i
            assert total == f(xv, yv)


def test_w_expand_linearity_and_shift():
    # the expansion of f + w*g equals the expansion of f plus the expansion
    # of g shifted up one row
    rng = random.Random(22)
    for _ in range(60):
        f = _random_ypoly(rng, max_deg_y=6)
        g = _random_ypoly(rng, max_deg_y=6)
        ef = w_expand(f, W55)
        eg = w_expand(g, W55)
        eh = w_expand(f + W55 * g, W55)
        rows = max(len(eh.rows), len(ef.rows), len(eg.rows) + 1)
        for i in range(rows):
            for j in range(2):
                lhs = eh.cell(i, j) if i < len(eh.rows) else RatFunc.zero()
                a = ef.cell(i, j) if i < len(ef.rows) else RatFunc.zero()
                b = eg.cell(i - 1, j) if 1 <= i <= len(eg.rows) else RatFunc.zero()
                assert lhs == a + b


def test_ypower_table_examples():
    divisor = Divisor(W55)
    assert ypower_cell(divisor, 0, 0) == RatFunc.one()
    assert ypower_cell(divisor, 2, 0) == rf("-x^3")
    assert ypower_cell(divisor, 2, 1) == rf("-1/x")
    assert ypower_cell(divisor, 2, 2) == RatFunc.one()
    assert ypower_cell(divisor, 4, 0) == rf("x^6 - x")
    assert ypower_cell(divisor, 4, 1) == rf("2x^2 - 1/x^3")
    assert ypower_cell(divisor, 4, 2) == rf("1/x^2 - 2x^3")
    assert ypower_cell(divisor, 4, 3) == rf("-2/x")
    assert ypower_cell(divisor, 4, 4) == RatFunc.one()


def test_ypower_table_structure():
    # The grid of y^e has rows 0 .. e div m; its cell e is 1 and every later
    # cell is 0.
    divisor = Divisor(W55)
    for e in range(10):
        assert len(divisor.ypower(e)) == e // 2 + 1
        assert ypower_cell(divisor, e, e) == RatFunc.one()
        for t in range(e + 1, 12):
            assert ypower_cell(divisor, e, t).is_zero()


def test_ypower_table_range_errors():
    # A negative power is refused at once, and the powers already held stay.
    divisor = Divisor(W55)
    held = [divisor.ypower(e) for e in range(4)]
    with pytest.raises(ValueError, match="negative degree -1"):
        divisor.ypower(-1)
    assert divisor._ypow == dict(enumerate(held))


@pytest.mark.parametrize("spec", ["ex55", "ex52"])
def test_divisor_store_refuses_negative_degrees(spec):
    # hpower, ypower and bounded_monic raise on a negative degree and leave
    # the store as it was: no growth without end, no output with a negative
    # y-exponent.
    divisor = load_spec(spec).divisor
    divisor.bounded_monic(2)
    stores = (divisor._hpow, divisor._ypow, divisor._monic)
    before = [dict(store) for store in stores]
    for read in (divisor.hpower, divisor.ypower, divisor.bounded_monic):
        for k in (-1, -5):
            with pytest.raises(ValueError, match=f"negative degree {k}"):
                read(k)
    assert [dict(store) for store in stores] == before


@pytest.mark.parametrize(
    "w",
    [W55, W_X1, W_FRAC, parse_poly("y + x"), parse_poly("y^3 + y^2/x + x^2"), parse_poly("y^2 + 2y/3 + x^3/2")],
    ids=["ex55", "x_plus_1", "fractions", "m1", "m3", "constant_h"],
)
def test_ypower_table_matches_expansions(w):
    # Multiplying by y gives the whole grid that division gives: the same
    # rows, the same reduced cells and the same residues of the unreduced ones.
    store, divisor = Divisor(w), Divisor(w)
    for e in range(41):
        built = WExpansion(grid=store.ypower(e), den=[1], divisor=store)
        exp = divisor.expand(YPoly.monomial(e))
        rows = expand_by_division(YPoly.monomial(e), w)
        assert len(built.grid) == len(exp.grid) == len(rows)
        assert built.rows == exp.rows == rows
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                if not c.is_zero():
                    residues = [n.lc() / d.lc() for n, d in (built.fraction(i, j), exp.fraction(i, j))]
                    assert residues == [residue_at_inf(c)] * 2


def test_ypower_table_recursion_identity():
    # y^e = y^(e-m) * w - sum_k w_k y^(e-m+k) lifts to the cells of the store
    w = W55
    m = w.deg_y
    divisor = Divisor(w)
    for e in range(m, 11):
        for t in range(e + 1):
            expected = ypower_cell(divisor, e - m, t - m) if t >= m else RatFunc.zero()
            for k in range(m):
                wk = w.coeff(k)
                if not wk.is_zero():
                    expected = expected - wk * ypower_cell(divisor, e - m + k, t)
            assert ypower_cell(divisor, e, t) == expected


def test_divisor_hpower_out_of_order():
    # The cleared divisor of y^2 + y/(2x+2) + x^3/3 is H = 6x + 6.
    d = Divisor(parse_poly("y^2 + y/(2*x+2) + x^3/3"))
    assert d.h == [6, 6]
    h = UniPoly([6, 6])
    for k in (5, 2, 9, 0, 7, 1, 9):
        assert UniPoly(d.hpower(k)) == h**k


def test_divisor_hpower_shared_across_threads():
    # Eight threads fill fresh divisors' caches at once, switching often; a
    # cache that lost or misplaced an entry would hand out a wrong power.
    import sys
    import threading

    w = parse_poly("y^2 + y/(2*x+2) + x^3/3")
    want = [UniPoly([6, 6]) ** k for k in range(60)]
    bad = []

    def work(d, barrier):
        barrier.wait()
        for k in range(60):
            if UniPoly(d.hpower(k)) != want[k]:
                bad.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            d, barrier = Divisor(w), threading.Barrier(8)
            threads = [threading.Thread(target=work, args=(d, barrier)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert [UniPoly(d.hpower(k)) for k in range(60)] == want
    finally:
        sys.setswitchinterval(interval)
    assert bad == []


def test_divisor_store_grown_by_four_threads():
    # Four threads grow one fresh divisor's store to four sizes at once,
    # switching often.  Each gets what a serial build gives, and the store
    # it sees never shrinks and always holds y^0 .. y^top.
    import sys
    import threading

    w = W_X1
    serial = Divisor(w)
    want = [(serial.ypower(12 * (k + 1)), serial.bounded_monic(2 * (k + 1))) for k in range(4)]
    bad = []

    def work(d, k, barrier):
        barrier.wait()
        seen = []
        for e in range(12 * (k + 1) + 1):
            d.ypower(e)
            keys = sorted(d._ypow)
            seen.append(len(keys))
            if keys != list(range(len(keys))):
                bad.append((k, "gap"))
        grid, want_exp = want[k]
        exp = d.bounded_monic(2 * (k + 1))
        if seen != sorted(seen) or d.ypower(12 * (k + 1)) != grid:
            bad.append((k, "grid"))
        if exp.element() != want_exp.element() or (exp.grid, exp.den) != (want_exp.grid, want_exp.den):
            bad.append((k, "bounded monic"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            d, barrier = Divisor(w), threading.Barrier(4)
            threads = [threading.Thread(target=work, args=(d, k, barrier)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(d._ypow) == 49 and sorted(d._monic) == [2, 4, 6, 8]
    finally:
        sys.setswitchinterval(interval)
    assert bad == []


@pytest.mark.parametrize("w", [W55, W_X1, W_FRAC], ids=["ex55", "x_plus_1", "fractions"])
def test_ypower_table_clears_w_once(w, cleared):
    # The store multiplies by y and divides nothing, so w is all it clears.
    Divisor(w).ypower(8)
    assert [f is w for f in cleared] == [True]


def test_clearing_integer_polynomials_matches_general_path():
    # An element with integer polynomial coefficients is cleared without the
    # lcm machinery.  Dividing it by 7 or by x - 11 sends it down the general
    # path, which must give the same numerators over den = 7 or den = x - 11.
    # Neither divides a coefficient: their nonzero entries lie in -3 .. 3.
    rng = random.Random(17)
    corpus = [parse_poly(s) for s in ("1", "-3*y^4", "x^5*y + 2", "y^3 - x*y + 3*x^2")]
    corpus += [random_xy_poly(rng, 6) for _ in range(60)]
    for f in corpus:
        den, nums = _clear_denominators(f)
        assert den == [1]
        assert nums == {e: list(c.num.ints) for e, c in f.terms.items()}
        assert _clear_denominators(f.scale(Fraction(1, 7))) == ([7], nums)
        assert _clear_denominators(f.scale(RatFunc(1, X - 11))) == ([-11, 1], nums)
        assert all(type(n) is list for n in nums.values())


def _pairwise_coprime(dens) -> bool:
    return all(poly_gcd(a, b) == UniPoly.one() for i, a in enumerate(dens) for b in dens[i + 1:])


def test_clearing_by_the_product_of_the_denominators():
    # den is s times the product of the distinct denominators.  For pairwise
    # coprime ones that is the lcm, and the rows are those of the lcm
    # reference; otherwise den and every numerator carry the same factor.
    rng = random.Random(23)
    corpus = [random_rational_poly(rng, 3, 7) for _ in range(300)]
    corpus += [parse_poly(s) for s in SHARED_FACTOR_INPUTS]
    corpus += [parse_poly(s) for s in ("y^2/(x+1) + y/(x+1) + 1/(x+1)", "y/2 + 1/(3*x^2+3)", "y^3/(x^2+1) + y/(x-2) + x")]
    seen = {True: 0, False: 0}
    for f in corpus:
        dens = list(dict.fromkeys(c.den for c in f.terms.values() if not c.is_polynomial()))
        den, nums = _clear_denominators(f)
        ref_den, ref_nums = clear_by_lcm(f)
        product = [1]
        for d in dens:
            product = _zmul(product, d.ints)
        assert den == _zmul(product, (lcm(*(c.num.denom for c in f.terms.values())),))
        coprime = _pairwise_coprime(dens)
        seen[coprime] += 1
        if coprime:
            assert (den, nums) == (ref_den, ref_nums)
        else:
            assert nums.keys() == ref_nums.keys()
            for e, n in nums.items():
                assert _zmul(n, ref_den) == _zmul(ref_nums[e], den)
    assert seen[True] > 100 and seen[False] >= len(SHARED_FACTOR_INPUTS)


def test_cofactors_times_their_denominator_give_the_product():
    # P = D * cofactor(D) for every D, from 1 to 8 denominators: the quadratics
    # and constants the rational corpus draws, powers of x, and factors
    # shared between the lists, repeated lists included.
    rng = random.Random(29)
    below = _below(rng)
    shared = ([1, 1], [2, 1], [0, 1], [0, 0, 1], [0, 0, 0, 1], [-3], [1, 0, 1], [2, 3, 1], [1, 2, 1])
    for trial in range(300):
        count = 1 + trial % 8
        dens = [_random_ints(below, 2) if rng.random() < 0.5 else rng.choice(shared) for _ in range(count)]
        product, cofactors = _cofactors(dens)
        expected = [1]
        for d in dens:
            expected = _zmul(expected, d)
        assert product == expected
        assert len(cofactors) == len(dens)
        for k, (d, cof) in enumerate(zip(dens, cofactors)):
            assert _zmul(d, cof) == product
            others = [1]
            for e in dens[:k] + dens[k + 1:]:
                others = _zmul(others, e)
            assert cof == others


@pytest.mark.parametrize(
    "text, h, neg_a",
    [
        ("y^2 + y/(x^2-1) + 1/(x+1)", [-1, 0, 1], [(0, [1, -1]), (1, [-1])]),
        ("y^3 + y^2/(x+1) + y/(x^2+3*x+2) + 1/(2*x+4)", [4, 6, 2], [(0, [-1, -1]), (1, [-2]), (2, [-4, -2])]),
    ],
)
def test_divisor_clears_w_over_the_lcm(text, h, neg_a):
    # H and the A_j are those recorded when the clearing took a gcd per
    # denominator, though w's denominators share factors; the expansions over
    # them equal division.
    w = parse_poly(text)
    divisor = Divisor(w)
    assert (divisor.h, divisor.neg_a) == (h, neg_a)
    for f in [parse_poly(s) for s in SHARED_FACTOR_INPUTS] + [w, w * w, YPoly.monomial(7)]:
        assert divisor.expand(f).rows == expand_by_division(f, w)


# One element of each ring, from the integers up to Q(x)[y].
RING_ELEMENTS = [
    5,
    Fraction(-2, 3),
    UniPoly((1, Fraction(1, 2), 3)),
    RatFunc(X + 2, X**2 + 1),
    parse_poly("y^2/(x+1) - 3x*y + 1/2"),
]


@pytest.mark.parametrize("a", RING_ELEMENTS, ids=lambda a: type(a).__name__)
@pytest.mark.parametrize("b", RING_ELEMENTS, ids=lambda b: type(b).__name__)
def test_subtraction_is_addition_of_the_negation(a, b):
    assert a - b == a + (-b)
    assert b - a == b + (-a)


def test_subtraction_of_a_foreign_object_raises():
    with pytest.raises(TypeError):
        X - object()
    with pytest.raises(TypeError):
        object() - X


@pytest.mark.parametrize("p", RING_ELEMENTS[2:], ids=lambda p: type(p).__name__)
def test_power_is_repeated_product(p):
    product = 1
    for k in range(7):
        assert p**k == product
        product = product * p


@pytest.mark.parametrize(
    "w",
    [W55, W_X1, W_FRAC, parse_poly("y + x"), parse_poly("y^2 + 2y/3 + x^3/2")],
    ids=["ex55", "x_plus_1", "fractions", "m1", "constant_h"],
)
def test_ypower_table_extended_matches_fresh_table(w):
    # A divisor's store grows from its last power; the powers already held
    # are the same objects, and every grid is the one a fresh store builds.
    store = Divisor(w)
    fresh = [store.ypower(e) for e in range(41)]
    for start in (0, 2 * w.deg_y, 17):
        divisor = Divisor(w)
        held = [divisor.ypower(e) for e in range(start + 1)]
        grown = [divisor.ypower(e) for e in range(41)]
        assert max(divisor._ypow) == 40 and len(divisor._ypow) == 41
        assert all(a is b for a, b in zip(held, grown))
        assert grown == fresh
        assert [divisor.ypower(e) for e in range(start + 1)] == held and len(divisor._ypow) == 41


@pytest.mark.parametrize(
    "w",
    [W55, W_X1, W_FRAC, parse_poly("y^2 + 2y/3 + x^3/2")],
    ids=["ex55", "x_plus_1", "fractions", "constant_h"],
)
def test_expansion_plus_matches_division(w):
    # E(f) + lam*E(g) is the expansion of f + lam*g, integer and polynomial
    # dens alike, and f - f cancels to the single zero row.
    divisor = Divisor(w)
    rng = random.Random(5)
    polys = [random_rational_poly(rng, 3, 7) for _ in range(6)] + [random_xy_poly(rng, 6) for _ in range(6)]
    for _ in range(30):
        f, g = rng.choice(polys), rng.choice(polys)
        lam = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 7)))
        exp = divisor.expand(f).plus(lam, divisor.expand(g))
        rows = expand_by_division(f + g.scale(lam), w)
        assert len(exp.grid) == len(rows)
        assert exp.rows == rows
    for f in polys:
        exp = divisor.expand(f)
        zero = exp.plus(Fraction(-1), exp)
        assert len(zero.grid) == 1 and not any(n for n, _ in zero.grid[0])
        assert exp.plus(Fraction(0), exp) is exp


@pytest.mark.parametrize("w", [W55, parse_poly("y^2 + x^3"), W_FRAC], ids=["ex55", "ex52", "fractions"])
def test_expansion_times_matches_division(w, monkeypatch):
    # E(f)*E(g) is the expansion of f*g for polynomial, rational, y-free and
    # zero factors: the same row count and the same reduced rows.
    divisor = Divisor(w)
    rng = random.Random(7)
    polys = [random_xy_poly(rng, 5) for _ in range(3)] + [random_rational_poly(rng, 3, 5) for _ in range(3)]
    polys += [parse_poly("3*x^4 - x"), parse_poly("2/(x^2 + 1)"), YPoly.zero(), w]
    exps = [divisor.expand(f) for f in polys]
    for f, ef in zip(polys, exps):
        for g, eg in zip(polys, exps):
            exp = ef.times(eg)
            rows = expand_by_division(f * g, w)
            assert len(exp.grid) == len(rows) and exp.rows == rows
    # A y-free factor puts nothing at a position >= m, so no row is folded.
    monkeypatch.setattr(Divisor, "_rows", lambda *args: pytest.fail("a row was folded"))
    for f, ef in zip(polys, exps):
        for c, ec in zip(polys[6:9], exps[6:9]):
            assert ef.times(ec).rows == ec.times(ef).rows == expand_by_division(f * c, w)
