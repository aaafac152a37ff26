from math import lcm

import pytest

from lexval import RatFunc, UniPoly, YPoly, load_spec, poly_gcd, uni_divmod

# Elements whose denominators share factors: repeated, nested and constant
# ones, so that the product of the distinct denominators is not their lcm.
SHARED_FACTOR_INPUTS = ("y/(x^2-1) + y^3/(x+1)", "y^5/(2x+2) + y/(x+1)^2 + 3/(x+1)", "y^4/(x^2+x) + y/x")


@pytest.fixture(scope="session")
def ex55():
    return load_spec("ex55")


@pytest.fixture(scope="session")
def ex52():
    return load_spec("ex52")


@pytest.fixture
def cleared(monkeypatch):
    """Every element whose denominators are cleared over Z[x] during the test, in order."""
    import lexval.ypoly as ypoly_mod

    calls = []
    clear = ypoly_mod._clear_denominators

    def counted(f):
        calls.append(f)
        return clear(f)

    monkeypatch.setattr(ypoly_mod, "_clear_denominators", counted)
    return calls


def assert_canonical_ratfunc(h: RatFunc) -> None:
    """Canonical-form validator: reduced, monic denominator, zero is 0/1."""
    assert not h.den.is_zero()
    assert h.den.lc() == 1
    if h.num.is_zero():
        assert h.den == UniPoly.one()
    else:
        assert poly_gcd(h.num, h.den) == UniPoly.one()
    if h.num.coeffs:
        assert h.num.coeffs[-1] != 0


def assert_canonical_ypoly(f: YPoly) -> None:
    for _, c in f.items():
        assert not c.is_zero()
        assert_canonical_ratfunc(c)


def divmod_w(f: YPoly, w: YPoly) -> tuple[YPoly, YPoly]:
    """Reference division in y over Q(x): f = q*w + r with deg_y r < deg_y w; w monic."""
    m = w.deg_y
    assert m >= 1 and w.is_monic_in_y()
    q: dict[int, RatFunc] = {}
    r = f
    while not r.is_zero() and r.deg_y >= m:
        d = r.deg_y
        c = r.coeff(d)
        q[d - m] = c
        r = r - YPoly.monomial(d - m, c) * w
    return YPoly(q), r


def expand_by_division(f: YPoly, w: YPoly) -> tuple[tuple[RatFunc, ...], ...]:
    """Reference w-expansion of f: repeated division by w over Q(x)."""
    rows = []
    while True:
        f, rem = divmod_w(f, w)
        rows.append(tuple(rem.coeff(j) for j in range(w.deg_y)))
        if f.is_zero():
            return tuple(rows)


def reconstruct(exp, w: YPoly) -> YPoly:
    """The sum of cell(i, j) * y^j * w^i over the reduced cells of a WExpansion."""
    total = YPoly.zero()
    wpow = YPoly.one()
    for row in exp.rows:
        for j, c in enumerate(row):
            if not c.is_zero():
                total = total + YPoly.monomial(j, c) * wpow
        wpow = wpow * w
    return total


def corrector(h: RatFunc) -> UniPoly:
    """The unique polynomial f with v_inf(f + h) > 0.

    Concretely f = -q where num = q*den + r; the leftover r/den is strictly
    proper.
    """
    q, _ = uni_divmod(h.num, h.den)
    return -q


def bounded_monic_reference(w, dm, powers):
    """The corrector recursion over Q(x): coefficient t corrects the RatFunc
    sum of coeff_s times cell t of y^s, with powers[s] the expansion of y^s."""
    m = w.deg_y
    coeffs = {dm: UniPoly.one()}
    for t in range(dm - 1, -1, -1):
        i, j = divmod(t, m)
        acc = RatFunc.zero()
        for s in range(t + 1, dm + 1):
            acc = acc + RatFunc(coeffs[s]) * powers[s][i][j]
        coeffs[t] = corrector(acc)
    return YPoly({t: RatFunc(p) for t, p in coeffs.items()})


def product_reference(f: YPoly, g: YPoly) -> YPoly:
    """f*g term by term over RatFunc, not through the cleared-row product."""
    total = YPoly.zero()
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            total = total + YPoly({e1 + e2: c1 * c2})
    return total


def clear_by_lcm(f: YPoly) -> tuple[list[int], dict[int, list[int]]]:
    """Cleared rows of f over s times the lcm of its denominators, with s the
    lcm of its numerators' integer denominators: the clearing that took a gcd
    per denominator.  For pairwise-coprime denominators the lcm is their
    product, so these are the rows that clear by the product."""
    den = UniPoly.one()
    for c in f.terms.values():
        den = den * c.den // poly_gcd(den, c.den)
    s = lcm(*(c.num.denom for c in f.terms.values()))
    den = UniPoly([s * c for c in den.monic().ints])
    nums = {}
    for e, c in f.terms.items():
        n = c * RatFunc(den)
        assert n.is_polynomial() and n.num.denom == 1
        nums[e] = list(n.num.ints)
    return list(den.ints), nums
