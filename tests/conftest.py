import pytest

from lexval import RatFunc, UniPoly, YPoly, divmod_w, load_spec, poly_gcd


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


def expand_by_division(f: YPoly, w: YPoly) -> tuple[tuple[RatFunc, ...], ...]:
    """Reference w-expansion of f: repeated division by w over Q(x)."""
    rows = []
    while True:
        f, rem = divmod_w(f, w)
        rows.append(tuple(rem.coeff(j) for j in range(w.deg_y)))
        if f.is_zero():
            return tuple(rows)
