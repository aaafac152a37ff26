"""Expression grammar, error offsets, and printer round-trips."""

import random
from fractions import Fraction

import pytest

from lexval import ExprError, RatFunc, UniPoly, YPoly, parse_poly
from lexval.exprs import MAX_BITS, MAX_DEGREE, MAX_NESTING
from lexval.witness import random_rational_poly, random_xy_poly

X = UniPoly.x()


def test_parse_w55():
    f = parse_poly("y^2 + y/x + x^3")
    assert f.deg_y == 2
    assert f.coeff(2) == RatFunc.one()
    assert f.coeff(1) == RatFunc(1, X)
    assert f.coeff(0) == RatFunc(X**3)


def test_parse_integers_and_fractions():
    assert parse_poly("7") == YPoly.const(7)
    assert parse_poly("7/2") == YPoly.const(Fraction(7, 2))
    assert parse_poly("2^10") == YPoly.const(1024)


def test_parse_implicit_multiplication():
    assert parse_poly("2x^3y") == parse_poly("2 * x^3 * y")
    assert parse_poly("(x+1)(x-1)") == parse_poly("x^2 - 1")
    assert parse_poly("3(y+1)") == parse_poly("3y + 3")


def test_parse_precedence_and_unary_minus():
    assert parse_poly("-x^2") == -parse_poly("x^2")
    assert parse_poly("2 - x - y") == parse_poly("2") - parse_poly("x") - parse_poly("y")
    assert parse_poly("1/2*x") == YPoly.const(RatFunc(X) * Fraction(1, 2))
    assert parse_poly("x - -y") == parse_poly("x + y")


def test_parse_division_left_associative():
    # a/b*c parses as (a/b)*c
    assert parse_poly("1/2*y") == YPoly.monomial(1, Fraction(1, 2))
    assert parse_poly("y/x/x") == YPoly.monomial(1, RatFunc(1, X**2))


def test_syntax_error_offsets():
    with pytest.raises(ExprError) as err:
        parse_poly("x*(y")
    assert err.value.offset == 4
    with pytest.raises(ExprError) as err:
        parse_poly("x + + y")
    assert err.value.offset == 4
    with pytest.raises(ExprError) as err:
        parse_poly("")
    assert err.value.offset == 0
    with pytest.raises(ExprError) as err:
        parse_poly("x ) y")
    assert err.value.offset == 2
    # Parentheses and unary minus share one nesting limit; the first token
    # past it is reported, long before Python's recursion limit.
    for deep in ("(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x", "(-" * 1500 + "x" + ")" * 1500):
        with pytest.raises(ExprError, match="nested too deeply") as err:
            parse_poly(deep)
        assert err.value.offset == MAX_NESTING
    depth = MAX_NESTING - 1
    assert parse_poly("(" * depth + "-x" + ")" * depth) == -parse_poly("x")
    # x-degree and y-degree are bounded by MAX_DEGREE: a power is refused at
    # its exponent before it is computed; a product, quotient or sum just
    # after its operator (at the right operand of a juxtaposition).
    for src, offset in (
        ("y^3000", 2),
        ("x ^ 201", 4),
        ("x^99999999999999999999", 2),
        ("(y+x)^3 * y^198", 9),
        ("y^150 y^60", 6),
        ("y^150*(x^60 + y^60)", 6),
        ("1/x^150/(x+2)^60", 8),
        ("1/x^200 - 1/(x-1)", 9),
    ):
        with pytest.raises(ExprError, match="degree too large") as err:
            parse_poly(src)
        assert err.value.offset == offset
    top = f"y^{MAX_DEGREE} + x^{MAX_DEGREE}*y + 1/x^{MAX_DEGREE} + 0^99999999999999999999"
    assert parse_poly(top).deg_y == MAX_DEGREE
    # Integers are bounded by MAX_BITS: a literal is refused at its first
    # digit, a power at its exponent, before it is computed.
    long_literal = "7" * 5000
    for src, offset in (
        ("2^99999999999", 2),
        (long_literal, 0),
        (f"x + {long_literal}", 4),
        (f"y^{long_literal}", 2),
        (f"x^2 + (1/3)^{MAX_BITS // 2 + 1}", 12),
        (f"{2**MAX_BITS} + x", 0),
        ("2 (8/5)^2501", 8),
        ("(2^100 x + 1)^101", 14),
    ):
        with pytest.raises(ExprError, match="number too large") as err:
            parse_poly(src)
        assert err.value.offset == offset
    assert parse_poly(f"{2**MAX_BITS - 1}") == YPoly.const(2**MAX_BITS - 1)
    assert parse_poly(f"2^{MAX_BITS // 2}*y") == YPoly.monomial(1, 2 ** (MAX_BITS // 2))
    assert parse_poly(f"(1/3)^{MAX_BITS // 2}") == YPoly.const(Fraction(1, 3 ** (MAX_BITS // 2)))
    assert parse_poly("0" * 5000 + "1") == YPoly.one()


def test_semantic_errors():
    with pytest.raises(ExprError, match="denominator contains y"):
        parse_poly("1/y")
    with pytest.raises(ExprError, match="denominator contains y"):
        parse_poly("x/(y + 1)")
    with pytest.raises(ExprError, match="negative exponent"):
        parse_poly("x^-2")
    with pytest.raises(ExprError, match="division by zero"):
        parse_poly("1/(x - x)")


def test_division_by_y_free_expressions_is_fine():
    assert parse_poly("(x*y)/x") == YPoly.y()
    assert parse_poly("y^2/(x^2+1)").coeff(2) == RatFunc(1, X**2 + 1)


def test_print_forms():
    assert str(parse_poly("y^2 + y/x + x^3")) == "y^2 + 1/x*y + x^3"
    assert str(parse_poly("0")) == "0"
    assert str(parse_poly("-y")) == "-y"
    assert str(parse_poly("(x^3+1)*y^2")) == "(x^3 + 1)*y^2"
    assert str(parse_poly("x^6 - x")) == "x^6 - x"


def test_roundtrip_fixed_cases():
    cases = [
        "y^2 + 1/x*y + x^3",
        "y^4",
        "x^6 - x",
        "(2*x^5 - 1)/x^3",
        "-2/x",
        "x*y^2 + y + x^4",
        "y^10 + 5*x^3*y^8 + (10*x^6 + 3*x)*y^6",
        "1/2*y^2 - 3/5",
    ]
    for s in cases:
        f = parse_poly(s)
        assert parse_poly(str(f)) == f, s


def test_roundtrip_random_polynomials():
    rng = random.Random(30)
    for _ in range(200):
        f = random_xy_poly(rng, 7)
        assert parse_poly(str(f)) == f, str(f)
    for _ in range(200):
        f = random_rational_poly(rng, 5, 6)
        assert parse_poly(str(f)) == f, str(f)


def test_roundtrip_witness_outputs(ex55):
    from lexval import increasing_value_sequence

    for f, _ in increasing_value_sequence(ex55, 4):
        assert parse_poly(str(f)) == f
