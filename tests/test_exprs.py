"""Expression grammar, error offsets, and printer round-trips."""

import random
import sys
from fractions import Fraction

import pytest

from lexval import ExprError, RatFunc, UniPoly, YPoly, exprs, parse_poly
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
    assert parse_poly("(" * depth + "-3x" + ")" * depth) == parse_poly("-3*x")
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
    # An integer is a run of ASCII digits; other Unicode digits are not
    # numbers, so they are refused where they stand.
    for src, message, offset in (
        ("x²", "unexpected '²'", 1),
        ("٣*y", "unexpected '٣'", 0),
        ("12²", "unexpected '²'", 2),
        ("2 ٣", "unexpected '٣'", 2),
        ("y^²", "expected an integer", 2),
    ):
        with pytest.raises(ExprError) as err:
            parse_poly(src)
        assert (str(err.value), err.value.offset) == (f"{message} at offset {offset}", offset)


# (input, message, offset) of every kind of ExprError, recorded before each
# subexpression was evaluated in its smallest ring.
ERROR_GOLDENS = [
    ("", "unexpected end of input", 0),
    ("   ", "unexpected end of input", 3),
    ("x +", "unexpected end of input", 3),
    ("x*", "unexpected end of input", 2),
    ("-", "unexpected end of input", 1),
    ("(", "unexpected end of input", 1),
    ("x^", "expected an integer", 2),
    ("x^ ", "expected an integer", 3),
    ("x ^\t", "expected an integer", 4),
    ("x^y", "expected an integer", 2),
    ("x^(2)", "expected an integer", 2),
    ("x^ -2", "negative exponent", 3),
    ("x^-2", "negative exponent", 2),
    ("(x", "expected ')'", 2),
    ("x*(y", "expected ')'", 4),
    ("(x y", "expected ')'", 4),
    ("((x)", "expected ')'", 4),
    ("x ) y", "unexpected ')'", 2),
    ("x $", "unexpected '$'", 2),
    ("2x^3y!", "unexpected '!'", 5),
    ("z", "unexpected 'z'", 0),
    ("x + + y", "unexpected '+'", 4),
    ("x^2^3", "unexpected '^'", 3),
    ("x y)", "unexpected ')'", 3),
    ("1/y", "denominator contains y", 2),
    ("x/(y + 1)", "denominator contains y", 2),
    ("1/ (x*y)", "denominator contains y", 2),
    ("1/(x - x)", "division by zero", 2),
    ("1/0", "division by zero", 2),
    ("y/(y - y)", "division by zero", 2),
    ("(1/x)/(x - x)", "division by zero", 6),
    ("y^2/ 0", "division by zero", 4),
    ("y^3000", "degree too large", 2),
    ("x ^ 201", "degree too large", 4),
    ("y^150 y^60", "degree too large", 6),
    ("y^150*(x^60 + y^60)", "degree too large", 6),
    ("1/x^150/(x+2)^60", "degree too large", 8),
    ("1/x^200 - 1/(x-1)", "degree too large", 9),
    ("x^100 * x^101", "degree too large", 7),
    ("(x+1)^100 (x-1)^101", "degree too large", 10),
    ("x^201/x", "degree too large", 2),
    ("y^200 + y y^200", "degree too large", 10),
    ("2^99999999999", "number too large", 2),
    ("2 (8/5)^2501", "number too large", 8),
    ("(2^100 x + 1)^101", "number too large", 14),
    ("x^2 + (1/3)^5001", "number too large", 12),
    ("\u3000", "unexpected end of input", 1),
    ("x\xa0)", "unexpected ')'", 2),
    ("\u2003x\u2003+\u2003", "unexpected end of input", 5),
    ("(1/x^150)/x^60", "degree too large", 10),
    ("(x^ 2 + 1)^-1", "negative exponent", 11),
    ("1/(y^2 - y^2 + x - x)", "division by zero", 2),
    ("x×y", "unexpected '×'", 1),
    ("x\n^\n", "expected an integer", 4),
    ("0^99999999999999999999 y^201", "degree too large", 25),
    ("7" * 5000, "number too large", 0),
    ("x + " + "7" * 5000, "number too large", 4),
    ("y^" + "7" * 5000, "number too large", 2),
    (f"{2**MAX_BITS} + x", "number too large", 0),
    ("(" * 3000 + "x" + ")" * 3000, "expression nested too deeply", 100),
    ("-" * 3000 + "x", "expression nested too deeply", 100),
    ("(-" * 1500 + "x" + ")" * 1500, "expression nested too deeply", 100),
    (" " * 7 + "(" * 101 + "x", "expression nested too deeply", 107),
    # Inside a run of monomials, recorded before runs were multiplied and
    # summed as integers: the same operator and offset as in ring arithmetic.
    ("x^150*x^51", "degree too large", 6),
    ("y^100 y^100 y", "degree too large", 12),
    ("3 + 2*x^199*x^2", "degree too large", 12),
    ("-y^201", "degree too large", 3),
    ("2x^100 x^101", "degree too large", 7),
    ("x^199 y^3 x^2", "degree too large", 10),
    ("3x^200y^200 - 2x^100 x^100 x", "degree too large", 27),
    ("0x^200 x^200 + x^201", "degree too large", 17),
    ("(" * 100 + "-3x" + ")" * 100, "expression nested too deeply", 100),
    # A unary minus before an atom, recorded before atoms were read in one
    # loop: it counts against the nesting limit, and the minus and its atom
    # are one factor, which may take one more power.
    ("-" * 101 + "x", "expression nested too deeply", 100),
    ("-x^2^3^4", "unexpected '^'", 6),
    ("2 -x^2^101", "unexpected '^'", 6),
    ("-2^2^5000", "number too large", 5),
    ("x*-2^2^5001", "number too large", 7),
    ("x*-y^201", "degree too large", 5),
    ("0*-x^100^3", "degree too large", 9),
    ("(x+1)*-x^200", "degree too large", 6),
    ("y^100*-y^100*-y", "degree too large", 13),
    ("-x^2 ^", "expected an integer", 6),
    ("- -", "unexpected end of input", 3),
    ("3*-", "unexpected end of input", 3),
    # Products that took a monomial shortcut, recorded before only a y-free
    # value times a power of y kept one: the degree is checked on the
    # product at the operator that makes it.
    ("(x^150 + 1)*x^51", "degree too large", 12),
    ("x^150*(x^51 + 1)", "degree too large", 6),
    ("(y^150 + 1)*y^51", "degree too large", 12),
    ("(y + 1)*2*y^200", "degree too large", 10),
]

# (input, printed value) at the edges of the atom loop, recorded before it:
# power binds tighter than unary minus, juxtaposed integers multiply, and a
# '-' after an operand subtracts.
PARSE_GOLDENS = [
    ("-" * 100 + "x", "x"),
    ("(" * 99 + "-3x^2" + ")" * 99, "-3*x^2"),
    ("-2^2", "-4"),
    ("-x^2*y", "-x^2*y"),
    ("x -2", "x - 2"),
    ("x(-2)", "-2*x"),
    ("2 3x", "6*x"),
    ("2-3x", "-3*x + 2"),
    ("-x^2^3", "-x^6"),
    ("-2^2^3", "-64"),
    ("--x^2^3^2", "x^12"),
    ("- 2 ^ 2 x", "-4*x"),
    ("-\t2^2^2", "16"),
    ("-0^0", "-1"),
    ("2*-3^2x", "-18*x"),
    # Products of a value and a monomial, recorded before only a y-free value
    # times a power of y kept a shortcut.
    ("(y+1)*x^3*2", "2*x^3*y + 2*x^3"),
    ("2(x+1)", "2*x + 2"),
    ("y^3(x+1)/(x-1)", "(x + 1)/(x - 1)*y^3"),
    ("(x - x)*y^5", "0"),
    ("(x+1)*y^2*x*3", "(3*x^2 + 3*x)*y^2"),
]


@pytest.mark.parametrize("src,message,offset", ERROR_GOLDENS)
def test_error_goldens(src, message, offset):
    with pytest.raises(ExprError) as err:
        parse_poly(src)
    assert (str(err.value), err.value.offset) == (f"{message} at offset {offset}", offset)


@pytest.mark.parametrize("src,printed", PARSE_GOLDENS)
def test_parse_goldens(src, printed):
    assert str(parse_poly(src)) == printed


def test_monomial_runs_need_no_ring_arithmetic(monkeypatch):
    # A run of monomials is multiplied and summed as integers, and a sum of
    # monomials goes into one map: parsing these multiplies and adds no
    # UniPoly and rescans no degree or bit length.  Only a sum of monomials
    # with y goes through _monomial_sum; a y-free sum is a UniPoly built from
    # its map directly, and a y-free value times y^b is moved over as its
    # coefficient.  A sum of quotients normalises each quotient once and
    # checks the degrees of the coefficients that each term changes, not of
    # every coefficient so far.
    k = 60
    quotients = " + ".join(f"({j}*x^3 - x + 1)/(x^2 + {j})*y^{j}" for j in range(k))
    expected_quotients = YPoly({j: RatFunc(j * X**3 - X + 1, X**2 + j) for j in range(k)})
    scanned = []
    built = []
    max_degree = exprs._max_degree
    ratfunc_init = RatFunc.__init__

    def counting_max_degree(v):
        scanned.append(len(v.terms) if isinstance(v, YPoly) else 1)
        return max_degree(v)

    def counting_init(self, *args):
        built.append(args)
        ratfunc_init(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(exprs, "_max_degree", counting_max_degree)
        patch.setattr(RatFunc, "__init__", counting_init)
        assert parse_poly(quotients) == expected_quotients
    assert len(scanned) <= 2 * k and sum(scanned) <= 2 * k
    assert len(built) == k

    free_sum = "(3x^2 - x + 1)"
    free_cases = {
        free_sum: YPoly.const(3 * X**2 - X + 1),
        f"{free_sum}*y^4": YPoly.monomial(4, 3 * X**2 - X + 1),
        f"{free_sum}*y^4 + (2x - 5)y - {free_sum}": YPoly({4: 3 * X**2 - X + 1, 1: 2 * X - 5, 0: -3 * X**2 + X - 1}),
    }
    rng = random.Random(16)
    rows = [[rng.randint(-3, 3) for _ in range(6)] + [rng.choice((-3, -2, -1, 1, 2, 3))] for _ in range(17)]
    dense = " + ".join(
        "(" + " + ".join(f"{c}*x^{a}" for a, c in enumerate(row) if c) + f")*y^{b}" for b, row in enumerate(rows)
    )
    flat = "3*x^2*y + 2x - y^3 + 7"
    cases = {
        flat: YPoly({3: -1, 1: 3 * X**2, 0: 2 * X + 7}),
        dense: YPoly({b: UniPoly(row) for b, row in enumerate(rows)}),
    }
    maps = []
    monomial_sum = exprs._monomial_sum

    def counting_monomial_sum(terms):
        maps.append(terms)
        return monomial_sum(terms)

    def refuse(*args):
        raise AssertionError("ring arithmetic or a degree rescan in a monomial run")

    with monkeypatch.context() as patch:
        patch.setattr(exprs, "_monomial_sum", counting_monomial_sum)
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            patch.setattr(UniPoly, name, refuse)
        patch.setattr(exprs, "_max_degree", refuse)
        patch.setattr(exprs, "_max_bits", refuse)
        for src, expected in {**cases, **free_cases}.items():
            maps.clear()
            assert parse_poly(src) == expected, src
            assert len(maps) == (src == flat), (src, maps)
            # The one map that reaches _monomial_sum, the flat sum's, holds y.
            assert src != flat or maps[0].keys() - {0}, maps


def test_every_unicode_space_separates_tokens():
    spaces = [chr(i) for i in range(sys.maxunicode + 1) if chr(i).isspace()]
    assert len(spaces) > 20
    expected = parse_poly("2*x + y^3")
    for ws in spaces:
        assert parse_poly(ws.join(["", "2", "x", "+", "y", "^", "3", ""])) == expected
    # U+200B ZERO WIDTH SPACE is not a space to str.isspace.
    with pytest.raises(ExprError) as err:
        parse_poly("x\u200b+ y")
    assert str(err.value) == "unexpected '\\u200b' at offset 1"


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
    assert str(parse_poly("-x^3")) == "-x^3"
    assert str(parse_poly("y/x")) == "1/x*y"
    assert str(parse_poly("-y^5/(x^2+1)")) == "-1/(x^2 + 1)*y^5"
    assert str(parse_poly("(1-x)*y")) == "(-x + 1)*y"
    assert str(parse_poly("-2*y + 1")) == "-2*y + 1"
    assert str(parse_poly("(x^3+1)*y^2 - (2/3)*y")) == "(x^3 + 1)*y^2 - 2/3*y"
    assert str(parse_poly("-y^2/(2*x+1) - 1/2")) == "-1/2/(x + 1/2)*y^2 - 1/2"
    assert str(parse_poly("-(x+1)/(3*x^2)*y^3 + x^2")) == "(-1/3*x - 1/3)/x^2*y^3 + x^2"


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
