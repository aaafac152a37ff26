"""The parser against a reference that evaluates the same tree in YPoly arithmetic."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lexval import ExprError, RatFunc, UniPoly, YPoly, parse_poly  # noqa: E402

SPACES = st.sampled_from(["", " ", "  ", "\t"])


def _trees(with_y: bool):
    """Expression trees; every divisor is drawn y-free."""
    atoms = ["x", "y"] if with_y else ["x"]
    leaves = st.one_of(st.sampled_from(atoms), st.integers(0, 12).map(str)).map(lambda s: ("atom", s))
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", ""]), kids, kids, SPACES),
            st.tuples(st.just("/"), kids, YFREE, SPACES),
            st.tuples(st.just("^"), kids, st.integers(0, 3), SPACES),
            st.tuples(st.just("neg"), kids),
        ),
        max_leaves=8,
    )


YFREE = st.deferred(lambda: _trees(False))
TREES = _trees(True)


def _wrap(tree) -> str:
    text = _render(tree)
    return text if tree[0] == "atom" else f"({text})"


def _render(tree) -> str:
    kind = tree[0]
    if kind == "atom":
        return tree[1]
    if kind == "neg":
        return "-" + _wrap(tree[1])
    if kind == "^":
        _, base, k, sp = tree
        return f"{_wrap(base)}{sp}^{sp}{k}"
    op, a, b, sp = tree
    left, right = _wrap(a), _wrap(b)
    if op == "" and not sp and left[-1].isdigit() and right[0].isdigit():
        sp = " "  # "2" "3" juxtaposed must not read as 23
    return f"{left}{sp}{op}{sp}{right}"


def _degree_bound(tree) -> int:
    """An upper bound on every x- and y-degree met while evaluating the tree."""
    kind = tree[0]
    if kind == "atom":
        return 1 if tree[1] in ("x", "y") else 0
    if kind == "neg":
        return _degree_bound(tree[1])
    if kind == "^":
        return _degree_bound(tree[1]) * tree[2]
    op, a, b, _ = tree
    if op in ("+", "-"):
        return max(_degree_bound(a), _degree_bound(b))
    return _degree_bound(a) + _degree_bound(b)


def _reference(tree) -> YPoly:
    """The tree's value, every subexpression a YPoly; ZeroDivisionError on a zero divisor."""
    kind = tree[0]
    if kind == "atom":
        s = tree[1]
        if s == "x":
            return YPoly.const(UniPoly.x())
        if s == "y":
            return YPoly.y()
        return YPoly.const(int(s))
    if kind == "neg":
        return -_reference(tree[1])
    if kind == "^":
        return _reference(tree[1]) ** tree[2]
    op, a, b, _ = tree
    left, right = _reference(a), _reference(b)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op in ("*", ""):
        return left * right
    scalar = right.as_ratfunc()
    if scalar.is_zero():
        raise ZeroDivisionError
    return left.scale(RatFunc.one() / scalar)


@settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(TREES)
def test_parse_matches_ypoly_reference(tree):
    # Far below MAX_DEGREE, so that no bound is met and the reference stays cheap.
    assume(_degree_bound(tree) <= 40)
    src = _render(tree)
    try:
        expected = _reference(tree)
    except ZeroDivisionError:
        with pytest.raises(ExprError, match="division by zero"):
            parse_poly(src)
        return
    assert parse_poly(src) == expected, src
    # The printer's output parses back to the same element.
    assert parse_poly(str(expected)) == expected, str(expected)


def _power_text(base: str, k: int, sp: str) -> str:
    return f"{base}{sp}^{sp}{k}"


@st.composite
def _atom_factor(draw, with_y: bool = True):
    """An atom of a monomial run as (text, tree): an integer, x or y, or a power of x or y."""
    kind = draw(st.sampled_from(["int", "x", "y"] if with_y else ["int", "x"]))
    if kind == "int":
        text = str(draw(st.integers(0, 12)))
        return text, ("atom", text)
    k = draw(st.one_of(st.none(), st.integers(0, 4)))
    if k is None:
        return kind, ("atom", kind)
    sp = draw(SPACES)
    return _power_text(kind, k, sp), ("^", ("atom", kind), k, sp)


@st.composite
def _bracketed_factor(draw, trees=TREES):
    """A parenthesized tree, sometimes raised to a power, as (text, tree)."""
    tree = draw(trees)
    text = f"({_render(tree)})"
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        return _power_text(text, k, ""), ("^", tree, k, "")
    return text, tree


FACTORS = st.one_of(*[_atom_factor()] * 5, _bracketed_factor())
DIVISORS = st.one_of(_atom_factor(with_y=False), _bracketed_factor(YFREE))


@st.composite
def _flat_term(draw):
    """A product of factors joined by '*', '/' or juxtaposition, maybe negated at its start, as (text, tree)."""
    text, tree = draw(FACTORS)
    if draw(st.integers(0, 4)) == 0:
        text, tree = "-" + text, ("neg", tree)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["*", "", "", "/"]))
        right, rtree = draw(DIVISORS if op == "/" else FACTORS)
        sp = draw(SPACES)
        if op == "" and not sp and text[-1].isdigit() and right[0].isdigit():
            sp = " "  # "x^2" "3" juxtaposed must not read as x^23
        text = f"{text}{sp}{op}{draw(SPACES) if op else ''}{right}"
        tree = (op, tree, rtree, sp)
    return text, tree


@st.composite
def _flat_sum(draw):
    """A sum of flat terms with no parentheses between them, as (text, tree)."""
    text, tree = draw(_flat_term())
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(["+", "-"]))
        right, rtree = draw(_flat_term())
        text = f"{text}{draw(SPACES)}{op}{draw(SPACES)}{right}"
        tree = (op, tree, rtree, "")
    return text, tree


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_flat_sum())
def test_flat_monomial_sums_match_ypoly_reference(case):
    src, tree = case
    assume(_degree_bound(tree) <= 40)
    try:
        expected = _reference(tree)
    except ZeroDivisionError:
        with pytest.raises(ExprError, match="division by zero"):
            parse_poly(src)
        return
    assert parse_poly(src) == expected, src


# Denominators that several terms share, so that equal denominators and
# repeated y-exponents make the parser add rational coefficients.
SHARED_DENOMINATORS = [(1, 0, 1), (2, 1), (-3, 0, 1), (1, 1)]


@st.composite
def _x_poly(draw, nonzero: bool = False):
    """Integer coefficients c_0, ..., c_a of a polynomial in x, and its text as a signed c*x^a run."""
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=5))
    if nonzero and not any(coeffs):
        coeffs[-1] = draw(st.sampled_from([-2, -1, 1, 3]))
    parts = []
    for a, c in enumerate(coeffs):
        if not c and draw(st.booleans()):
            continue
        sp = draw(SPACES)
        parts.append(f"{c}{sp}*{sp}x{sp}^{sp}{a}")
    text = ""
    for k, part in enumerate(parts or ["0"]):
        if not k:
            text = part
        elif part.startswith("-") and draw(st.booleans()):
            text += f"{draw(SPACES)}-{draw(SPACES)}{part[1:]}"  # a binary minus instead of + -c
        else:
            text += f"{draw(SPACES)}+{draw(SPACES)}{part}"
    return coeffs, text


@st.composite
def _quotient_term(draw):
    """(N)/(D)*y^b, maybe negated and with extra parentheses, as (sign, N, D, b, text)."""
    num, num_text = draw(_x_poly())
    if draw(st.booleans()):
        den = list(draw(st.sampled_from(SHARED_DENOMINATORS)))
        den_text = " + ".join(f"{c}*x^{a}" for a, c in enumerate(den))
    else:
        den, den_text = draw(_x_poly(nonzero=True))
    b = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 2))):
        num_text = f"({num_text})"
    sp = draw(SPACES)
    text = f"({num_text}){sp}/{sp}({den_text}){sp}*{sp}y^{b}"
    sign = 1
    if draw(st.integers(0, 3)) == 0:
        text, sign = f"-({text})" if draw(st.booleans()) else f"-{text}", -1
    return sign, num, den, b, text


@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(st.tuples(st.sampled_from(["+", "-"]), _quotient_term(), SPACES), min_size=1, max_size=6))
def test_quotient_sums_match_ypoly_reference(terms):
    # The rational_q shape: sums of (N)/(D)*y^b with N and D signed c*x^a runs.
    src = ""
    expected = YPoly.zero()
    for k, (op, (sign, num, den, b, text), sp) in enumerate(terms):
        value = YPoly.monomial(b, RatFunc(UniPoly(num), UniPoly(den))) * sign
        if k:
            src += f"{sp}{op}{sp}{text}"
            expected = expected + value if op == "+" else expected - value
        else:
            src, expected = text, value
    assert parse_poly(src) == expected, src
