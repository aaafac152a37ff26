"""Recursive-descent parser for elements of Q(x)[y].

Grammar (whitespace ignored):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/')? factor)*      # juxtaposition multiplies
    factor := base ('^' uint)?
    base   := 'x' | 'y' | uint | '(' expr ')' | '-' factor
    uint   := [0-9]+                           # ASCII digits only

The input is split into token texts by one regular-expression pass: runs of
ASCII digits and single non-space characters.  `term` reads the atoms (an
integer, x or y, each with an optional '^' uint, and a unary '-' directly
before one) in one loop over the tokens, and multiplies a run of them, joined
by '*' or juxtaposition, into a monomial c*x^a*y^b held as three Python ints;
only '(' and a '-' before a non-atom enter `factor`.  A sum adds its
monomials into one sparse map {b: {a: c}}.  A sum that ends in that map is
a ring value built once from it: a `UniPoly` if it is free of y, else a
`YPoly`.  From its first term that is not a monomial on, a sum adds into a
map {b: RatFunc} instead, and only the coefficients that a term changes are
added and checked.  Every other subexpression is evaluated in the smallest
ring that holds it: a `UniPoly` while it is a polynomial in x, a `RatFunc`
once it has a proper denominator, and a `YPoly` only when it contains y.
A value free of y times y^b becomes the coefficient of y^b as it is; every
other product is reduced and then checked.  `parse_poly` returns a `YPoly`
in every case.

Division is only defined by y-free expressions, since results must stay in
Q(x)[y].  Parentheses and unary minus together nest at most MAX_NESTING
deep, which keeps the recursion far from Python's stack limit.  Every
intermediate result has x-degree and y-degree at most MAX_DEGREE; a power is
checked before it is computed.  The x-degree of a rational coefficient is
that of its numerator or its denominator, whichever is larger.  Integers
are bounded as well: an integer literal by MAX_BITS bits, and a power by
bits(base) * k <= MAX_BITS before it is computed, where bits(base) is the
largest bit length of a numerator or denominator among its coefficients.  A
polynomial sum of coefficients is not checked: it has no degree above its
operands'.  Errors carry the offset of the offending token in the string;
the tokens' offsets are found, by a second pass, only for an error.
"""

from __future__ import annotations

import re
from math import gcd

from .ratfunc import _ZERO, RatFunc, UniPoly, _sparse_poly, as_ratfunc
from .ypoly import YPoly, _monomial_sum


class ExprError(ValueError):
    """Parse failure with a character offset into the source string."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


# A token is a run of ASCII digits or one non-space character.  The pattern
# is compiled on first use, by re's own cache.
_TOKEN = r"[0-9]+|\S"

_DIGITS = frozenset("0123456789")

# First characters of the atoms' tokens, and of the tokens that can start a
# factor of a juxtaposition.
_ATOMS = _DIGITS | {"x", "y"}
_ATOM_STARTERS = _ATOMS | {"("}

# x and y as monomials (c, a, b), that is c*x^a*y^b.  A monomial with c != 0
# has a, b <= MAX_DEGREE, and the zero monomial is (0, 0, 0), so that
# exponents stay bounded in a run that a factor 0 has zeroed.
_X = (1, 1, 0)
_Y = (1, 0, 1)

MAX_NESTING = 100

MAX_DEGREE = 200

MAX_BITS = 10_000

# A run of at most this many digits has at most MAX_BITS bits, as 10^3 < 2^10.
_SAFE_DIGITS = MAX_BITS * 3 // 10


class _Refused(Exception):
    """An ExprError placed at a token position: pos >= 0 is the start of token
    pos, and pos < 0 the character after the one-character token ~pos."""


def _coeffs(v) -> dict[int, RatFunc]:
    """The coefficients of a ring value v, by y-exponent."""
    return v.terms if isinstance(v, YPoly) else {0: as_ratfunc(v)}


def _polys(v) -> tuple[UniPoly, ...]:
    """The polynomials in x that make up v: the num and den of each coefficient."""
    return tuple(p for r in _coeffs(v).values() for p in (r.num, r.den))


def _max_degree(v) -> int:
    """The larger of the y-degree and the x-degree of v, and at most 0 for v = 0."""
    if isinstance(v, UniPoly):
        return len(v.ints) - 1
    if isinstance(v, RatFunc):
        return max(len(v.num.ints), len(v.den.ints)) - 1
    return max(v.deg_y, max([len(p.ints) for p in _polys(v)], default=0) - 1)


def _bits(c: int, d: int) -> int:
    """The larger bit length of the numerator and the denominator of c/d in lowest terms."""
    g = gcd(c, d)
    return max((c // g).bit_length(), (d // g).bit_length())


def _max_bits(v) -> int:
    """The largest bit length of a numerator or denominator among v's coefficients."""
    return max(_bits(c, p.denom) for p in _polys(v) for c in p.ints)


def _bounded(v, pos: int):
    """v, as a UniPoly if it is a polynomial RatFunc, once its degrees are checked."""
    if isinstance(v, RatFunc) and v.is_polynomial():
        v = v.num
    if _max_degree(v) > MAX_DEGREE:
        raise _Refused("degree too large", pos)
    return v


def _divide(num, den, pos: int):
    """num/den, for a den free of y and nonzero; otherwise refused at pos."""
    if isinstance(den, YPoly):
        if den.deg_y > 0:
            raise _Refused("denominator contains y", pos)
        den = den.as_ratfunc()
    if not den:
        raise _Refused("division by zero", pos)
    if isinstance(num, YPoly):
        return num.scale(RatFunc.one() / den)
    if isinstance(num, UniPoly) and isinstance(den, UniPoly):
        return RatFunc(num, den)
    return num / den


def _ring(terms: dict[int, dict[int, int]]):
    """The sum {b: {a: c}} of monomials as a UniPoly if it is free of y, else as a YPoly."""
    if terms.keys() <= {0}:
        return _sparse_poly(terms[0]) if terms else _ZERO
    return _from_coeffs(_monomial_sum(terms).terms)


def _as_ring(v):
    """v, or the ring value of v if it is a monomial (c, a, b)."""
    return _ring({v[2]: {v[1]: v[0]}}) if type(v) is tuple else v


def _add_into(coeffs: dict[int, RatFunc], t, sign: int, pos: int) -> None:
    """Add sign*t into coeffs {b: nonzero RatFunc} and check the sums made.

    A coefficient that t does not change, or that it brings in alone, was
    checked when it was made, and a polynomial sum has no degree above its
    operands'.
    """
    for e, r in _coeffs(t).items():
        s = coeffs.get(e)
        if s is None:
            if r:
                coeffs[e] = r if sign > 0 else -r
            continue
        s = s + r if sign > 0 else s - r
        if not s:
            del coeffs[e]
            continue
        if not s.is_polynomial():
            _bounded(s, pos)
        coeffs[e] = s


def _from_coeffs(coeffs: dict[int, RatFunc]):
    """The ring value sum of r*y^b over coeffs {b: nonzero RatFunc}."""
    if coeffs.keys() - {0}:
        return YPoly._canonical(coeffs)
    r = coeffs.get(0)
    if r is None:
        return _ZERO
    return r.num if r.is_polynomial() else r


def _product(u, v, pos: int):
    """u*v, the product of a ring value u and a factor v, which may be a
    monomial.  A u free of y times y^b is moved over as the coefficient of
    y^b; every other product is reduced and its degrees checked."""
    if type(v) is tuple and v[0] == 1 and not v[1] and not isinstance(u, YPoly):
        return YPoly._canonical({v[2]: as_ratfunc(u)}) if u and v[2] else u
    return _bounded(u * _as_ring(v), pos)


def _uint(text: str, pos: int) -> int:
    """The digit run text, the token at pos, once it is checked against MAX_BITS."""
    # More than MAX_BITS // 3 significant digits always exceed MAX_BITS
    # bits; refusing them first keeps int() below its own digit limit.
    if len(text) > MAX_BITS // 3:
        text = text.lstrip("0") or "0"
        if len(text) > MAX_BITS // 3:
            raise _Refused("number too large", pos)
    n = int(text)
    if n.bit_length() > MAX_BITS:
        raise _Refused("number too large", pos)
    return n


def _exponent(toks: list[str], pos: int) -> int:
    """The exponent at token pos, just after a '^'."""
    text = toks[pos]
    if text == "-":
        raise _Refused("negative exponent", pos)
    if text[:1] not in _DIGITS:
        raise _Refused("expected an integer", pos)
    return _uint(text, pos)


def _monomial_power(c: int, a: int, b: int, k: int, pos: int) -> tuple[int, int, int]:
    """(c*x^a*y^b)^k, once its degrees and bits are checked; refused at pos."""
    if a * k > MAX_DEGREE or b * k > MAX_DEGREE:
        raise _Refused("degree too large", pos)
    if c.bit_length() * k > MAX_BITS:
        raise _Refused("number too large", pos)
    return c**k, a * k, b * k


class _Parser:
    def __init__(self, toks: list[str]):
        self.toks = toks
        toks.append("")  # the end of the input
        self.i = 0
        self.depth = 0

    def _open(self) -> None:
        """Take a '(' or a unary '-' and count it against MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _Refused("expression nested too deeply", self.i)
        self.i += 1

    # -- grammar

    def parse(self) -> YPoly:
        out = self.expr()
        text = self.toks[self.i]
        if text:
            raise _Refused(f"unexpected {text!r}", self.i)
        return out if isinstance(out, YPoly) else YPoly.const(out)

    def expr(self):
        toks = self.toks
        # The sum so far is terms, a map {b: {a: c}} of integers, until a
        # term is not a monomial, and the map coeffs {b: RatFunc} from then
        # on, in which each sum is checked as it is made.
        terms: dict[int, dict[int, int]] = {}
        coeffs = None
        sign, pos = 1, None
        while True:
            t = self.term()
            if coeffs is None and type(t) is tuple:
                c, a, b = t
                if c:
                    row = terms.get(b)
                    if row is None:
                        terms[b] = {a: sign * c}
                    else:
                        row[a] = row.get(a, 0) + sign * c
            else:
                if coeffs is None:
                    coeffs = {}
                    if terms:
                        _add_into(coeffs, _ring(terms), 1, pos)
                _add_into(coeffs, _as_ring(t), sign, pos)
            op = toks[self.i]
            if op != "+" and op != "-":
                return _ring(terms) if coeffs is None else _from_coeffs(coeffs)
            sign, pos = (1 if op == "+" else -1), ~self.i
            self.i += 1

    def term(self):
        """A product of factors.  An atom (an integer, x or y, with its power
        and a unary '-' just before it) is read in this loop, and a run of
        them is multiplied as the ints c, a, b of c*x^a*y^b; factor() reads
        every other factor."""
        toks = self.toks
        i = self.i
        c, a, b = 1, 0, 0  # the product so far, while it is a monomial
        acc = None  # the product so far, once it is a ring value
        pos = None  # where the factor joins the product; None for the first
        neg = False  # whether a unary '-' stands before the atom at i
        while True:
            text = toks[i]
            f = None
            if text == "x" or text == "y":
                i += 1
                k = 1
                if toks[i] == "^":
                    # x^k or y^k: its degree k is the bound to check, as 1^k
                    # has one bit.
                    k = toks[i + 1]
                    k = int(k) if k[:1] in _DIGITS and len(k) <= _SAFE_DIGITS else _exponent(toks, i + 1)
                    if k > MAX_DEGREE:
                        raise _Refused("degree too large", i + 1)
                    i += 2
                fc = 1
                if text == "x":
                    fa, fb = k, 0
                else:
                    fa, fb = 0, k
            elif text[:1] in _DIGITS:
                fc = int(text) if len(text) <= _SAFE_DIGITS else _uint(text, i)
                fa = fb = 0
                i += 1
                if toks[i] == "^":
                    fc, fa, fb = _monomial_power(fc, fa, fb, _exponent(toks, i + 1), i + 1)
                    i += 2
            elif text == "-" and toks[i + 1][:1] in _ATOMS:
                if self.depth >= MAX_NESTING:
                    raise _Refused("expression nested too deeply", i)
                neg = True
                i += 1
                continue
            else:
                self.i = i
                f = self.factor()
                i = self.i
                if type(f) is tuple:
                    (fc, fa, fb), f = f, None
            if neg:
                neg = False
                fc = -fc
                # '-' and an atom make a factor, which may take a power of its own.
                if toks[i] == "^":
                    fc, fa, fb = _monomial_power(fc, fa, fb, _exponent(toks, i + 1), i + 1)
                    i += 2
            if f is not None:
                if pos is None:
                    acc = f
                elif acc is None:
                    acc = _product(f, (c, a, b), pos)
                else:
                    acc = _product(acc, f, pos)
            elif acc is not None:
                acc = _product(acc, (fc, fa, fb), pos)
            else:
                c *= fc
                if not c:
                    a = b = 0
                elif fa or fb:
                    a += fa
                    b += fb
                    if a > MAX_DEGREE or b > MAX_DEGREE:
                        raise _Refused("degree too large", pos)
            op = toks[i]
            while op == "/":
                pos = ~i
                self.i = i + 1
                divisor = _as_ring(self.factor())
                acc = _bounded(_divide(_as_ring((c, a, b) if acc is None else acc), divisor, pos), pos)
                i = self.i
                op = toks[i]
            if op == "*":
                pos = ~i
                i += 1
            elif op[:1] in _ATOM_STARTERS:
                pos = i
            else:
                self.i = i
                return (c, a, b) if acc is None else acc

    def factor(self):
        base = self.base()
        if self.toks[self.i] != "^":
            return base
        pos = self.i + 1
        k = _exponent(self.toks, pos)
        self.i += 2
        if type(base) is tuple:
            return _monomial_power(*base, k, pos)
        if base and _max_degree(base) * k > MAX_DEGREE:
            raise _Refused("degree too large", pos)
        if base and _max_bits(base) * k > MAX_BITS:
            raise _Refused("number too large", pos)
        return base**k

    def base(self):
        text = self.toks[self.i]
        if text == "x":
            self.i += 1
            return _X
        if text == "y":
            self.i += 1
            return _Y
        if text[:1] in _DIGITS:
            n = _uint(text, self.i)
            self.i += 1
            return n, 0, 0
        if text == "(":
            self._open()
            inner = self.expr()
            text = self.toks[self.i]
            if text != ")":
                raise _Refused("expected ')'", self.i)
            self.i += 1
            self.depth -= 1
            return inner
        if text == "-":
            self._open()
            inner = self.factor()
            self.depth -= 1
            if type(inner) is tuple:
                return -inner[0], inner[1], inner[2]
            return -inner
        if not text:
            raise _Refused("unexpected end of input", self.i)
        raise _Refused(f"unexpected {text!r}", self.i)


def parse_poly(src: str) -> YPoly:
    """Parse an expression into Q(x)[y]."""
    try:
        return _Parser(re.findall(_TOKEN, src)).parse()
    except _Refused as err:
        message, pos = err.args
        starts = [m.start() for m in re.finditer(_TOKEN, src)]
        starts.append(len(src))
        raise ExprError(message, starts[pos] if pos >= 0 else starts[~pos] + 1) from None
