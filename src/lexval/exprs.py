"""Recursive-descent parser for elements of Q(x)[y].

Grammar (whitespace ignored):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/')? factor)*      # juxtaposition multiplies
    factor := base ('^' uint)?
    base   := 'x' | 'y' | uint | '(' expr ')' | '-' factor
    uint   := [0-9]+                           # ASCII digits only

The input is split into token texts by one regular-expression pass: runs of
ASCII digits and single non-space characters.  A run of atoms (an integer,
x, y, or a power of one, joined by '*' or juxtaposition) multiplies to a
monomial c*x^a*y^b held as three Python ints.  A sum adds its monomials, and
its terms that are polynomials over Z, into one sparse map {b: {a: c}}; the
map becomes a ring value once, at the end of the sum or at its first other
term, after which the sum goes on in ring arithmetic.  Every other
subexpression is evaluated in the smallest ring that holds it: a `UniPoly`
while it is a polynomial in x, a `RatFunc` once it has a proper denominator,
and a `YPoly` only when it contains y.  A product of such a value and a
monomial shifts and scales its coefficients where that keeps them reduced.
`parse_poly` returns a `YPoly` in every case.

Division is only defined by y-free expressions, since results must stay in
Q(x)[y].  Parentheses and unary minus together nest at most MAX_NESTING
deep, which keeps the recursion far from Python's stack limit.  Every
intermediate result has x-degree and y-degree at most MAX_DEGREE; a power is
checked before it is computed.  The x-degree of a rational coefficient is
that of its numerator or its denominator, whichever is larger.  Integers
are bounded as well: an integer literal by MAX_BITS bits, and a power by
bits(base) * k <= MAX_BITS before it is computed, where bits(base) is the
largest bit length of a numerator or denominator among its coefficients.  A
sum that is a polynomial is not rescanned: it has no degree above its
operands'.  Errors carry the offset of the offending token in the string;
the tokens' offsets are found, by a second pass, only for an error.
"""

from __future__ import annotations

import re
from math import gcd

from .ratfunc import _ZERO, RatFunc, UniPoly, _poly, as_ratfunc
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

# First characters of the tokens that can start a factor of a juxtaposition.
_ATOM_STARTERS = _DIGITS | {"x", "y", "("}

# x, y and 0 as monomials (c, a, b), that is c*x^a*y^b.  A monomial with
# c != 0 has a, b <= MAX_DEGREE, and the zero monomial is the one below, so
# that exponents stay bounded in a run that a factor 0 has zeroed.
_X = (1, 1, 0)
_Y = (1, 0, 1)
_ZERO_MONOMIAL = (0, 0, 0)

MAX_NESTING = 100

MAX_DEGREE = 200

MAX_BITS = 10_000


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
    """The larger of the y-degree and the x-degree of a nonzero v."""
    if isinstance(v, UniPoly):
        return v.degree
    xdeg = max(p.degree for p in _polys(v))
    return max(v.deg_y, xdeg) if isinstance(v, YPoly) else xdeg


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
    if v and _max_degree(v) > MAX_DEGREE:
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
    f = _monomial_sum(terms)
    if f.terms.keys() - {0}:
        return f
    return f.terms[0].num if f.terms else _ZERO


def _as_ring(v):
    """v, or the ring value of v if it is a monomial (c, a, b)."""
    return _ring({v[2]: {v[1]: v[0]}}) if type(v) is tuple else v


def _polynomial(v) -> bool:
    """Whether a ring value v lies in Q[x, y]."""
    return all(r.is_polynomial() for r in _coeffs(v).values())


def _shifted(p: UniPoly, c: int, a: int) -> UniPoly:
    """c*x^a*p."""
    return _poly([0] * a + [c * n for n in p.ints], p.denom)


def _times_monomial(v, c: int, a: int, b: int, pos: int):
    """v*c*x^a*y^b, for a = 0 or a polynomial v: each coefficient's numerator
    is shifted and scaled, and the degrees are read off v's."""
    if not c or not v:
        return _ZERO
    coeffs = _coeffs(v)
    xdeg = max(max(r.num.degree + a, r.den.degree) for r in coeffs.values())
    if max(xdeg, max(coeffs) + b) > MAX_DEGREE:
        raise _Refused("degree too large", pos)
    out = {e + b: RatFunc._canonical(_shifted(r.num, c, a), r.den) for e, r in coeffs.items()}
    if b or isinstance(v, YPoly):
        return YPoly._canonical(out)
    r = out[0]
    return r.num if r.is_polynomial() else r


def _product(u, v, pos: int):
    """u*v, the product of two factors; a product of monomials is kept as one."""
    if type(u) is tuple:
        if type(v) is tuple:
            c = u[0] * v[0]
            if not c:
                return _ZERO_MONOMIAL
            a, b = u[1] + v[1], u[2] + v[2]
            if a > MAX_DEGREE or b > MAX_DEGREE:
                raise _Refused("degree too large", pos)
            return c, a, b
        u, v = v, u
    if type(v) is tuple and (not v[1] or _polynomial(u)):
        return _times_monomial(u, *v, pos)
    return _bounded(u * _as_ring(v), pos)


def _fold(terms: dict[int, dict[int, int]], t, sign: int) -> bool:
    """Add sign*t into terms if t is a monomial or a polynomial over Z; whether it was."""
    if type(t) is tuple:
        c, a, b = t
        if c:
            row = terms.setdefault(b, {})
            row[a] = row.get(a, 0) + sign * c
        return True
    coeffs = _coeffs(t)
    if not all(r.is_polynomial() and r.num.denom == 1 for r in coeffs.values()):
        return False
    for b, r in coeffs.items():
        row = terms.setdefault(b, {})
        for a, c in enumerate(r.num.ints):
            if c:
                row[a] = row.get(a, 0) + sign * c
    return True


class _Parser:
    def __init__(self, toks: list[str]):
        self.toks = toks
        toks.append("")  # the end of the input
        self.i = 0
        self.depth = 0

    def _read_uint(self) -> int:
        text = self.toks[self.i]
        if text[:1] not in _DIGITS:
            raise _Refused("expected an integer", self.i)
        # More than MAX_BITS // 3 significant digits always exceed MAX_BITS
        # bits; refusing them first keeps int() below its own digit limit.
        if len(text) > MAX_BITS // 3:
            text = text.lstrip("0") or "0"
            if len(text) > MAX_BITS // 3:
                raise _Refused("number too large", self.i)
        n = int(text)
        if n.bit_length() > MAX_BITS:
            raise _Refused("number too large", self.i)
        self.i += 1
        return n

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
        terms: dict[int, dict[int, int]] = {}
        # The sum so far is terms until a term does not fold into it, and
        # the ring value acc from then on.
        acc = None
        sign, pos = 1, None
        while True:
            t = self.term()
            if acc is not None or not _fold(terms, t, sign):
                if pos is None:
                    acc = t
                else:
                    if acc is None:
                        acc = _ring(terms)
                    t = _as_ring(t)
                    acc = acc + t if sign > 0 else acc - t
                    # A sum that is a polynomial has no degree above its operands'.
                    if not _polynomial(acc):
                        acc = _bounded(acc, pos)
            op = toks[self.i]
            if op != "+" and op != "-":
                return _ring(terms) if acc is None else acc
            sign, pos = (1 if op == "+" else -1), ~self.i
            self.i += 1

    def term(self):
        toks = self.toks
        acc = self.factor()
        while True:
            op = toks[self.i]
            if op == "*":
                pos = ~self.i
                self.i += 1
                acc = _product(acc, self.factor(), pos)
            elif op == "/":
                pos = ~self.i
                self.i += 1
                divisor = _as_ring(self.factor())
                acc = _bounded(_divide(_as_ring(acc), divisor, pos), pos)
            elif op[:1] in _ATOM_STARTERS:
                pos = self.i
                acc = _product(acc, self.factor(), pos)
            else:
                return acc

    def factor(self):
        base = self.base()
        if self.toks[self.i] != "^":
            return base
        self.i += 1
        if self.toks[self.i] == "-":
            raise _Refused("negative exponent", self.i)
        pos = self.i
        k = self._read_uint()
        if type(base) is tuple:
            c, a, b = base
            if a * k > MAX_DEGREE or b * k > MAX_DEGREE:
                raise _Refused("degree too large", pos)
            if c.bit_length() * k > MAX_BITS:
                raise _Refused("number too large", pos)
            return c**k, a * k, b * k
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
            return self._read_uint(), 0, 0
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
