"""Recursive-descent parser for elements of Q(x)[y].

Grammar (whitespace ignored):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/')? factor)*      # juxtaposition multiplies
    factor := base ('^' uint)?
    base   := 'x' | 'y' | uint | '(' expr ')' | '-' factor
    uint   := [0-9]+                           # ASCII digits only

The input is split into tokens in one pass: runs of ASCII digits and single
non-space characters, each with its offset in the string.  Every
subexpression is evaluated in the smallest ring that holds it: a `UniPoly`
while it is a polynomial in x, a `RatFunc` once it has a proper denominator,
and a `YPoly` only when it contains y.  `parse_poly` returns a `YPoly` in every case.

Division is only defined by y-free expressions, since results must stay in
Q(x)[y].  Parentheses and unary minus together nest at most MAX_NESTING
deep, which keeps the recursion far from Python's stack limit.  Every
intermediate result has x-degree and y-degree at most MAX_DEGREE; a power is
checked before it is computed.  The x-degree of a rational coefficient is
that of its numerator or its denominator, whichever is larger.  Integers
are bounded as well: an integer literal by MAX_BITS bits, and a power by
bits(base) * k <= MAX_BITS before it is computed, where bits(base) is the
largest bit length of a numerator or denominator among its coefficients.
Errors carry the byte offset of the offending token.
"""

from __future__ import annotations

import re
from math import gcd

from .ratfunc import RatFunc, UniPoly, _as_unipoly, _raw
from .ypoly import YPoly


class ExprError(ValueError):
    """Parse failure with a byte offset into the source string."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


# A token is a run of ASCII digits or one non-space character.  The pattern
# is compiled on first use, by re's own cache.
_TOKEN = r"[0-9]+|\S"

_DIGITS = frozenset("0123456789")

# First characters of the tokens that can start a factor of a juxtaposition.
_ATOM_STARTERS = _DIGITS | {"x", "y", "("}

MAX_NESTING = 100

MAX_DEGREE = 200

MAX_BITS = 10_000


def _polys(v) -> tuple[UniPoly, ...]:
    """The polynomials in x that make up v: itself, its num and den, or those of every coefficient."""
    if isinstance(v, UniPoly):
        return (v,)
    if isinstance(v, RatFunc):
        return (v.num, v.den)
    return tuple(p for c in v.terms.values() for p in (c.num, c.den))


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


def _bounded(v, offset: int):
    """v, as a UniPoly if it is a polynomial RatFunc, once its degrees are checked."""
    if isinstance(v, RatFunc) and v.is_polynomial():
        v = v.num
    if v and _max_degree(v) > MAX_DEGREE:
        raise ExprError("degree too large", offset)
    return v


def _divide(num, den, offset: int):
    """num/den, for a den free of y and nonzero; otherwise an ExprError at offset."""
    if isinstance(den, YPoly):
        if den.deg_y > 0:
            raise ExprError("denominator contains y", offset)
        den = den.as_ratfunc()
    if not den:
        raise ExprError("division by zero", offset)
    if isinstance(num, YPoly):
        return num.scale(RatFunc.one() / den)
    if isinstance(num, UniPoly) and isinstance(den, UniPoly):
        return RatFunc(num, den)
    return num / den


class _Parser:
    def __init__(self, src: str):
        self.toks = [(m.start(), m.group()) for m in re.finditer(_TOKEN, src)]
        self.toks.append((len(src), ""))  # the end of the input
        self.i = 0
        self.depth = 0

    def _read_uint(self) -> int:
        at, text = self.toks[self.i]
        if text[:1] not in _DIGITS:
            raise ExprError("expected an integer", at)
        self.i += 1
        digits = text.lstrip("0") or "0"
        # More than MAX_BITS // 3 significant digits always exceed MAX_BITS
        # bits; refusing them first keeps int() below its own digit limit.
        if len(digits) > MAX_BITS // 3:
            raise ExprError("number too large", at)
        n = int(digits)
        if n.bit_length() > MAX_BITS:
            raise ExprError("number too large", at)
        return n

    def _open(self, at: int) -> None:
        """Take a '(' or a unary '-' and count it against MAX_NESTING."""
        self.i += 1
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError("expression nested too deeply", at)

    # -- grammar

    def parse(self) -> YPoly:
        out = self.expr()
        at, text = self.toks[self.i]
        if text:
            raise ExprError(f"unexpected {text!r}", at)
        return out if isinstance(out, YPoly) else YPoly.const(out)

    def expr(self):
        acc = self.term()
        while True:
            at, op = self.toks[self.i]
            if op == "+":
                self.i += 1
                acc = _bounded(acc + self.term(), at + 1)
            elif op == "-":
                self.i += 1
                acc = _bounded(acc - self.term(), at + 1)
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            at, op = self.toks[self.i]
            if op == "*":
                self.i += 1
                acc = _bounded(acc * self.factor(), at + 1)
            elif op == "/":
                self.i += 1
                divisor = self.factor()
                acc = _bounded(_divide(acc, divisor, at + 1), at + 1)
            elif op[:1] in _ATOM_STARTERS:
                acc = _bounded(acc * self.factor(), at)
            else:
                return acc

    def factor(self):
        first = self.toks[self.i][1]
        base = self.base()
        if self.toks[self.i][1] != "^":
            return base
        self.i += 1
        at, text = self.toks[self.i]
        if text == "-":
            raise ExprError("negative exponent", at)
        k = self._read_uint()
        if base and _max_degree(base) * k > MAX_DEGREE:
            raise ExprError("degree too large", at)
        if base and _max_bits(base) * k > MAX_BITS:
            raise ExprError("number too large", at)
        # A bare x or y to the k is a monomial, built without powering.
        if first == "x":
            return _raw((0,) * k + (1,), 1)
        if first == "y":
            return YPoly.monomial(k)
        return base**k

    def base(self):
        at, text = self.toks[self.i]
        if text == "x":
            self.i += 1
            return _raw((0, 1), 1)
        if text == "y":
            self.i += 1
            return YPoly.y()
        if text[:1] in _DIGITS:
            return _as_unipoly(self._read_uint())
        if text == "(":
            self._open(at)
            inner = self.expr()
            at, text = self.toks[self.i]
            if text != ")":
                raise ExprError("expected ')'", at)
            self.i += 1
            self.depth -= 1
            return inner
        if text == "-":
            self._open(at)
            inner = -self.factor()
            self.depth -= 1
            return inner
        if not text:
            raise ExprError("unexpected end of input", at)
        raise ExprError(f"unexpected {text!r}", at)


def parse_poly(src: str) -> YPoly:
    """Parse an expression into Q(x)[y]."""
    return _Parser(src).parse()
