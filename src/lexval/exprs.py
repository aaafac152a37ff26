"""Recursive-descent parser for elements of Q(x)[y].

Grammar (whitespace ignored):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/')? factor)*      # juxtaposition multiplies
    factor := base ('^' uint)?
    base   := 'x' | 'y' | uint | '(' expr ')' | '-' factor

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

from .ratfunc import RatFunc, UniPoly
from .ypoly import YPoly


class ExprError(ValueError):
    """Parse failure with a byte offset into the source string."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


_ATOM_STARTERS = ("x", "y", "(")

MAX_NESTING = 100

MAX_DEGREE = 200

MAX_BITS = 10_000


def _max_degree(p: YPoly) -> int:
    """The larger of the y-degree and the x-degree of a nonzero p."""
    xdeg = max(max(c.num.degree, c.den.degree) for c in p.terms.values())
    return max(p.deg_y, xdeg)


def _max_bits(p: YPoly) -> int:
    """The largest bit length of a numerator or denominator among p's coefficients."""
    return max(
        max(q.numerator.bit_length(), q.denominator.bit_length())
        for c in p.terms.values()
        for poly in (c.num, c.den)
        for q in poly.coeffs
    )


def _bounded(p: YPoly, offset: int) -> YPoly:
    if p and _max_degree(p) > MAX_DEGREE:
        raise ExprError("degree too large", offset)
    return p


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.depth = 0

    # -- lexing helpers

    def _skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def _take(self) -> str:
        ch = self._peek()
        self.pos += 1
        return ch

    def _read_uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ExprError("expected an integer", start)
        digits = self.src[start : self.pos].lstrip("0") or "0"
        # More than MAX_BITS // 3 significant digits always exceed MAX_BITS
        # bits; refusing them first keeps int() below its own digit limit.
        if len(digits) > MAX_BITS // 3:
            raise ExprError("number too large", start)
        n = int(digits)
        if n.bit_length() > MAX_BITS:
            raise ExprError("number too large", start)
        return n

    def _open(self, at: int) -> None:
        """Take a '(' or a unary '-' and count it against MAX_NESTING."""
        self._take()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError("expression nested too deeply", at)

    # -- grammar

    def parse(self) -> YPoly:
        out = self.expr()
        self._skip_ws()
        if self.pos < len(self.src):
            raise ExprError(f"unexpected {self.src[self.pos]!r}", self.pos)
        return out

    def expr(self) -> YPoly:
        acc = self.term()
        while True:
            ch = self._peek()
            if ch == "+":
                self._take()
                at = self.pos
                acc = _bounded(acc + self.term(), at)
            elif ch == "-":
                self._take()
                at = self.pos
                acc = _bounded(acc - self.term(), at)
            else:
                return acc

    def term(self) -> YPoly:
        acc = self.factor()
        while True:
            ch = self._peek()
            if ch == "*":
                self._take()
                at = self.pos
                acc = _bounded(acc * self.factor(), at)
            elif ch == "/":
                self._take()
                at = self.pos
                divisor = self.factor()
                acc = _bounded(self._divide(acc, divisor, at), at)
            elif ch.isdigit() or ch in _ATOM_STARTERS:
                at = self.pos
                acc = _bounded(acc * self.factor(), at)
            else:
                return acc

    def factor(self) -> YPoly:
        base = self.base()
        if self._peek() == "^":
            self._take()
            self._skip_ws()
            at = self.pos
            if self._peek() == "-":
                raise ExprError("negative exponent", at)
            k = self._read_uint()
            if base and _max_degree(base) * k > MAX_DEGREE:
                raise ExprError("degree too large", at)
            if base and _max_bits(base) * k > MAX_BITS:
                raise ExprError("number too large", at)
            return base**k
        return base

    def base(self) -> YPoly:
        ch = self._peek()
        at = self.pos
        if ch == "x":
            self._take()
            return YPoly.const(UniPoly.x())
        if ch == "y":
            self._take()
            return YPoly.y()
        if ch.isdigit():
            return YPoly.const(self._read_uint())
        if ch == "(":
            self._open(at)
            inner = self.expr()
            if self._peek() != ")":
                raise ExprError("expected ')'", self.pos)
            self._take()
            self.depth -= 1
            return inner
        if ch == "-":
            self._open(at)
            inner = -self.factor()
            self.depth -= 1
            return inner
        if ch == "":
            raise ExprError("unexpected end of input", at)
        raise ExprError(f"unexpected {ch!r}", at)

    @staticmethod
    def _divide(num: YPoly, den: YPoly, offset: int) -> YPoly:
        if den.deg_y > 0:
            raise ExprError("denominator contains y", offset)
        scalar = den.as_ratfunc()
        if scalar.is_zero():
            raise ExprError("division by zero", offset)
        return num.scale(RatFunc.one() / scalar)


def parse_poly(src: str) -> YPoly:
    """Parse an expression into Q(x)[y]."""
    return _Parser(src).parse()
