"""Exact arithmetic over Q: univariate polynomials and reduced rational functions.

A `UniPoly` is stored the way FLINT stores an `fmpq_poly`: a tuple of
integer coefficients `ints` (no trailing zeros) over one positive integer
`denom`, in lowest terms, so that sums, products and scalings are integer
loops.  Its `coeffs` gives the same coefficients as `fractions.Fraction`s.  A
`RatFunc` is a reduced quotient num/den with monic denominator.  Its gcds
are taken over Z[x] by the heuristic GCDHEU (Char, Geddes & Gonnet,
J. Symbolic Comput. 7, 1989), which also returns both cofactors, with
Euclid's algorithm as the fallback.  `_zdivmod` is the one division of
integer lists, exact or not: it tests GCDHEU's candidates, gives the
cofactors of an exact division and underlies `uni_divmod`.  On top of the
field arithmetic this module provides the degree valuation at infinity
`v_inf` and its leading residue.

Zero's degree (of a `UniPoly`, or in y of a `YPoly`) is `NEG_INF` =
`-math.inf`, its `v_inf` is `math.inf`, and its lex `value` is `valgroup.INF`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm

NEG_INF = -inf  # degree of the zero polynomial

# Evaluation points GCDHEU tries before it falls back to Euclid.
_HEU_POINTS = 6


class UniPoly:
    """Polynomial in x over Q: the integer coefficients `ints` over `denom`.

    `ints` has no trailing zeros, `denom` is positive and no integer above 1
    divides `denom` and every entry of `ints`, so equal polynomials have
    equal fields.
    """

    __slots__ = ("ints", "denom")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"cannot use {type(c).__name__} as an exact rational")
        while cs and cs[-1] == 0:
            cs.pop()
        # Over the lcm of reduced denominators the numerators share no
        # factor with it, so this is already in lowest terms.
        d = lcm(*[c.denominator for c in cs])
        _set_ints(self, tuple([c.numerator * (d // c.denominator) for c in cs]))
        _set_denom(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, e: int, c=1) -> "UniPoly":
        if e < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls((0,) * e + (c,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first, built on each read."""
        return tuple(Fraction(c, self.denom) for c in self.ints)

    @property
    def degree(self):
        """Degree, or -inf for the zero polynomial."""
        return len(self.ints) - 1 if self.ints else NEG_INF

    def is_zero(self) -> bool:
        return not self.ints

    def lc(self) -> Fraction:
        """Leading coefficient (of the zero polynomial: 0)."""
        return Fraction(self.ints[-1], self.denom) if self.ints else Fraction(0)

    def monic(self) -> "UniPoly":
        if not self.ints or self.ints[-1] == self.denom:
            return self
        return _poly(list(self.ints), self.ints[-1])

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __eq__(self, other) -> bool:
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ints == other.ints and self.denom == other.denom

    def __hash__(self):
        return hash((self.ints, self.denom))

    def __neg__(self) -> "UniPoly":
        return _raw(tuple(-c for c in self.ints), self.denom)

    def __add__(self, other) -> "UniPoly":
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.ints, other.ints
        d = lcm(self.denom, other.denom)
        fa, fb = d // self.denom, d // other.denom
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        out = [c * fa for c in a]
        for i, c in enumerate(b):
            out[i] += c * fb
        return _poly(out, d)

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        return self + (-other)

    def __rsub__(self, other) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.ints or not other.ints:
            return _ZERO
        return _poly(_zmul(self.ints, other.ints), self.denom * other.denom)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, k, _ONE)

    def __divmod__(self, other):
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return uni_divmod(self, other)

    def __floordiv__(self, other) -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "UniPoly":
        return divmod(self, other)[1]

    def __call__(self, point) -> Fraction:
        """Evaluate at an exact rational point (Horner)."""
        acc = Fraction(0)
        for c in reversed(self.ints):
            acc = acc * point + c
        return acc / self.denom

    def __str__(self) -> str:
        d = self.denom
        terms = [(str(c if d == 1 else Fraction(c, d)), e) for e, c in enumerate(self.ints) if c]
        return _join_terms("x", reversed(terms))

    def __repr__(self) -> str:
        return f"UniPoly({str(self)!r})"


# The slots' own setters: they skip the __setattr__ that keeps the value
# types immutable, and cost less per call than object.__setattr__.
_set_ints, _set_denom = UniPoly.ints.__set__, UniPoly.denom.__set__


def _join_terms(var: str, terms) -> str:
    """The sum of (coefficient text, exponent) terms in var, highest first.

    A unit coefficient before a power of var is dropped, a term whose text
    starts with a minus sign is subtracted, and the empty sum is "0".
    """
    text = ""
    for c, e in terms:
        piece = c
        if e:
            mono = var if e == 1 else f"{var}^{e}"
            piece = mono if c == "1" else f"-{mono}" if c == "-1" else f"{c}*{mono}"
        if not text:
            text = piece
        elif piece.startswith("-"):
            text += f" - {piece[1:]}"
        else:
            text += f" + {piece}"
    return text or "0"


def _raw(ints: tuple[int, ...], denom: int) -> UniPoly:
    """ints/denom, which must already satisfy UniPoly's invariants."""
    p = object.__new__(UniPoly)
    _set_ints(p, ints)
    _set_denom(p, denom)
    return p


def _poly(ints: list[int], denom: int = 1) -> UniPoly:
    """ints/denom in lowest terms, for an integer list (which is consumed) and denom != 0."""
    while ints and not ints[-1]:
        ints.pop()
    if denom != 1:
        if denom < 0:
            ints, denom = [-c for c in ints], -denom
        g = gcd(denom, *ints)
        if g != 1:
            ints, denom = [c // g for c in ints], denom // g
    return _raw(tuple(ints), denom)


def _sparse_poly(row: dict[int, int]) -> UniPoly:
    """The sum of the terms c*x^a given as {a: c} with integers c."""
    ints = [0] * (max(row, default=-1) + 1)
    for a, c in row.items():
        ints[a] = c
    return _poly(ints)


_ZERO = _raw((), 1)
_ONE = _raw((1,), 1)


def _power(base, k: int, one):
    """base**k for k >= 0 by square-and-multiply, starting from the unit one."""
    result = one
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def _as_unipoly(value):
    if isinstance(value, UniPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return _raw((value.numerator,), value.denominator) if value else _ZERO
    return NotImplemented


def uni_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Long division: a = q*b + r with deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.degree < b.degree:
        return _ZERO, a
    # With a = A/alpha and b = B/beta: A*s = Q*B + R, so q = Q*beta/(alpha*s)
    # and r = R/(alpha*s).
    q, r, s = _zdivmod(a.ints, b.ints)
    den = a.denom * s
    return _poly([x * b.denom for x in q], den), _poly(r, den)


def _euclid(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by Euclid's algorithm over Q."""
    while not b.is_zero():
        # making each remainder monic keeps the coefficient fractions small
        a, b = b, (a % b).monic()
    return a.monic()


# ---------------------------------------------------------------------------
# Z[x]: coefficient lists, lowest degree first, no trailing zeros.


def _zmul(a, b) -> list[int]:
    """Product in Z[x] of two nonzero coefficient lists."""
    if len(b) == 1:
        b0 = b[0]
        return list(a) if b0 == 1 else [c * b0 for c in a]
    if not b[0]:
        # b = x^s * b': a shift, and a scaling when b is a monomial.
        s = 1
        while not b[s]:
            s += 1
        return [0] * s + _zmul(a, b[s:])
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _zdivmod(a, b) -> tuple[list[int], list[int], int]:
    """Division in Z[x] of a by the nonzero b: Q, R and s >= 1 with a*s = Q*b + R.

    The one division of integer lists, exact or not.  deg R < deg b, and
    neither Q nor R has trailing zeros.  The remainder is scaled up only when
    lc(b) does not divide its leading coefficient, so s = 1 when lc(b) = +-1,
    and s = 1 with R = [] exactly when b divides a in Z[x].  Only the nonzero
    lower coefficients of b are subtracted.
    """
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    low = [(j, c) for j, c in enumerate(b[:db]) if c]
    q = [0] * max(len(rem) - db, 0)
    s = 1
    for i in range(len(rem) - 1, db - 1, -1):
        if rem[i] % lead:
            f = abs(lead) // gcd(rem[i], lead)
            rem, q, s = [x * f for x in rem], [x * f for x in q], s * f
        t = rem[i] // lead
        if t:
            q[i - db] = t
            for j, c in low:
                rem[i - db + j] -= t * c
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return q, rem, s


def _primitive(a) -> tuple[int, list[int]]:
    """The positive content of a nonzero a and its primitive part."""
    c = gcd(*a)
    return c, list(a) if c == 1 else [x // c for x in a]


def _heu_gcd(a, b) -> tuple[list[int], list[int], list[int]] | None:
    """GCDHEU: the gcd of primitive a, b in Z[x] with nonzero constant terms
    and both cofactors, or None.

    At an integer point xi the gcd of a(xi) and b(xi), written in balanced
    base xi, is a candidate.  With xi >= 2*min(|a|, |b|) + 2 in max-norm, a
    candidate whose primitive part divides both a and b is their gcd
    (Geddes, Czapor & Labahn, Algorithms for Computer Algebra, Thm 7.7).
    The divisions that check this, exact when they give s = 1 and R = [],
    give the cofactors; a constant candidate, whose primitive part is 1,
    needs none, and one with a zero constant term or a lead or constant term
    that does not divide a's and b's is rejected before any division.  None
    means that no candidate of _HEU_POINTS points divided.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEU_POINTS):
        va = vb = 0
        for c in reversed(a):
            va = va * xi + c
        for c in reversed(b):
            vb = vb * xi + c
        gamma = gcd(va, vb)
        g = []
        while gamma:
            gamma, c = divmod(gamma, xi)
            if 2 * c > xi:
                c -= xi
                gamma += 1
            g.append(c)
        if len(g) == 1:
            return [1], list(a), list(b)
        if g:
            content = gcd(*g) if g[-1] > 0 else -gcd(*g)
            g = [c // content for c in g]
        # A divisor's lead and constant term divide those of a and b, so a
        # candidate that fails these integer tests needs no trial division.
        if g and g[0] and not (a[-1] % g[-1] or b[-1] % g[-1] or a[0] % g[0] or b[0] % g[0]):
            qa, ra, sa = _zdivmod(a, g)
            if sa == 1 and not ra:
                qb, rb, sb = _zdivmod(b, g)
                if sb == 1 and not rb:
                    return g, qa, qb
        xi = xi * 73794 // 27011
    return None


def _zgcd(a, b) -> tuple[list[int], list[int], list[int]]:
    """gcd of primitive nonzero a, b in Z[x], with positive lead, and both cofactors."""
    ta = next(i for i, c in enumerate(a) if c)
    tb = next(i for i, c in enumerate(b) if c)
    t = min(ta, tb)
    a1, b1 = a[ta:], b[tb:]
    if len(a1) == 1 or len(b1) == 1:
        # A primitive constant is 1 or -1.
        g, qa, qb = [1], list(a1), list(b1)
    else:
        out = _heu_gcd(a1, b1)
        if out is None:
            # A monic gcd in lowest terms has primitive integer coefficients.
            g = list(_euclid(_poly(list(a1)), _poly(list(b1))).ints)
            out = g, _zdivmod(a1, g)[0], _zdivmod(b1, g)[0]
        g, qa, qb = out
    return [0] * t + g, [0] * (ta - t) + qa, [0] * (tb - t) + qb


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    if a.is_zero() or b.is_zero():
        return (b if a.is_zero() else a).monic()
    g = _zgcd(_primitive(a.ints)[1], _primitive(b.ints)[1])[0]
    return _raw(tuple(g), g[-1])


class RatFunc:
    """Reduced rational function num/den over Q[x] with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_unipoly(num)
        den = _ONE if den is None else _as_unipoly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RatFunc components must be polynomials or rationals")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = _ZERO, _ONE
        elif len(den.ints) == 1:
            if den.ints[0] != den.denom:
                num = _poly([c * den.denom for c in num.ints], num.denom * den.ints[0])
                den = _ONE
        else:
            num, den = _reduced(num, den)
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _canonical(cls, num: UniPoly, den: UniPoly) -> "RatFunc":
        """num/den, which must already be reduced with a monic den."""
        r = object.__new__(cls)
        _set_num(r, num)
        _set_den(r, den)
        return r

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def zero(cls) -> "RatFunc":
        return _RF_ZERO  # shared: a RatFunc is immutable

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(UniPoly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return len(self.den.ints) == 1

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self) -> "RatFunc":
        return RatFunc._canonical(-self.num, self.den)

    def __add__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return RatFunc(a + c, b)
        # b = B/lc(B) and d = D/lc(D) with B = G*B1 and D = G*D1 in Z[x], so
        # a/b + c/d = (a*lc(B)*D1 + c*lc(D)*B1) / (B*D1).
        _, b1, d1 = _zgcd(b.ints, d.ints)
        num = a * _poly([x * b.denom for x in d1]) + c * _poly([x * d.denom for x in b1])
        return RatFunc(num, _poly(_zmul(b.ints, d1)))

    __radd__ = __add__

    def __sub__(self, other) -> "RatFunc":
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_polynomial() and other.is_polynomial():
            return RatFunc._canonical(self.num * other.num, _ONE)
        # A nonzero constant c keeps the other side reduced: c * p/q = (c*p)/q.
        for c, r in ((other, self), (self, other)):
            if c.is_polynomial() and len(c.num.ints) == 1:
                return RatFunc._canonical(c.num * r.num, r.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return _as_ratfunc(other) / self

    def __pow__(self, k: int) -> "RatFunc":
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den ** (-k), self.num ** (-k))
        # Powers of coprime polynomials are coprime, and of a monic one monic.
        return RatFunc._canonical(self.num**k, self.den**k)

    def __call__(self, point) -> Fraction:
        d = self.den(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {point}")
        return self.num(point) / d

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        ns, ds = str(self.num), str(self.den)
        if " " in ns:
            ns = f"({ns})"
        if " " in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"RatFunc({str(self)!r})"


_set_num, _set_den = RatFunc.num.__set__, RatFunc.den.__set__
_RF_ZERO = RatFunc._canonical(_ZERO, _ONE)


def _reduced(num: UniPoly, den: UniPoly) -> tuple[UniPoly, UniPoly]:
    """The canonical num/den, for a nonzero num and den of degree at least 1."""
    cn, n = _primitive(num.ints)
    cd, d = _primitive(den.ints)
    if len(n) > 1:
        _, n, d = _zgcd(n, d)
    # num/den = (cn*den.denom) / (num.denom*cd) * n/d, and d/lead is monic.
    lead = d[-1]
    p, q = cn * den.denom, num.denom * cd * lead
    if q < 0:
        p, q = -p, -q
    g = gcd(p, q)
    p, q = p // g, q // g
    # n and d are primitive, so both results are in lowest terms.
    return (
        _raw(tuple(c * p for c in n), q),
        _raw(tuple(d) if lead > 0 else tuple(-c for c in d), abs(lead)),
    )


def _as_ratfunc(value):
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (UniPoly, int, Fraction)):
        return RatFunc._canonical(_as_unipoly(value), _ONE)
    return NotImplemented


def as_ratfunc(value) -> RatFunc:
    """Lift an int, Fraction or UniPoly into RatFunc."""
    out = _as_ratfunc(value)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {type(value).__name__} as a rational function")
    return out


def v_inf(h: RatFunc):
    """Degree valuation at infinity: deg(den) - deg(num); inf for h = 0."""
    if h.is_zero():
        return inf
    return h.den.degree - h.num.degree


def residue_at_inf(h: RatFunc) -> Fraction:
    """Ratio of leading coefficients: the unique c with v_inf(h - c*x^(-v_inf(h))) > v_inf(h)."""
    if h.is_zero():
        raise ValueError("residue of zero is undefined")
    return h.num.lc() / h.den.lc()
