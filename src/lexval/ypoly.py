"""Polynomials in y over the rational function field Q(x).

A `YPoly` is a sparse map y-exponent -> RatFunc.  Division by a monic
divisor w has one route: a `Divisor` holds w with its denominators cleared
over Z[x] and gives the grid expansion f = sum_{i,j} f[i][j] * y^j * w^i
with 0 <= j < deg_y(w), and the table of such expansions for the pure
powers y^e is built from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .ratfunc import _ONE, NEG_INF, RatFunc, UniPoly, _join_terms, _poly, _power, _zdiv_exact, _zmul, as_ratfunc, poly_gcd


class YPoly:
    """Element of Q(x)[y], stored as {y-exponent: nonzero RatFunc}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in dict(terms).items():
                if e < 0:
                    raise ValueError("negative y-exponent")
                c = as_ratfunc(c)
                if not c.is_zero():
                    clean[e] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("YPoly is immutable")

    @classmethod
    def zero(cls) -> "YPoly":
        return cls()

    @classmethod
    def one(cls) -> "YPoly":
        return cls({0: 1})

    @classmethod
    def y(cls) -> "YPoly":
        return cls({1: 1})

    @classmethod
    def monomial(cls, e: int, c=1) -> "YPoly":
        return cls({e: c})

    @classmethod
    def const(cls, c) -> "YPoly":
        return cls({0: c})

    @property
    def deg_y(self):
        """y-degree, or -inf for the zero polynomial."""
        return max(self.terms) if self.terms else NEG_INF

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, e: int) -> RatFunc:
        return self.terms.get(e, RatFunc.zero())

    def is_monic_in_y(self) -> bool:
        return not self.is_zero() and self.terms[max(self.terms)] == RatFunc.one()

    def as_ratfunc(self) -> RatFunc:
        """The y-free content; raises if deg_y > 0."""
        if self.deg_y > 0:
            raise ValueError("polynomial is not y-free")
        return self.coeff(0)

    def items(self):
        return sorted(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = _as_ypoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.items()))

    def __neg__(self) -> "YPoly":
        return YPoly({e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "YPoly":
        other = _as_ypoly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            out[e] = c if acc is None else acc + c
        return YPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "YPoly":
        return self + (-other)

    def __rsub__(self, other) -> "YPoly":
        return (-self) + other

    def __mul__(self, other) -> "YPoly":
        if isinstance(other, (int, Fraction, UniPoly, RatFunc)):
            return self.scale(other)
        other = _as_ypoly(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, RatFunc] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                prod = c1 * c2
                acc = out.get(e)
                out[e] = prod if acc is None else acc + prod
        return YPoly(out)

    __rmul__ = __mul__

    def scale(self, scalar) -> "YPoly":
        """Multiply every coefficient by a y-free scalar."""
        s = as_ratfunc(scalar)
        return YPoly({e: c * s for e, c in self.terms.items()})

    def __pow__(self, k: int) -> "YPoly":
        if k < 0:
            raise ValueError("negative power of a y-polynomial")
        return _power(self, k, YPoly.one())

    def __call__(self, x_val, y_val) -> Fraction:
        """Exact evaluation at a rational point (x_val, y_val)."""
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c(x_val) * Fraction(y_val) ** e
        return total

    def __str__(self) -> str:
        terms = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            text = str(c)
            # A polynomial sum before a power of y is parenthesized.
            terms.append((f"({text})" if e and c.is_polynomial() and " " in text else text, e))
        return _join_terms("y", terms)

    def __repr__(self) -> str:
        return f"YPoly({str(self)!r})"


def _as_ypoly(value):
    if isinstance(value, YPoly):
        return value
    if isinstance(value, (int, Fraction, UniPoly, RatFunc)):
        return YPoly({0: value})
    return NotImplemented


def denominator_clearer(w: YPoly) -> UniPoly:
    """Least common multiple of the coefficient denominators of w."""
    acc = _ONE
    for c in w.terms.values():
        if c.is_polynomial():
            continue
        g = poly_gcd(acc, c.den)
        acc = (acc * c.den) // g
    return acc.monic()


def _clear_denominators(f: YPoly) -> tuple[list[int], dict[int, list[int]]]:
    """Integer lists den and P_e with f = sum_e P_e y^e / den, all in Z[x]."""
    if all(c.num.denom == 1 and c.is_polynomial() for c in f.terms.values()):
        return [1], {e: list(c.num.ints) for e, c in f.terms.items()}
    # The monic lcm's integer coefficients h are primitive, so each (monic)
    # denominator's D divides h in Z[x].  A coefficient (N/nd) / (D/dd)
    # times h is N * (h/D) * dd/nd; s clears the nd.
    h = denominator_clearer(f).ints
    s = lcm(*(c.num.denom for c in f.terms.values()))
    nums = {}
    for e, c in f.terms.items():
        n = c.num.ints
        if len(h) > 1:
            n = _zmul(n, h if c.is_polynomial() else _zdiv_exact(h, c.den.ints))
        k = s // c.num.denom * c.den.denom
        nums[e] = list(n) if k == 1 else _zmul(n, (k,))
    return _zmul(h, (s,)), nums


def _zadd(a: list[int], b: list[int]) -> list[int]:
    """Sum in Z[x], with trailing zeros stripped."""
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, bi in enumerate(b):
        out[i] += bi
    while out and not out[-1]:
        out.pop()
    return out


class Divisor:
    """A monic divisor w with its denominators cleared once over Z[x].

    w = y^m + sum_j A_j y^j / H with H and A_j in Z[x]; `neg_a` lists the
    pairs (j, -A_j) for the nonzero A_j.  The powers of H are computed on
    first use and shared by every expansion over this divisor.
    """

    def __init__(self, w: YPoly):
        if w.deg_y < 1:
            raise ValueError("divisor must have y-degree at least 1")
        if not w.is_monic_in_y():
            raise ValueError("divisor must be monic in y")
        self.m = w.deg_y
        self.h, nums = _clear_denominators(w)
        self.neg_a = [(j, [-c for c in nums[j]]) for j in range(self.m) if j in nums]
        # k -> H^k, only ever filled by setdefault: threads racing to fill an
        # entry compute equal values and all read the first one stored.
        self._hpow = {0: [1], 1: self.h}

    def hpower(self, k: int) -> list[int]:
        """H^k as an integer coefficient list."""
        cache = self._hpow
        while k not in cache:
            e = len(cache) - 1  # the cached exponents are always 0 .. e
            cache.setdefault(e + 1, _zmul(cache[e], self.h))
        return cache[k]

    def expand(self, f: YPoly) -> "WExpansion":
        """Expand f in powers of w over Z[x], reducing no cell.

        The division takes no gcd.  With f = sum_e P_e y^e / den, every
        intermediate coefficient is a pair (N, k) standing for
        N / (den * H^k), N in Z[x]; subtracting a multiple of w brings the
        smaller of two exponents up by a power of H.
        """
        m, neg_a, hpower = self.m, self.neg_a, self.hpower
        # With H = 1 every exponent stays 0 and nothing is ever lifted.
        step = 0 if self.h == [1] else 1
        den, fnums = _clear_denominators(f)
        cur = [(fnums.get(e, []), 0) for e in range(f.deg_y + 1 if f.terms else 0)]
        grid = []
        while len(cur) > m:
            # Position d >= m holds its quotient coefficient once reached: only
            # positions below d change afterwards.
            for d in range(len(cur) - 1, m - 1, -1):
                q, k = cur[d]
                if not q:
                    continue
                k += step
                for j, a in neg_a:
                    t = d - m + j
                    r, kt = cur[t]
                    p = _zmul(q, a)
                    if not r:
                        cur[t] = (p, k)
                    elif kt == k:
                        cur[t] = (_zadd(r, p), k)
                    elif kt < k:
                        cur[t] = (_zadd(_zmul(r, hpower(k - kt)), p), k)
                    else:
                        cur[t] = (_zadd(r, _zmul(p, hpower(kt - k))), kt)
            grid.append(cur[:m])
            cur = cur[m:]
        grid.append(cur + [([], 0)] * (m - len(cur)))
        return WExpansion(grid=grid, den=den, divisor=self)


@dataclass(frozen=True, eq=False)
class WExpansion:
    """The w-expansion f = sum cell(i, j) * y^j * w^i, 0 <= j < m.

    grid[i][j] is a pair (N, k) standing for the cell N / (den * H^k), with N
    and den in Z[x] as integer lists (no trailing zeros), H the divisor's and
    N = [] the zero cell; a cell is reduced only when it is read.  The top row
    is nonzero unless the expanded element is zero (a single all-zero row).
    """

    grid: list[list[tuple[list[int], int]]]
    den: list[int]
    divisor: Divisor
    dens: dict[int, UniPoly] = field(default_factory=dict, init=False, repr=False)

    @property
    def m(self) -> int:
        return self.divisor.m

    def residue(self, i: int, j: int) -> Fraction:
        """residue_at_inf of the nonzero cell (i, j): lc(N) / lc(den * H^k).

        A common factor divides both leading coefficients alike, so it is
        also the residue of the reduced cell.
        """
        n, k = self.grid[i][j]
        return Fraction(n[-1], self.den[-1] * self.divisor.h[-1] ** k)

    def fraction(self, i: int, j: int) -> tuple[UniPoly, UniPoly]:
        """Cell (i, j) unreduced: the numerator N and the denominator den * H^k."""
        n, k = self.grid[i][j]
        if k not in self.dens:
            self.dens[k] = _poly(_zmul(self.den, self.divisor.hpower(k)))
        return _poly(list(n)), self.dens[k]

    def cell(self, i: int, j: int) -> RatFunc:
        """Cell (i, j) as a canonical RatFunc: its one reduction."""
        return RatFunc(*self.fraction(i, j))

    @cached_property
    def rows(self) -> tuple[tuple[RatFunc, ...], ...]:
        """The grid with every cell reduced."""
        return tuple(tuple(self.cell(i, j) for j in range(self.m)) for i in range(len(self.grid)))


def w_expand(f: YPoly, w: YPoly) -> WExpansion:
    """Expand f in powers of the monic divisor w by iterated division over Z[x]."""
    return Divisor(w).expand(f)


@dataclass(frozen=True, eq=False)
class YPowerTable:
    """The w-expansions of the pure powers y^0 .. y^e_max, unreduced.

    powers[e] expands y^e.  entry(e, t) is its cell (t div m, t mod m),
    reduced when it is read; it is 1 on the diagonal t = e and 0 for t > e.
    """

    w: YPoly
    m: int
    e_max: int
    powers: tuple[WExpansion, ...]

    def entry(self, e: int, t: int) -> RatFunc:
        if not 0 <= e <= self.e_max:
            raise ValueError(f"power {e} outside table range 0..{self.e_max}")
        if t < 0:
            raise ValueError("negative cell index")
        if t > e:
            return RatFunc.zero()
        return self.powers[e].cell(*divmod(t, self.m))


def ypower_table(w: YPoly, e_max: int) -> YPowerTable:
    """Expand y^0 .. y^e_max in powers of w, reducing no cell."""
    divisor = Divisor(w)
    if e_max < 0:
        raise ValueError("e_max must be nonnegative")
    powers = tuple(divisor.expand(YPoly.monomial(e)) for e in range(e_max + 1))
    return YPowerTable(w=w, m=divisor.m, e_max=e_max, powers=powers)
