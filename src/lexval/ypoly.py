"""Polynomials in y over the rational function field Q(x).

A `YPoly` is a sparse map y-exponent -> RatFunc.  Division by a monic
divisor w has one route: a `Divisor` holds w with its denominators cleared
over Z[x] and gives the grid expansion f = sum_{i,j} f[i][j] * y^j * w^i
with 0 <= j < deg_y(w).  The grids of the pure powers y^e have one home,
the divisor's store (`Divisor.ypower`), and dividing builds none of them:
the grid of y^(e+1) is that of y^e shifted one place, and each row,
moved, goes through one step of the division loop, which folds its top cell
back through y^m = w - sum_k A_k y^k / H (the step of MacLane's
augmentation).  The expansion is unique and Q(x)-linear, so from the grids
of f and g neither f + lam*g nor f*g is divided: `WExpansion.plus` sums
the grids cell by cell, and `WExpansion.times` multiplies them and sends
each row that reaches y^m through the same step.  The division, products
and sums f + lam*g also run on an element's cleared rows: the pair
(den, nums) of `_clear_denominators`, with f = sum_e nums[e] y^e / den over
Z[x] and no zero list in nums (the zero element is (den, {})), so a caller
that holds rows builds no `YPoly`.  den is the product of f's distinct
denominators, which is their lcm when they are pairwise coprime, so
clearing an element takes no gcd.  A divisor's H is the lcm of w's
denominators, computed once per divisor.  A `WExpansion` carries its
element's rows over its own den, and `plus` and `times` combine grid and
rows together, so a caller that holds expansions holds its elements too
and builds a `YPoly` (`WExpansion.element`) only at its boundary.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm
from operator import add

from .ratfunc import _ONE, _RF_ZERO, NEG_INF, RatFunc, UniPoly, _join_terms, _poly, _power, _zdivmod, _zmul, as_ratfunc, poly_gcd


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
        _set_terms(self, clean)

    def __setattr__(self, name, value):
        raise AttributeError("YPoly is immutable")

    @classmethod
    def _canonical(cls, terms: dict[int, RatFunc]) -> "YPoly":
        """terms, which must map nonnegative exponents to nonzero RatFuncs."""
        f = object.__new__(cls)
        _set_terms(f, terms)
        return f

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
        c = self.terms.get(e)
        return _RF_ZERO if c is None else c

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
        return YPoly._canonical({e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "YPoly":
        other = _as_ypoly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            elif s := acc + c:
                out[e] = s
            else:
                del out[e]
        return YPoly._canonical(out)

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
        return _from_rows(*_rows_times(_clear_denominators(self), _clear_denominators(other)))

    __rmul__ = __mul__

    def scale(self, scalar) -> "YPoly":
        """Multiply every coefficient by a y-free scalar."""
        s = as_ratfunc(scalar)
        if not s:
            return YPoly._canonical({})
        # A product of nonzero elements of the field Q(x) is nonzero.
        return YPoly._canonical({e: c * s for e, c in self.terms.items()})

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


# The slot's own setter, as for UniPoly and RatFunc in lexval.ratfunc.
_set_terms = YPoly.terms.__set__


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
    """Integer lists den and P_e with f = sum_e P_e y^e / den, all in Z[x].

    den is s times P, the product of f's distinct denominators, and s the
    lcm of the integer denominators of its numerators; no gcd is taken.  P
    is their lcm when they are pairwise coprime.  Otherwise den and every
    P_e carry the same extra factor, which changes no cell's order at
    infinity or leading residue, and a cell is reduced when it is read.
    """
    nums = {}
    for e, c in f.terms.items():
        if c.num.denom != 1 or len(c.den.ints) != 1:
            break
        nums[e] = list(c.num.ints)
    else:
        return [1], nums
    # A canonical denominator D/dd has primitive integer coefficients D with a
    # positive lead, so equal denominators have equal D.  A coefficient
    # (N/nd) / (D/dd) times s*P is N * (P/D) * s/nd * dd, and P/D is the
    # product of the other D.
    dens = list(dict.fromkeys(c.den.ints for c in f.terms.values() if len(c.den.ints) > 1))
    product, cofactors = _cofactors(dens)
    others = dict(zip(dens, cofactors))
    s = lcm(*(c.num.denom for c in f.terms.values()))
    nums = {}
    for e, c in f.terms.items():
        n = _zmul(c.num.ints, others.get(c.den.ints, product))
        k = s // c.num.denom * c.den.denom
        nums[e] = n if k == 1 else _zmul(n, (k,))
    return _zmul(product, (s,)), nums


def _cofactors(dens: list) -> tuple[list[int], list[list[int]]]:
    """The product of the nonzero Z[x] lists dens and, for each, the product
    of the others: the whole product divided exactly by it, with no gcd."""
    product = [1]
    for d in dens:
        product = _zmul(product, d)
    return product, [_zdivmod(product, d)[0] for d in dens]


def _zadd(a: list[int], b: list[int]) -> list[int]:
    """Sum in Z[x], with trailing zeros stripped."""
    if len(a) < len(b):
        a, b = b, a
    out = list(map(add, a, b))
    out += a[len(b):]
    while out and not out[-1]:
        out.pop()
    return out


def _from_rows(den: list[int], nums: dict[int, list[int]]) -> YPoly:
    """The element sum_e nums[e] y^e / den, with each coefficient reduced once."""
    if len(den) == 1:
        d = den[0]
        return YPoly._canonical({e: RatFunc._canonical(_poly(n, d), _ONE) for e, n in nums.items()})
    dpoly = _poly(den)
    return YPoly._canonical({e: RatFunc(_poly(n), dpoly) for e, n in nums.items()})


def _rows_times(f: tuple, g: tuple) -> tuple[list[int], dict[int, list[int]]]:
    """The cleared rows of f*g: the product of the dens, the rows convolved in Z[x]."""
    (df, pf), (dg, pg) = f, g
    acc: dict[int, list[int]] = {}
    for e1, p in pf.items():
        for e2, q in pg.items():
            e = e1 + e2
            pq = _zmul(p, q)
            s = acc.get(e)
            acc[e] = pq if s is None else _zadd(s, pq)
    return _zmul(df, dg), {e: n for e, n in acc.items() if n}


def _lam_dens(a: list[int], b: list[int], lam: Fraction) -> tuple[list[int], list[int], list[int]]:
    """den, ma and mb with F/a + lam*G/b = (F*ma + G*mb) / den for lam != 0.
    Integer dens combine by their lcm, polynomial ones by their product (no gcd)."""
    p, q = lam.numerator, lam.denominator
    if len(a) == 1 and len(b) == 1:
        d = lcm(a[0], b[0] * q)
        return [d], [d // a[0]], [d // (b[0] * q) * p]
    ma = _zmul(b, (q,))
    return _zmul(a, ma), ma, _zmul(a, (p,))


def _rows_plus(f: tuple, lam: Fraction, g: tuple) -> tuple[list[int], dict[int, list[int]]]:
    """The cleared rows of f + lam*g from those of f and g."""
    if not lam:
        return f
    (a, pf), (b, pg) = f, g
    den, ma, mb = _lam_dens(a, b, lam)
    out = {e: _zmul(p, ma) for e, p in pf.items()}
    for e, p in pg.items():
        q = _zmul(p, mb)
        out[e] = _zadd(out[e], q) if e in out else q
    return den, {e: n for e, n in out.items() if n}


def _grow(cache: dict, k: int, step) -> list:
    """cache[k] on a miss: the store holds the degrees 0 .. top and grows by
    step from its top entry; a negative k is refused and changes nothing."""
    if k < 0:
        raise ValueError(f"negative degree {k}")
    while k not in cache:
        top = len(cache) - 1
        cache.setdefault(top + 1, step(cache[top]))
    return cache[k]


class Divisor:
    """A monic divisor w with its denominators cleared once over Z[x].

    w = y^m + sum_j A_j y^j / H with H and A_j in Z[x]; `neg_a` lists the
    pairs (j, -A_j) for the nonzero A_j.  The powers of H are computed on
    first use and shared by every expansion over this divisor, and so are
    the w-adic store's entries, which depend on w and a degree only: the
    grids of the powers of y (`ypower`) and the expansions of the
    bounded-monic outputs (`bounded_monic`).
    """

    def __init__(self, w: YPoly):
        if w.deg_y < 1:
            raise ValueError("divisor must have y-degree at least 1")
        if not w.is_monic_in_y():
            raise ValueError("divisor must be monic in y")
        self.m = w.deg_y
        # The cleared den is s times the product P of w's distinct denominators;
        # its content is s, as P is primitive.  H is s times their lcm, and
        # the factor P / lcm is divided out of every row.
        den, nums = _clear_denominators(w)
        self.h = _zmul(denominator_clearer(w).ints, (gcd(*den),))
        if self.h != den:
            u = _zdivmod(den, self.h)[0]
            nums = {j: _zdivmod(n, u)[0] for j, n in nums.items()}
        self.neg_a = [(j, [-c for c in nums[j]]) for j in range(self.m) if j in nums]
        # Dividing by w raises a cell's exponent of H by this much; with H = 1
        # every exponent stays 0 and nothing is ever lifted.
        self.step = 0 if self.h == [1] else 1
        # k -> H^k, e -> the grid of y^e and dm -> the expansion of the
        # bounded-monic output of y-degree dm, each filled on first use and
        # only ever by setdefault: threads racing to fill an entry compute
        # equal values and all read the first one stored.  Callers share the
        # stored lists and never change them.
        self._hpow = {0: [1], 1: self.h}
        self._ypow = {0: [[([1], 0)] + [([], 0)] * (self.m - 1)]}
        self._monic: dict[int, WExpansion] = {}

    def hpower(self, k: int) -> list[int]:
        """H^k as an integer coefficient list, kept for later calls."""
        try:
            return self._hpow[k]
        except KeyError:
            return _grow(self._hpow, k, lambda p: _zmul(p, self.h))

    def division(self, nums: dict[int, list[int]]) -> Iterator[list]:
        """Divide the cleared rows nums of f by w repeatedly over Z[x], reducing no cell.

        A generator of the expansion's rows, over the den that nums stand
        over: row 0 (f mod w) first, then row 1, and so on, deg_y(f) // m + 1
        rows for f != 0.  A caller that needs only the first rows stops
        drawing; the later divisions are never made.

        The division takes no gcd.  Every intermediate coefficient is a pair
        (N, k) standing for N / (den * H^k), N in Z[x]; subtracting a multiple
        of w brings the smaller of two exponents up by a power of H.
        """
        return self._rows([(nums.get(e, []), 0) for e in range(max(nums, default=-1) + 1)])

    def _plus(self, cell: tuple[list[int], int], p: list[int], k: int) -> tuple[list[int], int]:
        """The cell N / H^kc plus p / H^k, at the larger of the two exponents."""
        r, kc = cell
        if not r:
            return p, k
        if kc == k:
            return _zadd(r, p), k
        if kc < k:
            return _zadd(_zmul(r, self.hpower(k - kc)), p), k
        return _zadd(r, _zmul(p, self.hpower(kc - k))), kc

    def _rows(self, cur: list[tuple[list[int], int]]) -> Iterator[list]:
        m, neg_a, plus, step = self.m, self.neg_a, self._plus, self.step
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
                    cur[t] = plus(cur[t], _zmul(q, a), k)
            yield cur[:m]
            cur = cur[m:]
        yield cur + [([], 0)] * (m - len(cur))

    def times_y(self, grid: list[list]) -> list[list]:
        """The grid of y*f from the whole unreduced grid of f, over the same den.

        Cell (i, j) moves to (i, j+1), and row i, moved, goes through one step
        of the division loop: [carry, row i] holds the top cell at y^m, which
        `_rows` folds back through y^m = w - sum_k A_k y^k / H, giving the new
        row i and then the carry into cell (i+1, 0).
        """
        out, carry = [], ([], 0)
        for row in grid:
            new, top = self._rows([carry, *row])
            out.append(new)
            carry = top[0]
        if carry[0]:
            out.append(top)
        return out

    def ypower(self, e: int) -> list[list]:
        """The whole unreduced grid of y^e over den 1, kept for later calls.

        The grids of y^0 .. y^e are built in increasing order, each from the
        last by `times_y`, so the store divides no power of y.
        """
        try:
            return self._ypow[e]
        except KeyError:
            return _grow(self._ypow, e, self.times_y)

    def bounded_monic(self, dm: int) -> "WExpansion":
        """The whole unreduced expansion of the bounded monic polynomial P of
        y-degree dm, with P's cleared rows, built on first use and kept for
        later calls; `.element()` builds P.

        P is the one monic polynomial of y-degree dm with Q[x] coefficients
        whose cells below the top one are all proper: the difference of two
        such is 0, as its top cell would be a polynomial.  So a kept P is the
        P that any route builds.
        """
        if dm not in self._monic:
            if dm < 0:
                raise ValueError(f"negative degree {dm}")
            self._monic.setdefault(dm, self._bounded_monic(dm))
        return self._monic[dm]

    def _bounded_monic(self, dm: int) -> "WExpansion":
        """The corrector recursion behind `bounded_monic`.

        Coefficient t is minus the polynomial part of S_t, the sum of c_s * cell t
        of y^s over s > t, so cell t of the output, S_t + c_t, is the remainder of
        that division; the top cell is 1.  The c_s are integer lists over one
        running integer den, so S_t is summed in Z[x] at the largest power of H,
        one product per term, and divided once.
        """
        m = self.m
        powers = [self.ypower(s) for s in range(dm + 1)]
        den = 1
        ints: dict[int, list[int]] = {dm: [1]}  # c_s = ints[s] / den
        cells: dict[int, tuple[list[int], int]] = {dm: ([1], 0)}  # cell s over den
        for t in range(dm - 1, -1, -1):
            i, j = divmod(t, m)
            acc = ([], 0)
            for s in range(t + 1, dm + 1):
                n, k = powers[s][i][j]
                c = ints[s]
                if n and c:
                    acc = self._plus(acc, _zmul(c, n), k)
            n, k = acc
            q, r, scale = _zdivmod(n, self.hpower(k))
            if scale != 1:
                den *= scale
                ints = {s: [x * scale for x in c] for s, c in ints.items()}
                cells = {s: ([x * scale for x in c], kc) for s, (c, kc) in cells.items()}
            ints[t] = [-x for x in q]
            cells[t] = (r, k)
        grid = [[cells.get(i * m + j, ([], 0)) for j in range(m)] for i in range(dm // m + 1)]
        return WExpansion(grid=grid, den=[den], divisor=self, nums={s: c for s, c in ints.items() if c})

    def expand(self, f: YPoly) -> "WExpansion":
        """Expand f in powers of w over Z[x]: every row of `division`."""
        den, nums = _clear_denominators(f)
        return WExpansion(grid=list(self.division(nums)), den=den, divisor=self, nums=nums)


@dataclass(frozen=True, eq=False)
class WExpansion:
    """The w-expansion f = sum cell(i, j) * y^j * w^i, 0 <= j < m, with f's
    cleared rows.

    grid[i][j] is a pair (N, k) standing for the cell N / (den * H^k), with N
    and den in Z[x] as integer lists (no trailing zeros), H the divisor's and
    N = [] the zero cell; a cell is reduced only when it is read.  The grid
    is whole, and from `Divisor.expand` its top row is nonzero unless the
    expanded element is zero (a single all-zero row).  nums holds f's
    cleared rows over the same den, f = sum_e nums[e] y^e / den, so grid and
    rows move together under `plus` and `times` and `element` builds f; it
    is None for a grid whose element is never formed.
    """

    grid: list[list[tuple[list[int], int]]]
    den: list[int]
    divisor: Divisor
    nums: dict[int, list[int]] | None = None
    dens: dict[int, UniPoly] = field(default_factory=dict, init=False, repr=False)

    @property
    def m(self) -> int:
        return self.divisor.m

    def element(self) -> YPoly:
        """The expanded element f, built from its cleared rows."""
        if self.nums is None:
            raise ValueError("this expansion holds no rows of its element")
        return _from_rows(self.den, self.nums)

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

    def plus(self, lam: Fraction, other: "WExpansion") -> "WExpansion":
        """The expansion of f + lam*g from the whole grids of f (self) and g.

        The expansion is Q(x)-linear, so this is a cell-by-cell sum and no
        division; the dens combine as in `_lam_dens`, and the rows by
        `_rows_plus`.  Top rows that cancel are dropped, so f + lam*g = 0
        gives a single all-zero row.
        """
        if not lam:
            return self
        den, ma, mb = _lam_dens(self.den, other.den, lam)
        plus = self.divisor._plus
        grid = []
        for ra, rb in zip_longest(self.grid, other.grid, fillvalue=[([], 0)] * self.m):
            row = []
            for (na, ka), (nb, kb) in zip(ra, rb):
                cell = (_zmul(na, ma), ka) if na else ([], 0)
                row.append(plus(cell, _zmul(nb, mb), kb) if nb else cell)
            grid.append(row)
        while len(grid) > 1 and not any(n for n, _ in grid[-1]):
            grid.pop()
        held = self.nums is not None and other.nums is not None
        nums = _rows_plus((self.den, self.nums), lam, (other.den, other.nums))[1] if held else None
        return WExpansion(grid=grid, den=den, divisor=self.divisor, nums=nums)

    def times(self, other: "WExpansion") -> "WExpansion":
        """The expansion of f*g from the whole grids of f (self) and g.

        The expansion is unique and Q(x)-linear, so this is a product of grids
        and no division of f*g: cell (i1, j1) times cell (i2, j2) lands in row
        i1 + i2 at position j1 + j2 <= 2m - 2, summed at the larger exponent
        of H.  A row with anything at a position >= m goes once through the
        division step `Divisor._rows`, which folds it back through
        y^m = w - sum_k A_k y^k / H, and its quotient carries into the next
        row; a row with nothing there skips the fold, so a y-free factor costs
        one product per cell.  The den is the product of the dens, the rows
        are those of `_rows_times`, and a zero factor gives a single all-zero
        row.
        """
        divisor, m = self.divisor, self.m
        plus = divisor._plus
        acc = [[([], 0)] * (2 * m - 1) for _ in range(len(self.grid) + len(other.grid) - 1)]
        cells = [(i, j, n, k) for i, row in enumerate(other.grid) for j, (n, k) in enumerate(row) if n]
        for i1, ra in enumerate(self.grid):
            for j1, (na, ka) in enumerate(ra):
                if na:
                    for i2, j2, nb, kb in cells:
                        row, j = acc[i1 + i2], j1 + j2
                        row[j] = plus(row[j], _zmul(na, nb), ka + kb)
        grid, carry = [], []
        for row in acc:
            for j, (n, k) in enumerate(carry):
                if n:
                    row[j] = plus(row[j], n, k)
            if any(n for n, _ in row[m:]):
                row, carry = divisor._rows(row)
            else:
                row, carry = row[:m], []
            grid.append(row)
        if any(n for n, _ in carry):
            grid.append(carry)
        while len(grid) > 1 and not any(n for n, _ in grid[-1]):
            grid.pop()
        held = self.nums is not None and other.nums is not None
        nums = _rows_times((self.den, self.nums), (other.den, other.nums))[1] if held else None
        return WExpansion(grid=grid, den=_zmul(self.den, other.den), divisor=divisor, nums=nums)


def w_expand(f: YPoly, w: YPoly) -> WExpansion:
    """Expand f in powers of the monic divisor w by iterated division over Z[x]."""
    return Divisor(w).expand(f)
