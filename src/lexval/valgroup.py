"""The value group Z (+) Z under the lexicographic order.

Values are integer pairs compared lexicographically, plus a distinguished
infinity that compares above everything (the value of zero).  This module
also provides the integer-lattice predicates used by the valuation layer:
indivisibility, commensurability, exact decomposition in a pair basis, and
quotient classes modulo the subgroup Z*(m*alpha).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from math import gcd


# The generated comparisons, like __add__ and __sub__, return NotImplemented
# for anything but a pair, and __rmul__ for anything but an int, so
# `pair < INF` and `pair + INF` are answered by Infinity's reflected methods,
# and `pair - INF`, which has none, is a TypeError.  Infinity in turn refuses
# every operand but a pair or itself.
@dataclass(frozen=True, order=True)
class ValuePair:
    """An element (a, b) of Z (+) Z, ordered lexicographically."""

    a: int
    b: int

    def __add__(self, other: "ValuePair") -> "ValuePair":
        if not isinstance(other, ValuePair):
            return NotImplemented
        return ValuePair(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "ValuePair") -> "ValuePair":
        if not isinstance(other, ValuePair):
            return NotImplemented
        return ValuePair(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "ValuePair":
        return ValuePair(-self.a, -self.b)

    def __rmul__(self, k: int) -> "ValuePair":
        if not isinstance(k, int):
            return NotImplemented
        return ValuePair(k * self.a, k * self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


@total_ordering
class Infinity:
    """The value of zero; strictly greater than every ValuePair."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False if isinstance(other, (ValuePair, Infinity)) else NotImplemented

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("lexval-infinity")

    def __add__(self, other):
        return self if isinstance(other, (ValuePair, Infinity)) else NotImplemented

    __radd__ = __add__

    def __str__(self) -> str:
        return "inf"

    def __repr__(self) -> str:
        return "INF"


INF = Infinity()

#: A value is either a finite pair or the infinity marker.
ExtValue = ValuePair | Infinity


def is_indivisible(u: ValuePair) -> bool:
    """True iff u is not an integer multiple n*g with n >= 2.

    Equivalent to gcd(|a|, |b|) == 1, with gcd(n, 0) = |n|.
    """
    if u.is_zero():
        raise ValueError("indivisibility is undefined for (0,0)")
    return gcd(abs(u.a), abs(u.b)) == 1


def commensurable(u: ValuePair, v: ValuePair) -> bool:
    """True iff m*u == n*v for some nonzero integers m, n.

    For nonzero pairs this is exactly linear dependence, i.e. a vanishing
    cross determinant.
    """
    if u.is_zero() or v.is_zero():
        raise ValueError("commensurability is undefined for (0,0)")
    return u.a * v.b - u.b * v.a == 0


def basis_det(alpha: ValuePair, beta: ValuePair) -> int:
    return alpha.a * beta.b - alpha.b * beta.a


def decompose(gamma: ValuePair, alpha: ValuePair, beta: ValuePair):
    """Solve gamma = s*alpha + t*beta exactly over the integers.

    Returns the pair (s, t), or None when no integer solution exists.
    Requires alpha, beta linearly independent (nonzero determinant).
    """
    det = basis_det(alpha, beta)
    if det == 0:
        raise ValueError("alpha and beta are linearly dependent")
    s_num = gamma.a * beta.b - gamma.b * beta.a
    t_num = alpha.a * gamma.b - alpha.b * gamma.a
    if s_num % det != 0 or t_num % det != 0:
        return None
    return (s_num // det, t_num // det)


@dataclass(frozen=True)
class QuotClass:
    """Class of a value modulo the subgroup Z*(m*alpha).

    Writing gamma = s*alpha + t*beta in a unimodular basis (alpha, beta),
    the class is determined by (s mod m, t): two values are equivalent
    exactly when their difference lies in Z*(m*alpha).
    """

    s_mod_m: int
    t: int


def _check_unimodular(alpha: ValuePair, beta: ValuePair) -> None:
    det = basis_det(alpha, beta)
    if det not in (1, -1):
        raise ValueError(f"basis is not unimodular (determinant {det})")


def quotient_class(gamma: ValuePair, m: int, alpha: ValuePair, beta: ValuePair) -> QuotClass:
    """Class of gamma modulo Z*(m*alpha), for a unimodular basis (alpha, beta)."""
    _check_unimodular(alpha, beta)
    s, t = decompose(gamma, alpha, beta)
    return QuotClass(s % m, t)


def monoid_member(gamma: ValuePair, alpha: ValuePair, beta: ValuePair, mode: str) -> bool:
    """Membership of gamma in a monoid spanned by alpha and beta.

    mode "ex55": gamma in {(0,0)} union (Z_{>0} alpha + Z_{>=0} beta).
    mode "cone": gamma in Z_{>=0} alpha + Z_{>=0} beta.
    """
    if commensurable(alpha, beta):
        raise ValueError("alpha and beta must not be commensurable")
    _check_mode(mode)
    return _in_monoid(decompose(gamma, alpha, beta), mode)


def _check_mode(mode: str) -> None:
    if mode not in ("ex55", "cone"):
        raise ValueError(f"unknown mode {mode!r}")


def _in_monoid(sol: tuple[int, int] | None, mode: str) -> bool:
    """monoid_member's rule on gamma's coordinates (s, t) in the basis, None
    when gamma is not in the lattice, for a checked mode."""
    if sol is None:
        return False
    s, t = sol
    if mode == "cone":
        return s >= 0 and t >= 0
    return (s == 0 and t == 0) or (s >= 1 and t >= 0)
