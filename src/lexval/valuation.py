"""Valuations on Q(x)[y] with values in lexicographically ordered Z (+) Z.

A parameter bundle (m, n, w, alpha, beta) determines the map

    value(f) = min over nonzero expansion cells (i, j) of
               (-v_inf(f[i][j]) * m + j * n) * alpha + i * beta

where f = sum f[i][j] y^j w^i is the expansion of f in the monic divisor w.
`make_spec` validates the bundle against the conditions under which this map
is multiplicative (hence a genuine valuation); `check_axioms` audits the
valuation axioms empirically over a sampled corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

from .ratfunc import RatFunc, v_inf
from .valgroup import INF, ExtValue, ValuePair, commensurable, is_indivisible
from .ypoly import Divisor, WExpansion, YPoly

# Named validation failures, reported together in InvalidSpecError.
V_M_NOT_POSITIVE = "m_not_positive"
V_N_NOT_POSITIVE = "n_not_positive"
V_NOT_COPRIME = "m_n_not_coprime"
V_W_NOT_MONIC = "w_not_monic_in_y"
V_W_DEGREE = "w_degree_not_m"
V_ALPHA_ZERO = "alpha_zero"
V_BETA_ZERO = "beta_zero"
V_ALPHA_NOT_NEGATIVE = "alpha_not_negative"
V_ALPHA_DIVISIBLE = "alpha_divisible"
V_BETA_DIVISIBLE = "beta_divisible"
V_COMMENSURABLE = "alpha_beta_commensurable"
V_BETA_TOO_LOW = "beta_not_above_mn_alpha"
V_W_COEFF_TOO_LOW = "w_coeff_value_too_low"
V_W0_MISMATCH = "w_constant_value_mismatch"


class InvalidSpecError(ValueError):
    """Rejected parameter bundle; lists every violated condition."""

    def __init__(self, violations: list[str]):
        self.violations = tuple(violations)
        super().__init__("invalid valuation parameters: " + ", ".join(violations))


@dataclass(frozen=True)
class ValuationSpec:
    """Validated parameter bundle; construct through make_spec."""

    m: int
    n: int
    w: YPoly
    alpha: ValuePair
    beta: ValuePair

    @cached_property
    def divisor(self) -> Divisor:
        """w with its denominators cleared, built on first use."""
        return Divisor(self.w)


def spec_violations(m: int, n: int, w: YPoly, alpha: ValuePair, beta: ValuePair) -> list[str]:
    """Names of every condition the parameter bundle violates; empty when it is valid."""
    violations: list[str] = []
    if m < 1:
        violations.append(V_M_NOT_POSITIVE)
    if n < 1:
        violations.append(V_N_NOT_POSITIVE)
    if m >= 1 and n >= 1 and gcd(m, n) != 1:
        violations.append(V_NOT_COPRIME)

    if not w.is_monic_in_y():
        violations.append(V_W_NOT_MONIC)
    elif m >= 1 and w.deg_y != m:
        violations.append(V_W_DEGREE)

    if alpha.is_zero():
        violations.append(V_ALPHA_ZERO)
    else:
        if not alpha < ValuePair(0, 0):
            violations.append(V_ALPHA_NOT_NEGATIVE)
        if not is_indivisible(alpha):
            violations.append(V_ALPHA_DIVISIBLE)
    if beta.is_zero():
        violations.append(V_BETA_ZERO)
    elif not is_indivisible(beta):
        violations.append(V_BETA_DIVISIBLE)
    if not alpha.is_zero() and not beta.is_zero() and commensurable(alpha, beta):
        violations.append(V_COMMENSURABLE)

    # Multiplicativity conditions. These need the shape checks above to have
    # passed; otherwise the cell formula is not even well defined.
    if not violations:
        if not beta > (m * n) * alpha:
            violations.append(V_BETA_TOO_LOW)
        for k in range(1, m):
            wk = w.coeff(k)
            if wk.is_zero():
                continue  # value infinity exceeds every bound
            if not (-v_inf(wk) * m) * alpha > ((m - k) * n) * alpha:
                violations.append(V_W_COEFF_TOO_LOW)
                break
        w0 = w.coeff(0)
        if w0.is_zero() or v_inf(w0) != -n:
            violations.append(V_W0_MISMATCH)

    return violations


def make_spec(m: int, n: int, w: YPoly, alpha: ValuePair, beta: ValuePair) -> ValuationSpec:
    """Validate a parameter bundle and return the spec, or raise InvalidSpecError.

    All violated conditions are collected, not just the first.
    """
    violations = spec_violations(m, n, w, alpha, beta)
    if violations:
        raise InvalidSpecError(violations)
    return ValuationSpec(m=m, n=n, w=w, alpha=alpha, beta=beta)


@dataclass(frozen=True)
class LeadTerm:
    """The unique expansion cell realizing value(f), with that value.

    `exp` is the unreduced expansion the cell comes from; the cell's
    coefficient is reduced only when `coeff` is first read.
    """

    i: int
    j: int
    value: ValuePair
    exp: WExpansion = field(repr=False, compare=False)

    @cached_property
    def coeff(self) -> RatFunc:
        return self.exp.cell(self.i, self.j)

    def cancel_scalar(self, other: "LeadTerm") -> Fraction:
        """The unique lambda with value(f + lambda*g) > value(f), where self
        and other are the lead terms of f and g."""
        if self.value != other.value:
            raise ValueError("cancellation scalar needs equal values")
        return -self.exp.residue(self.i, self.j) / other.exp.residue(other.i, other.j)


def lead_term(spec: ValuationSpec, f: YPoly) -> LeadTerm:
    """The unique cell of the expansion of f attaining value(f).

    Each cell's value needs only its order at infinity, which the unreduced
    Z[x] expansion gives; no cell is reduced until `coeff` is read.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no lead term")
    exp = spec.divisor.expand(f)
    m, n = spec.m, spec.n
    a0, a1 = spec.alpha.a, spec.alpha.b
    b0, b1 = spec.beta.a, spec.beta.b
    dd, dh = len(exp.den), len(spec.divisor.h) - 1
    # A cell N / (den * H^k) has -order = deg N - deg den - k * deg H, and
    # value (-order * m + j * n) * alpha + i * beta, ranked as an integer
    # pair: tuples compare as ValuePair does.
    best = None
    ties = 0
    for i, row in enumerate(exp.grid):
        ib0, ib1 = i * b0, i * b1
        for j, (num, k) in enumerate(row):
            if not num:
                continue
            c = (len(num) - dd - k * dh) * m + j * n
            key = (c * a0 + ib0, c * a1 + ib1)
            if best is None or key < best:
                best, cell, ties = key, (i, j), 1
            elif key == best:
                ties += 1
    if ties != 1:
        # Impossible for a validated bundle (non-commensurable alpha, beta
        # and coprime m, n force a unique minimizer); reaching this means
        # corrupted state, not a domain error.
        raise RuntimeError("minimizing expansion cell is not unique")
    return LeadTerm(*cell, ValuePair(*best), exp)


def value(spec: ValuationSpec, f: YPoly) -> ExtValue:
    """Value of f; INF exactly for f = 0."""
    return INF if f.is_zero() else lead_term(spec, f).value


def cancel_lambda(spec: ValuationSpec, f: YPoly, g: YPoly) -> Fraction:
    """The unique scalar with value(f + lambda*g) > value(f) = value(g)."""
    if f.is_zero() or g.is_zero():
        raise ValueError("cancellation scalar needs nonzero inputs")
    return lead_term(spec, f).cancel_scalar(lead_term(spec, g))


def value_fraction(spec: ValuationSpec, f: YPoly, g: YPoly) -> ExtValue:
    """Value of the quotient f/g: value(f) - value(g)."""
    if g.is_zero():
        raise ZeroDivisionError("zero denominator")
    vf = value(spec, f)
    if vf == INF:
        return INF
    return vf - value(spec, g)


@dataclass
class AxiomReport:
    """Outcome of the empirical valuation-axiom audit.

    Violations are collected per category; an empty report means every
    sampled check passed.
    """

    pairs_checked: int = 0
    x_pairs_checked: int = 0
    violations: dict[str, list[str]] = field(default_factory=dict)

    def record(self, category: str, message: str) -> None:
        self.violations.setdefault(category, []).append(message)

    @property
    def total_violations(self) -> int:
        return sum(len(v) for v in self.violations.values())

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def counts(self) -> dict[str, int]:
        return {k: len(v) for k, v in sorted(self.violations.items())}


def check_axioms(
    spec: ValuationSpec,
    corpus: list[YPoly],
    pair_budget: int,
    seed: int = 0,
) -> AxiomReport:
    """Audit the valuation axioms on sampled pairs from a nonzero corpus.

    Checks, per sampled pair (f, g):
      * value(f*g) == value(f) + value(g)
      * value(f+g) >= min(value(f), value(g))
      * equality above whenever value(f) != value(g)
      * when value(f) == value(g): lambda = -residue(f) / residue(g) of the
        lead cells strictly raises the value, and lambda +- 1 do not
    and, on pairs (p, g) with p free of y, the scaling law
    value(p*g) == value(p) + value(g).

    Violations are reported, never raised.
    """
    report = AxiomReport()
    if not corpus:
        return report
    for f in corpus:
        if f.is_zero():
            raise ValueError("corpus must consist of nonzero polynomials")
    rng = random.Random(seed)
    leads = {f: (t.value, t.exp.residue(t.i, t.j)) for f in corpus for t in [lead_term(spec, f)]}

    for _ in range(pair_budget):
        f = rng.choice(corpus)
        g = rng.choice(corpus)
        vf, rf = leads[f]
        vg, rg = leads[g]
        report.pairs_checked += 1

        if value(spec, f * g) != vf + vg:
            report.record("multiplicativity", f"value(fg) != value(f)+value(g) for f={f}, g={g}")

        low = min(vf, vg)
        vsum = value(spec, f + g)
        if not vsum >= low:
            report.record("triangle", f"value(f+g) < min for f={f}, g={g}")
        if vf != vg and vsum != low:
            report.record("strict_triangle", f"value(f+g) != min for f={f}, g={g}")

        if vf == vg:
            lam = -rf / rg
            if not value(spec, f + g.scale(lam)) > vf:
                report.record("lambda_raises", f"lambda={lam} fails to raise for f={f}, g={g}")
            for other in (lam + 1, lam - 1):
                if value(spec, f + g.scale(other)) > vf:
                    report.record(
                        "lambda_unique", f"lambda'={other} also raises for f={f}, g={g}"
                    )

    pure_x = [f for f in corpus if f.deg_y <= 0]
    if pure_x:
        for _ in range(min(pair_budget, 4 * len(corpus))):
            p = rng.choice(pure_x)
            g = rng.choice(corpus)
            report.x_pairs_checked += 1
            if value(spec, p * g) != leads[p][0] + leads[g][0]:
                report.record("x_scaling", f"value(pg) != value(p)+value(g) for p={p}, g={g}")
    return report
