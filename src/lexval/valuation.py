"""Valuations on Q(x)[y] with values in lexicographically ordered Z (+) Z.

A parameter bundle (m, n, w, alpha, beta) determines the map

    value(f) = min over nonzero expansion cells (i, j) of
               (-v_inf(f[i][j]) * m + j * n) * alpha + i * beta

where f = sum f[i][j] y^j w^i is the expansion of f in the monic divisor w.
`make_spec` validates the bundle against the conditions under which this map
is multiplicative (hence a genuine valuation); `check_axioms` audits the
valuation axioms empirically over a sampled corpus.

For a valid bundle the map is MacLane's augmentation [v0; w -> beta] of the
monomial valuation v0(sum c_e y^e) = min_e (-v_inf(c_e) * m + e * n) * alpha
(MacLane 1936; Vaquie 2007), so every cell in row i has value at least
LB_i = v0(f) + i * (beta - m*n*alpha), and LB_i rises strictly with i.
One key scan answers every question.  It takes cleared rows, which
`value`, `lead_term` and `check_axioms` form, and either divides them
lazily or reads a whole expansion of them that the caller holds, such as
one summed cell by cell (`WExpansion.plus`), dividing nothing.  Either way
it stops once the best cell so far lies below the bound of the next row (a
bundle that fails validation, one built around `make_spec`, has every row
read).  A `LeadTerm` keeps its cell and no expansion, and lambda has one
rule, `LeadTerm.cancel_scalar`: minus the ratio of the two lead cells'
residues at infinity, which the loop, the `lambda` command and
`check_axioms` all take.  The one lead-cancellation loop, f <- f + lambda * g
while the caller's match gives a g of f's value, holds f only as its
expansion, which carries f's rows: it is handed E(f) and each E(g), sums
them and reads each new lead off the sum; it checks that every step raises
the value strictly, and has no iteration cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import ypoly
from .ratfunc import RatFunc, _poly, _zmul, v_inf
from .valgroup import INF, ExtValue, ValuePair, commensurable, is_indivisible
from .ypoly import Divisor, WExpansion, YPoly, _rows_plus, _rows_times

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

    @cached_property
    def row_step(self) -> tuple[int, int] | None:
        """beta - m*n*alpha as an integer pair, the rise of the row bound LB_i
        per row; None for a bundle that spec_violations rejects, for which
        the bound is not known to hold."""
        if spec_violations(self.m, self.n, self.w, self.alpha, self.beta):
            return None
        step = self.beta - (self.m * self.n) * self.alpha
        return step.a, step.b


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


@dataclass(frozen=True, slots=True)
class LeadTerm:
    """The unique expansion cell realizing value(f), with that value.

    The cell N / (den * H^k) is kept unreduced, as the two Z[x] lists
    num = N and den = den * H^k; `coeff` reduces it on each read.
    """

    i: int
    j: int
    value: ValuePair
    num: list[int] = field(repr=False, compare=False)
    den: list[int] = field(repr=False, compare=False)

    @property
    def coeff(self) -> RatFunc:
        return RatFunc(_poly(list(self.num)), _poly(list(self.den)))

    def cancel_scalar(self, other: "LeadTerm") -> Fraction:
        """The unique lambda with value(f + lambda*g) > value(f), where self
        and other are the lead terms of f and g: minus the ratio of the two
        cells' residues at infinity, lc(num) / lc(den), which a common
        factor of num and den leaves unchanged."""
        if self.value != other.value:
            raise ValueError("cancellation scalar needs equal values")
        return -Fraction(self.num[-1] * other.den[-1], self.den[-1] * other.num[-1])


def _least_cell(spec: ValuationSpec, den: list[int], nums, grid=None):
    """The key scan behind every question: the least cell of f != 0 as
    (key, (i, j), (N, k)), None when every cell is zero.

    f has the cleared rows (den, nums).  grid, when given, is a whole
    expansion of f over den that the caller holds; otherwise the rows of
    nums are divided from row 0 up.  With nums known and a valid bundle,
    the scan stops after row i once the best key is below
    LB_(i+1) = v0(f) + (i+1) * row_step, the least value in the rows after
    i, so later rows are neither divided nor read.  nums None, for a held
    grid whose element is never formed, scans every row.
    """
    m, n = spec.m, spec.n
    a0, a1 = spec.alpha.a, spec.alpha.b
    b0, b1 = spec.beta.a, spec.beta.b
    divisor = spec.divisor
    rows = divisor.division(nums) if grid is None else grid
    step = spec.row_step if nums and max(nums) >= m else None
    if step is not None:
        # v0(f): the key at i = 0 over f's own y-coefficients, least at
        # the largest c because alpha < 0.
        c = max(len(p) * m + e * n for e, p in nums.items()) - len(den) * m
        lb0, lb1 = c * a0, c * a1
    dd, dh = len(den), len(divisor.h) - 1
    # An unreduced cell N / (den * H^k) has -order = deg N - deg den - k * deg H,
    # and value (-order * m + j * n) * alpha + i * beta, ranked as an integer
    # pair: tuples compare as ValuePair does.
    best = None
    ties = 0
    for i, row in enumerate(rows):
        ib0, ib1 = i * b0, i * b1
        for j, (num, k) in enumerate(row):
            if not num:
                continue
            c = (len(num) - dd - k * dh) * m + j * n
            key = (c * a0 + ib0, c * a1 + ib1)
            if best is None or key < best:
                best, cell, lead, ties = key, (i, j), (num, k), 1
            elif key == best:
                ties += 1
        if step is not None:
            lb0, lb1 = lb0 + step[0], lb1 + step[1]
            if best is not None and best < (lb0, lb1):
                break
    if best is None:
        return None
    if ties != 1:
        # Impossible for a validated bundle (non-commensurable alpha, beta
        # and coprime m, n force a unique minimizer); reaching this means
        # corrupted state, not a domain error.
        raise RuntimeError("minimizing expansion cell is not unique")
    return best, cell, lead


def _lead(spec: ValuationSpec, den: list[int], nums, grid=None) -> LeadTerm | None:
    """The lead term from the scan of `_least_cell`, None when f = 0."""
    found = _least_cell(spec, den, nums, grid)
    if found is None:
        return None
    key, cell, (num, k) = found
    return LeadTerm(*cell, ValuePair(*key), num, _zmul(den, spec.divisor.hpower(k)))


def _cancel_leads(spec: ValuationSpec, exp: WExpansion, lead: LeadTerm | None, match):
    """Lead cancellation on f, held as its whole expansion exp with its rows,
    and its lead term: while match(value of f) gives (key, E(g), lead of g),
    f <- f + lambda * g with lambda = lead.cancel_scalar(lead of g), which
    must raise the value strictly (else RuntimeError).  A step sets
    E(f) <- E(f) + lambda * E(g) and reads the new lead off that sum,
    dividing nothing.  Returns ([(key, lambda), ...], E(f), lead of f), the
    lead None for f = 0.
    """
    steps = []
    while lead is not None and (found := match(lead.value)) is not None:
        key, g_exp, g_lead = found
        lam = lead.cancel_scalar(g_lead)
        steps.append((key, lam))
        exp = exp.plus(lam, g_exp)
        raised = _lead(spec, exp.den, exp.nums, exp.grid)
        if raised is not None and not raised.value > lead.value:
            raise RuntimeError(f"lead cancellation by {key!r} did not raise the value {lead.value}")
        lead = raised
    return steps, exp, lead


def _cleared_value(spec: ValuationSpec, den: list[int], nums: dict[int, list[int]]) -> ExtValue:
    """The value of the element with cleared rows (den, nums); INF for no rows."""
    return ValuePair(*_least_cell(spec, den, nums)[0]) if nums else INF


def lead_term(spec: ValuationSpec, f: YPoly) -> LeadTerm:
    """The unique cell of the expansion of f attaining value(f).

    The division stops at the row bound, and the cell is reduced only when
    `coeff` is read.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no lead term")
    return _lead(spec, *ypoly._clear_denominators(f))


def value(spec: ValuationSpec, f: YPoly) -> ExtValue:
    """Value of f; INF exactly for f = 0.  The cell search of `lead_term`,
    without building the expansion."""
    return _cleared_value(spec, *ypoly._clear_denominators(f))


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
      * when value(f) == value(g): lambda, the cancellation scalar of the
        lead terms, strictly raises the value, and lambda +- 1 do not
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
    # Each element is cleared once, and every product and sum is formed and
    # valued as cleared rows.  Pairs are drawn as corpus indices:
    # rng.choice(range(n)) makes the same draw as rng.choice(corpus).
    rows = [ypoly._clear_denominators(f) for f in corpus]
    leads = [_lead(spec, *r) for r in rows]
    indices = range(len(corpus))

    for _ in range(pair_budget):
        a = rng.choice(indices)
        b = rng.choice(indices)
        f, g = corpus[a], corpus[b]
        fr, gr = rows[a], rows[b]
        vf, vg = leads[a].value, leads[b].value
        report.pairs_checked += 1

        if _cleared_value(spec, *_rows_times(fr, gr)) != vf + vg:
            report.record("multiplicativity", f"value(fg) != value(f)+value(g) for f={f}, g={g}")

        low = min(vf, vg)
        vsum = _cleared_value(spec, *_rows_plus(fr, 1, gr))
        if not vsum >= low:
            report.record("triangle", f"value(f+g) < min for f={f}, g={g}")
        if vf != vg and vsum != low:
            report.record("strict_triangle", f"value(f+g) != min for f={f}, g={g}")

        if vf == vg:
            lam = leads[a].cancel_scalar(leads[b])
            if not _cleared_value(spec, *_rows_plus(fr, lam, gr)) > vf:
                report.record("lambda_raises", f"lambda={lam} fails to raise for f={f}, g={g}")
            for other in (lam + 1, lam - 1):
                if _cleared_value(spec, *_rows_plus(fr, other, gr)) > vf:
                    report.record(
                        "lambda_unique", f"lambda'={other} also raises for f={f}, g={g}"
                    )

    pure_x = [k for k in indices if corpus[k].deg_y <= 0]
    if pure_x:
        for _ in range(min(pair_budget, 4 * len(corpus))):
            a = rng.choice(pure_x)
            b = rng.choice(indices)
            p, g = corpus[a], corpus[b]
            report.x_pairs_checked += 1
            if _cleared_value(spec, *_rows_times(rows[a], rows[b])) != leads[a].value + leads[b].value:
                report.record("x_scaling", f"value(pg) != value(p)+value(g) for p={p}, g={g}")
    return report
