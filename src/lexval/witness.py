"""Constructive witnesses and empirical structure checks for a valuation.

The centerpiece is the pair of procedures that produce, for suitable
parameters, an infinite strictly increasing sequence of values attained on
plain polynomials (so the attained value set has no largest element):

  * `build_bounded_monic` builds a monic polynomial of prescribed y-degree
    whose value is bounded below by (m*n - m - n) * alpha, via a descending
    corrector recursion over the y-power expansion table;
  * `reduce_past_chain` adds scalar multiples of chain elements until the
    value climbs past the end of the chain;
  * `increasing_value_sequence` alternates the two.

The remaining operations sample the attained image, count quotient classes,
and check the structural containments of the image monoid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .ratfunc import _ONE, RatFunc, UniPoly, _raw, uni_divmod
from .valgroup import INF, ExtValue, ValuePair, _check_unimodular, decompose, monoid_member, quotient_class
from .valuation import LeadTerm, ValuationSpec, lead_term, value
from .ypoly import YPoly, YPowerTable, denominator_clearer, ypower_table


@dataclass(frozen=True)
class WitnessChain:
    """Polynomials whose values form a run of consecutive lex values.

    Consecutive means each value is the immediate successor of the previous
    one; in Z (+) Z under lex that is exactly a step of (0, 1).
    """

    polys: tuple[YPoly, ...]
    values: tuple[ValuePair, ...]

    def __post_init__(self):
        if len(self.polys) != len(self.values) or not self.polys:
            raise ValueError("chain needs matching nonempty polys and values")
        for prev, nxt in zip(self.values, self.values[1:]):
            if nxt != prev + ValuePair(0, 1):
                raise ValueError(f"chain values not consecutive: {prev} then {nxt}")

    def extended(self, poly: YPoly, val: ValuePair) -> "WitnessChain":
        return WitnessChain(self.polys + (poly,), self.values + (val,))


def build_bounded_monic(spec: ValuationSpec, d: int) -> YPoly:
    """Monic polynomial of y-degree d*m with plain polynomial coefficients.

    Coefficients are produced by a descending corrector recursion so that
    every expansion cell below the top one has strictly positive coefficient
    valuation at infinity.  When beta > (0,0) this forces
    value >= (m*n - m - n) * alpha; for other parameter bundles the bound is
    not guaranteed in general and is checked empirically by the tests.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    return _bounded_monic(ypower_table(spec.w, d * spec.m), d * spec.m)


def _bounded_monic(table: YPowerTable, dm: int) -> YPoly:
    """The corrector recursion of build_bounded_monic at y-degree dm <= table.e_max.

    A fraction's polynomial part is Q-linear and unchanged by reduction, so
    coefficient t sums quotients off the unreduced y-power cells.
    """
    coeffs: dict[int, UniPoly] = {dm: UniPoly.one()}
    for t in range(dm - 1, -1, -1):
        cell = divmod(t, table.m)
        acc = UniPoly.zero()
        for s in range(t + 1, dm + 1):
            num, den = table.powers[s].fraction(*cell)
            if num and coeffs[s]:
                acc = acc - uni_divmod(coeffs[s] * num, den)[0]
        coeffs[t] = acc
    return YPoly(coeffs)


def reduce_past_chain(
    spec: ValuationSpec, f: YPoly, chain: WitnessChain
) -> tuple[YPoly, list[tuple[int, Fraction]], ExtValue]:
    """Add scalar multiples of chain elements until the value exceeds the chain.

    Returns (g, steps, value(g)) with g = f + sum lambda * chain.polys[i] over
    the recorded steps and value(g) > chain.values[-1].  If f lies in the
    scalar span of the chain the reduction lands exactly on zero, with value
    INF, which still satisfies the postcondition.  Each step expands the
    current element once; each chain element used is expanded once per call.
    """
    h = f
    steps: list[tuple[int, Fraction]] = []
    chain_leads: dict[int, LeadTerm] = {}
    cap = 4 * (len(chain.polys) + 2)
    while not h.is_zero():
        lead = lead_term(spec, h)
        # Each step raises the value, so only the input can fail this check.
        if not lead.value >= chain.values[0]:
            raise ValueError(f"value {lead.value} of input is below the chain start {chain.values[0]}")
        if lead.value > chain.values[-1]:
            return h, steps, lead.value
        # The chain values are consecutive, so chain.values[k] is
        # chain.values[0] + (0, k).
        idx = lead.value.b - chain.values[0].b
        if idx not in chain_leads:
            chain_leads[idx] = lead_term(spec, chain.polys[idx])
        lam = lead.cancel_scalar(chain_leads[idx])
        h = h + chain.polys[idx].scale(lam)
        steps.append((idx, lam))
        if len(steps) > cap:
            raise RuntimeError("reduction exceeded its iteration cap")
    return h, steps, INF


def increasing_value_sequence(spec: ValuationSpec, d_max: int) -> list[tuple[YPoly, ValuePair]]:
    """Sequence f_0, f_1, ... with strictly increasing (consecutive) values.

    f_0 is the bounded monic builder's degree-m output; each later element
    reduces a fresh higher-degree builder output past the chain built so
    far.  For the ex55 preset this yields deg_y(f_d) = 2(d+1) and
    value(f_d) = (-1, d-1) exactly.  All builder outputs share one y-power
    table.
    """
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    table = ypower_table(spec.w, (d_max + 1) * spec.m)
    f0 = _bounded_monic(table, spec.m)
    v0 = value(spec, f0)
    out = [(f0, v0)]
    chain = WitnessChain((f0,), (v0,))
    for d in range(1, d_max + 1):
        raw = _bounded_monic(table, (d + 1) * spec.m)
        g, _, vg = reduce_past_chain(spec, raw, chain)
        out.append((g, vg))
        chain = chain.extended(g, vg)
    return out


def class_witness(spec: ValuationSpec, q: int, r: int) -> YPoly:
    """The polynomial y^r * (h*w)^q, h clearing the denominators of w.

    Its y-degree is q*m + r and its quotient class modulo Z*(m*alpha) is
    ((r*n) mod m, q), so distinct (q, r) with r < m give distinct classes.
    """
    if q < 0 or not 0 <= r < spec.m:
        raise ValueError("need q >= 0 and 0 <= r < m")
    return _class_witnesses(spec, q * spec.m + r)[-1]


def _class_witnesses(spec: ValuationSpec, ell: int) -> list[YPoly]:
    """class_witness(spec, i // m, i % m) for i = 0..ell, from one running power of h*w."""
    cleared = spec.w.scale(denominator_clearer(spec.w))
    items, power = [], YPoly.one()
    for i in range(ell + 1):
        q, r = divmod(i, spec.m)
        if q and not r:
            power = power * cleared
        items.append(YPoly.monomial(r) * power)
    return items


def witness_for_value(spec: ValuationSpec, i: int, j: int) -> YPoly:
    """Polynomial attaining value(f_j) + (i-1) * value(f_0).

    For the ex55 preset this attains exactly (-i, j-i), covering every
    element of the attained image monoid apart from (0,0).
    """
    if i < 1 or j < 0:
        raise ValueError("need i >= 1 and j >= 0")
    seq = increasing_value_sequence(spec, j)
    base = seq[0][0]
    return seq[j][0] * base ** (i - 1)


# ---------------------------------------------------------------------------
# Random corpora


@dataclass(frozen=True)
class CorpusSpec:
    """Bounds and seed for sampled corpora."""

    max_deg_x: int = 6
    max_deg_y: int = 6
    random_count: int = 1000
    seed: int = 0


def _nonzero_scalar(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def random_unipoly(rng: random.Random, max_deg: int) -> UniPoly:
    """Random nonzero polynomial in x with small integer coefficients."""
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(-3, 3) for _ in range(deg)] + [_nonzero_scalar(rng)]
    return UniPoly(coeffs)


def random_xy_poly(rng: random.Random, max_total_deg: int) -> YPoly:
    """Random nonzero element of Q[x,y] of bounded total degree."""

    def exponents():
        a = rng.randint(0, max_total_deg)
        return a, rng.randint(0, max_total_deg - a)

    return _random_terms(rng, exponents)


def random_bounded_poly(rng: random.Random, max_deg_x: int, max_deg_y: int) -> YPoly:
    """Random nonzero element of Q[x,y] with separate degree bounds."""
    return _random_terms(rng, lambda: (rng.randint(0, max_deg_x), rng.randint(0, max_deg_y)))


def _random_terms(rng: random.Random, exponents) -> YPoly:
    """Sum of 1 to 6 terms c*x^a*y^b, (a, b) drawn by exponents(), c a nonzero scalar."""
    terms: dict[int, dict[int, int]] = {}
    for _ in range(rng.randint(1, 6)):
        a, b = exponents()
        terms.setdefault(b, {})[a] = _nonzero_scalar(rng)
    # Integer coefficients whose top entry is nonzero are already canonical.
    coeffs = {b: _raw(tuple([xs.get(e, 0) for e in range(max(xs) + 1)]), 1) for b, xs in terms.items()}
    return YPoly({b: RatFunc._canonical(p, _ONE) for b, p in coeffs.items()})


def random_rational_poly(rng: random.Random, max_deg_x: int, max_deg_y: int) -> YPoly:
    """Random nonzero element of Q(x)[y]: rational-function coefficients."""
    terms = {}
    exps = rng.sample(range(max_deg_y + 1), rng.randint(1, min(3, max_deg_y + 1)))
    for b in exps:
        num = random_unipoly(rng, max_deg_x)
        den = random_unipoly(rng, 2)
        terms[b] = RatFunc(num, den)
    return YPoly(terms)


def _seeded_corpus(
    rng: random.Random, max_deg_x: int, max_deg_y: int, count: int, total_degree: bool = False
) -> list[YPoly]:
    """The monomials x^a*y^b with a <= max_deg_x and b <= max_deg_y, then count
    random elements drawn from rng: with those degree bounds, or with
    total_degree, of total degree at most the larger bound."""
    items = [
        YPoly.monomial(b, UniPoly.monomial(a)) for a in range(max_deg_x + 1) for b in range(max_deg_y + 1)
    ]
    for _ in range(count):
        if total_degree:
            items.append(random_xy_poly(rng, max(max_deg_x, max_deg_y)))
        else:
            items.append(random_bounded_poly(rng, max_deg_x, max_deg_y))
    return items


# ---------------------------------------------------------------------------
# Image sampling and structure checks


@dataclass(frozen=True)
class ImageReport:
    """Attained values of a sampled corpus, with membership violations."""

    attained: frozenset[ValuePair]
    violations: tuple[tuple[YPoly, ValuePair], ...]
    class_count: int

    @property
    def ok(self) -> bool:
        return not self.violations


def sample_image(spec: ValuationSpec, corpus_spec: CorpusSpec, mode: str) -> ImageReport:
    """Evaluate the valuation over a corpus and test image membership.

    mode "ex55" tests membership in {(0,0)} union (Z_{>0} alpha + Z_{>=0} beta);
    mode "cone" tests membership in Z_{>=0} alpha + Z_{>=0} beta.
    """
    _check_unimodular(spec.alpha, spec.beta)
    attained = set()
    violations = []
    rng = random.Random(corpus_spec.seed)
    dx, dy = corpus_spec.max_deg_x, corpus_spec.max_deg_y
    for f in _seeded_corpus(rng, dx, dy, corpus_spec.random_count, total_degree=True):
        v = value(spec, f)
        attained.add(v)
        if not monoid_member(v, spec.alpha, spec.beta, mode):
            violations.append((f, v))
    classes = {quotient_class(v, spec.m, spec.alpha, spec.beta) for v in attained}
    return ImageReport(
        attained=frozenset(attained),
        violations=tuple(violations),
        class_count=len(classes),
    )


# Seeded random polynomials that the "corpus" census family adds.
_CENSUS_RANDOM_COUNT = 120


def quotient_census(
    spec: ValuationSpec,
    ell: int,
    family: str = "h_family",
    seed: int = 0,
) -> int:
    """Count distinct quotient classes attained by y-degree <= ell elements.

    family "h_family" uses the y^r*(h*w)^q witnesses exactly; family
    "corpus" adds x,y-monomials and seeded random polynomials.  The count
    can never exceed ell + 1.
    """
    _check_unimodular(spec.alpha, spec.beta)
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if family not in ("h_family", "corpus"):
        raise ValueError(f"unknown family {family!r}")
    items = _class_witnesses(spec, ell)
    if family == "corpus":
        items += _seeded_corpus(random.Random(seed), 4, ell, _CENSUS_RANDOM_COUNT)
    classes = set()
    for f in items:
        classes.add(quotient_class(value(spec, f), spec.m, spec.alpha, spec.beta))
    return len(classes)


@dataclass(frozen=True)
class StructureReport:
    """Containment checks for the attained image.

    low_degree: elements of y-degree < m must land in Z_{>=0} alpha.
    divisor_value: the value of w itself, which must escape Z_{>=0} alpha.
    rational: elements of Q(x)[y] must land in Z alpha + Z_{>=0} beta.
    """

    low_degree_checked: int
    low_degree_violations: tuple[tuple[YPoly, ValuePair], ...]
    divisor_value: ValuePair
    divisor_escapes: bool
    rational_checked: int
    rational_violations: tuple[tuple[YPoly, ValuePair], ...]

    @property
    def ok(self) -> bool:
        return (
            not self.low_degree_violations
            and self.divisor_escapes
            and not self.rational_violations
        )


def _in_nonneg_alpha(spec: ValuationSpec, v: ValuePair) -> bool:
    sol = decompose(v, spec.alpha, spec.beta)
    return sol is not None and sol[1] == 0 and sol[0] >= 0


def structure_checks(spec: ValuationSpec, corpus_spec: CorpusSpec) -> StructureReport:
    """Audit the structural containments of the attained image."""
    low_violations = []
    rng = random.Random(corpus_spec.seed)
    low_corpus = _seeded_corpus(rng, corpus_spec.max_deg_x, spec.m - 1, corpus_spec.random_count)
    for f in low_corpus:
        v = value(spec, f)
        if not _in_nonneg_alpha(spec, v):
            low_violations.append((f, v))

    v_w = value(spec, spec.w)
    divisor_escapes = not _in_nonneg_alpha(spec, v_w)

    rational_violations = []
    for _ in range(corpus_spec.random_count):
        f = random_rational_poly(rng, corpus_spec.max_deg_x, corpus_spec.max_deg_y)
        v = value(spec, f)
        sol = decompose(v, spec.alpha, spec.beta)
        if sol is None or sol[1] < 0:
            rational_violations.append((f, v))

    return StructureReport(
        low_degree_checked=len(low_corpus),
        low_degree_violations=tuple(low_violations),
        divisor_value=v_w,
        divisor_escapes=divisor_escapes,
        rational_checked=corpus_spec.random_count,
        rational_violations=tuple(rational_violations),
    )
