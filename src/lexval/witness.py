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

Both drivers reduce through one core, which reads each lead term off a
held expansion.  It takes a list of the chain's lead terms, in which an
entry left empty is filled by one expansion when a step first uses it.

The remaining operations sample the attained image, count quotient classes,
and check the structural containments of the image monoid.  Every corpus
generator yields cleared rows (den, nums); a rational element's rows stand
over the product of its drawn denominators, with no gcd and no division.
The image audit and both structure audits run one loop: it values each
row pair, decomposes each value once in the basis (alpha, beta), and
builds a `YPoly` only for a violation that gets reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .ratfunc import _ONE, RatFunc, UniPoly, _poly, _zdivmod, _zmul
from .valgroup import INF, ExtValue, ValuePair, _check_mode, _check_unimodular, _in_monoid, decompose, quotient_class
from .valuation import LeadTerm, ValuationSpec, _cleared_value, _lead, value
from .ypoly import WExpansion, YPoly, YPowerTable, _cofactors, _from_rows, denominator_clearer, ypower_table


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
    return _bounded_monic_expansion(ypower_table(spec.w, d * spec.m), d * spec.m)[0]


def _bounded_monic_expansion(table: YPowerTable, dm: int) -> tuple[YPoly, WExpansion]:
    """The output of the corrector recursion at y-degree dm <= table.e_max and
    its whole unreduced w-expansion.

    Coefficient t is minus the polynomial part of S_t, the sum of c_s * cell t
    of y^s over s > t, so cell t of the output, S_t + c_t, is the remainder of
    that division; the top cell is 1.  The c_s are integer lists over one
    running integer den, so S_t is summed in Z[x] at the largest power of H,
    one product per term, and divided once.
    """
    divisor = table.powers[0].divisor
    den = 1
    ints: dict[int, list[int]] = {dm: [1]}  # c_s = ints[s] / den
    cells: dict[int, tuple[list[int], int]] = {dm: ([1], 0)}  # cell s over den
    for t in range(dm - 1, -1, -1):
        i, j = divmod(t, table.m)
        acc = ([], 0)
        for s in range(t + 1, dm + 1):
            n, k = table.powers[s].grid[i][j]
            c = ints[s]
            if n and c:
                acc = divisor._plus(acc, _zmul(c, n), k)
        n, k = acc
        q, r, scale = _zdivmod(n, divisor.hpower(k))
        if scale != 1:
            den *= scale
            ints = {s: [x * scale for x in c] for s, c in ints.items()}
            cells = {s: ([x * scale for x in c], kc) for s, (c, kc) in cells.items()}
        ints[t] = [-x for x in q]
        cells[t] = (r, k)
    poly = YPoly._canonical({s: RatFunc._canonical(_poly(c, den), _ONE) for s, c in ints.items() if c})
    m = table.m
    grid = [[cells.get(i * m + j, ([], 0)) for j in range(m)] for i in range(dm // m + 1)]
    return poly, WExpansion(grid=grid, den=[den], divisor=divisor)


def reduce_past_chain(
    spec: ValuationSpec, f: YPoly, chain: WitnessChain
) -> tuple[YPoly, list[tuple[int, Fraction]], ExtValue]:
    """Add scalar multiples of chain elements until the value exceeds the chain.

    Returns (g, steps, value(g)) with g = f + sum lambda * chain.polys[i] over
    the recorded steps and value(g) > chain.values[-1].  If f lies in the
    scalar span of the chain the reduction lands exactly on zero, with value
    INF, which still satisfies the postcondition.  f is expanded once, and
    each chain element used once per call; the steps divide nothing.
    """
    g, steps, lead = _reduce(spec, f, spec.divisor.expand(f), chain, [None] * len(chain.polys))
    return g, steps, INF if lead is None else lead.value


def _reduce(spec: ValuationSpec, f: YPoly, exp: WExpansion, chain: WitnessChain, leads: list[LeadTerm | None]):
    """reduce_past_chain from the whole expansion exp of f, with the lead term
    of g at the end (None for g = 0) in place of its value.

    leads[idx] is the lead term of chain.polys[idx] over its whole
    expansion; a None entry is filled, by one expansion, when a step first
    uses it.  A step h <- h + lambda * chain.polys[idx] sets
    E(h) <- E(h) + lambda * E(chain.polys[idx]) and reads the new lead term
    off that sum.
    """
    h = f
    lead = _lead(spec, exp=exp)
    steps: list[tuple[int, Fraction]] = []
    cap = 4 * (len(chain.polys) + 2)
    while lead is not None:
        # Each step raises the value, so only the input can fail this check.
        if not lead.value >= chain.values[0]:
            raise ValueError(f"value {lead.value} of input is below the chain start {chain.values[0]}")
        if lead.value > chain.values[-1]:
            return h, steps, lead
        # The chain values are consecutive, so chain.values[k] is
        # chain.values[0] + (0, k).
        idx = lead.value.b - chain.values[0].b
        other = leads[idx]
        if other is None:
            other = leads[idx] = _lead(spec, exp=spec.divisor.expand(chain.polys[idx]))
        lam = lead.cancel_scalar(other)
        h = h + chain.polys[idx].scale(lam)
        steps.append((idx, lam))
        if len(steps) > cap:
            raise RuntimeError("reduction exceeded its iteration cap")
        lead = _lead(spec, exp=lead.exp.plus(lam, other.exp))
    return h, steps, None


def increasing_value_sequence(spec: ValuationSpec, d_max: int) -> list[tuple[YPoly, ValuePair]]:
    """Sequence f_0, f_1, ... with strictly increasing (consecutive) values.

    f_0 is the bounded monic builder's degree-m output; each later element
    reduces a fresh higher-degree builder output past the chain built so
    far.  For the ex55 preset this yields deg_y(f_d) = 2(d+1) and
    value(f_d) = (-1, d-1) exactly.  Every element is valued and reduced
    from the builder's expansion and those kept for the chain, with no
    division by w.  f_0 and f_1 share a y-power table to y^2m, which is
    extended to y^((d_max+1)m) only once f_1 has passed the chain's
    consecutiveness check.
    """
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    table = ypower_table(spec.w, 2 * spec.m)
    f0, exp0 = _bounded_monic_expansion(table, spec.m)
    lead = _lead(spec, exp=exp0)
    chain = WitnessChain((f0,), (lead.value,))
    leads = [lead]
    for d in range(1, d_max + 1):
        if d == 2:
            table = table.extended((d_max + 1) * spec.m)
        g, _, lead = _reduce(spec, *_bounded_monic_expansion(table, (d + 1) * spec.m), chain, leads)
        chain = chain.extended(g, INF if lead is None else lead.value)
        leads.append(lead)
    return list(zip(chain.polys, chain.values))


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


_SCALARS = (-3, -2, -1, 1, 2, 3)


def random_unipoly(rng: random.Random, max_deg: int) -> UniPoly:
    """Random nonzero polynomial in x with small integer coefficients."""
    return _poly(_random_ints(_below(rng), max_deg))


def _below(rng: random.Random):
    """below(n) = rng.randrange(n) for n >= 1, in one call per draw.

    It is CPython's own draw (Random._randbelow_with_getrandbits): k random
    bits, rejected until they are below n.  So randint(a, b) is
    a + below(b - a + 1) and choice(t) is t[below(len(t))], with the same
    stream and state afterwards.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def _random_rows(rng: random.Random, max_deg_x: int, max_deg_y: int, total_degree: bool = False):
    """The one corpus generator: the cleared rows ([1], {b: P_b}) of a sum of
    1 to 6 terms c*x^a*y^b, c a nonzero scalar.

    (a, b) is drawn with a <= max_deg_x and b <= max_deg_y, or, with
    total_degree, a + b <= the larger bound; a later term at the same (a, b)
    replaces the earlier one.
    """
    below = _below(rng)
    top = max(max_deg_x, max_deg_y) + 1
    rows: dict[int, list[int]] = {}
    for _ in range(1 + below(6)):
        if total_degree:
            a = below(top)
            b = below(top - a)
        else:
            a, b = below(max_deg_x + 1), below(max_deg_y + 1)
        row = rows.setdefault(b, [])
        if a >= len(row):
            row += [0] * (a + 1 - len(row))
        row[a] = _SCALARS[below(6)]
    return [1], rows


def random_xy_poly(rng: random.Random, max_total_deg: int) -> YPoly:
    """Random nonzero element of Q[x,y] of bounded total degree."""
    return _from_rows(*_random_rows(rng, max_total_deg, max_total_deg, total_degree=True))


def random_bounded_poly(rng: random.Random, max_deg_x: int, max_deg_y: int) -> YPoly:
    """Random nonzero element of Q[x,y] with separate degree bounds."""
    return _from_rows(*_random_rows(rng, max_deg_x, max_deg_y))


def _random_ints(below, max_deg: int) -> list[int]:
    """The coefficients of random_unipoly's draw: the degree d, then d
    coefficients in -3 .. 3, then a nonzero scalar lead."""
    deg = below(max_deg + 1)
    return [below(7) - 3 for _ in range(deg)] + [_SCALARS[below(6)]]


def _random_rational_rows(rng: random.Random, max_deg_x: int, max_deg_y: int):
    """The cleared rows of a sum of 1 to 3 terms N_b/D_b * y^b at distinct b,
    N_b and D_b drawn as by random_unipoly with degree bounds max_deg_x and 2:
    (prod D_b, {b: N_b * prod_(b' != b) D_b'}), with no gcd and no division."""
    exps = rng.sample(range(max_deg_y + 1), rng.randint(1, min(3, max_deg_y + 1)))
    below = _below(rng)
    drawn = [(_random_ints(below, max_deg_x), _random_ints(below, 2)) for _ in exps]
    den, others = _cofactors([d for _, d in drawn])
    return den, {b: _zmul(n, o) for b, (n, _), o in zip(exps, drawn, others)}


def random_rational_poly(rng: random.Random, max_deg_x: int, max_deg_y: int) -> YPoly:
    """Random nonzero element of Q(x)[y]: rational-function coefficients."""
    return _from_rows(*_random_rational_rows(rng, max_deg_x, max_deg_y))


def _seeded_corpus(
    rng: random.Random, max_deg_x: int, max_deg_y: int, count: int, total_degree: bool = False
) -> list[tuple[list[int], dict[int, list[int]]]]:
    """The cleared rows ([1], nums) of the monomials x^a*y^b with
    a <= max_deg_x and b <= max_deg_y, then of count elements drawn from rng
    by `_random_rows`."""
    items = [([1], {b: [0] * a + [1]}) for a in range(max_deg_x + 1) for b in range(max_deg_y + 1)]
    return items + [_random_rows(rng, max_deg_x, max_deg_y, total_degree) for _ in range(count)]


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
    # A unimodular basis is not commensurable, so each value needs only its
    # coordinates and the membership rule.
    _check_unimodular(spec.alpha, spec.beta)
    _check_mode(mode)
    rng = random.Random(corpus_spec.seed)
    dx, dy = corpus_spec.max_deg_x, corpus_spec.max_deg_y
    corpus = _seeded_corpus(rng, dx, dy, corpus_spec.random_count, total_degree=True)
    valued, violations = _audit(spec, corpus, lambda sol: _in_monoid(sol, mode))
    coords = dict(valued)
    # The class of s*alpha + t*beta modulo Z*(m*alpha) is (s mod m, t).
    return ImageReport(
        attained=frozenset(coords),
        violations=violations,
        class_count=len({(s % spec.m, t) for s, t in coords.values()}),
    )


def _audit(spec: ValuationSpec, corpus, ok):
    """The loop of the image and structure audits over cleared rows (den, nums).

    Each row pair is valued and its value decomposed once in the basis
    (alpha, beta).  Returns (value, coordinates) for each pair, and
    (f, value) for each pair whose coordinates (None off the lattice) fail
    ok; only such an f is built as a YPoly.
    """
    valued, violations = [], []
    for den, nums in corpus:
        v = _cleared_value(spec, den, nums)
        sol = decompose(v, spec.alpha, spec.beta)
        valued.append((v, sol))
        if not ok(sol):
            violations.append((_from_rows(den, nums), v))
    return valued, tuple(violations)


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
    values = [value(spec, f) for f in _class_witnesses(spec, ell)]
    if family == "corpus":
        corpus = _seeded_corpus(random.Random(seed), 4, ell, _CENSUS_RANDOM_COUNT)
        values += [_cleared_value(spec, *rows) for rows in corpus]
    return len({quotient_class(v, spec.m, spec.alpha, spec.beta) for v in values})


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


def _in_nonneg_alpha(sol: tuple[int, int] | None) -> bool:
    return sol is not None and sol[1] == 0 and sol[0] >= 0


def structure_checks(spec: ValuationSpec, corpus_spec: CorpusSpec) -> StructureReport:
    """Audit the structural containments of the attained image."""
    rng = random.Random(corpus_spec.seed)
    dx, dy, count = corpus_spec.max_deg_x, corpus_spec.max_deg_y, corpus_spec.random_count
    low_corpus = _seeded_corpus(rng, dx, spec.m - 1, count)
    _, low_violations = _audit(spec, low_corpus, _in_nonneg_alpha)
    v_w = value(spec, spec.w)
    rational = (_random_rational_rows(rng, dx, dy) for _ in range(count))
    _, rational_violations = _audit(spec, rational, lambda sol: sol is not None and sol[1] >= 0)
    return StructureReport(
        low_degree_checked=len(low_corpus),
        low_degree_violations=low_violations,
        divisor_value=v_w,
        divisor_escapes=not _in_nonneg_alpha(decompose(v_w, spec.alpha, spec.beta)),
        rational_checked=count,
        rational_violations=rational_violations,
    )
