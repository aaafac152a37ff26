"""Constructive witnesses and empirical structure checks for a valuation.

The centerpiece is the set of procedures that produce, for suitable
parameters, an infinite strictly increasing sequence of values attained on
plain polynomials (so the attained value set has no largest element):

  * `Divisor.bounded_monic(d*m)`, on `spec.divisor`, builds the monic
    polynomial of y-degree d*m with Q[x] coefficients whose expansion cells
    below the top one all have strictly positive valuation at infinity, via
    a descending corrector recursion over the grids of the powers of y.
    When beta > (0,0) this forces value >= (m*n - m - n) * alpha; for other
    bundles the bound is not guaranteed in general and is checked
    empirically by the tests;
  * `reduce_past_chain` adds scalar multiples of chain elements until the
    value climbs past the end of the chain;
  * `increasing_value_sequence` alternates the two.  The pairs
    (f_d, value(f_d)) it returns are the chain: a prefix seq[:d] is what
    `reduce_past_chain` takes, and one check keeps its values consecutive;
  * `witness_for_value` multiplies them: f = f_j * f_0^(i-1) is formed as
    cleared rows, and the `target` command reads its value off
    E(f_j) * E(f_0)^(i-1), the product of the whole expansions that the
    sequence keeps, with no division by w.

Both drivers check f's value against the chain start, then run the one
lead-cancellation loop of `lexval.valuation` through one chain match,
which fills a chain element's lead term, by one expansion, when a step
first uses it.  Each step must raise the value strictly, so over a run of
consecutive values the loop ends within len(chain) steps; no cap is left.
The builder's outputs, their expansions and the y-power grids under them
depend on w and a degree only, so they are built once per divisor, in the
store of `spec.divisor`, and shared by every later sequence, witness and
target on that spec; what depends on alpha and beta or on a chain (lead
terms, reduction steps, the consecutiveness check) runs on every call.

The remaining operations sample the attained image, count quotient classes,
and check the structural containments of the image monoid.  The census
builds and divides none of its class witnesses: it reads each value off
the witness's one-cell expansion, and each seeded monomial x^a*y^b of the
corpus family off x^a times the stored grid of y^b; only the drawn rows
are divided.  Every corpus generator yields cleared
rows (den, nums); a rational element's rows stand over the product of its
drawn denominators, with no gcd and no division.
The image audit and both structure audits run one loop: it values each
row pair, decomposes each value once in the basis (alpha, beta), and
builds a `YPoly` only for a violation that gets reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .ratfunc import UniPoly, _poly, _zmul
from .valgroup import INF, ExtValue, ValuePair, _check_mode, _check_unimodular, _in_monoid, decompose, quotient_class
from .valuation import LeadTerm, ValuationSpec, _cancel_leads, _cleared_value, _lead, value
from .ypoly import WExpansion, YPoly, _clear_denominators, _cofactors, _from_rows, _rows_times, denominator_clearer


def _check_chain(chain: list[tuple[YPoly, ValuePair]]) -> None:
    """Refuse an empty chain, or one whose values are not consecutive: each
    the immediate successor of the one before, which in Z (+) Z under lex is
    a step of (0, 1)."""
    if not chain:
        raise ValueError("chain needs matching nonempty polys and values")
    for (_, prev), (_, nxt) in zip(chain, chain[1:]):
        if nxt != prev + ValuePair(0, 1):
            raise ValueError(f"chain values not consecutive: {prev} then {nxt}")


def reduce_past_chain(
    spec: ValuationSpec, f: YPoly, chain: list[tuple[YPoly, ValuePair]]
) -> tuple[YPoly, list[tuple[int, Fraction]], ExtValue]:
    """Add scalar multiples of chain elements until the value exceeds the chain.

    chain is a list of pairs (f_k, value(f_k)) with consecutive values, such
    as a prefix seq[:d] of `increasing_value_sequence`'s output.  Returns
    (g, steps, value(g)) with g = f + sum lambda * f_i over the recorded
    steps (i, lambda) and value(g) > the last chain value.  If f lies in the
    scalar span of the chain the reduction lands exactly on zero, with value
    INF, which still satisfies the postcondition.  f is expanded once, and
    each chain element used once per call; the steps divide nothing.
    """
    _check_chain(chain)
    lead = _lead(spec, exp=spec.divisor.expand(f))
    if lead is not None and not lead.value >= chain[0][1]:
        raise ValueError(f"value {lead.value} of input is below the chain start {chain[0][1]}")
    g, steps, lead = _cancel_leads(spec, f, lead, _chain_match(spec, chain, [None] * len(chain)))
    return g, steps, INF if lead is None else lead.value


def _chain_match(spec: ValuationSpec, chain: list[tuple[YPoly, ValuePair]], leads: list[LeadTerm | None]):
    """The match of `_cancel_leads` over a chain of pairs (f_k, value(f_k)):
    a value from the chain's first to its last maps to (index, element,
    lead), and a higher value to None.  The values are consecutive, so the
    value of f_k is the first value plus (0, k).  leads[k] is the lead of f_k
    over its whole expansion; a None entry is filled, by one expansion, on
    first use.
    """

    def match(v: ValuePair):
        if v > chain[-1][1]:
            return None
        idx = v.b - chain[0][1].b
        if leads[idx] is None:
            leads[idx] = _lead(spec, exp=spec.divisor.expand(chain[idx][0]))
        return idx, chain[idx][0], leads[idx]

    return match


def increasing_value_sequence(spec: ValuationSpec, d_max: int) -> list[tuple[YPoly, ValuePair]]:
    """Sequence f_0, f_1, ... with strictly increasing (consecutive) values.

    The pairs (f_d, value(f_d)) it returns are the chain: f_0 is the
    builder's degree-m output, and each later element reduces a fresh
    higher-degree builder output past the chain built so far, whose values
    must stay consecutive.  For the ex55 preset this yields
    deg_y(f_d) = 2(d+1) and value(f_d) = (-1, d-1) exactly.  Every element is
    valued and reduced from the builder's expansion and those kept for the
    chain, with no division by w.  The builder outputs, their expansions and
    the y-power grids under them are read from the store of `spec.divisor`,
    which grows only as far as the element being built: to y^2m for f_0 and
    f_1, so no higher power is built before value(f_1) has passed the
    consecutiveness check.  The lead terms, the reduction steps and the
    check run on every call.  A builder output whose value is below
    value(f_0), which no reduction by the chain can raise, means that the
    bundle has no such sequence (ex52 at d = 1).
    """
    return _sequence(spec, d_max)[0]


def _sequence(spec: ValuationSpec, d_max: int) -> tuple[list[tuple[YPoly, ValuePair]], list[LeadTerm]]:
    """`increasing_value_sequence` with the lead term of each element over
    its whole expansion."""
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    divisor = spec.divisor
    f0, exp0 = divisor.bounded_monic(spec.m)
    lead = _lead(spec, exp=exp0)
    seq, leads = [(f0, lead.value)], [lead]
    for d in range(1, d_max + 1):
        f, exp = divisor.bounded_monic((d + 1) * spec.m)
        lead = _lead(spec, exp=exp)
        if not lead.value >= seq[0][1]:
            raise ValueError(
                f"this bundle has no increasing value sequence: at d={d} the builder output has value "
                f"{lead.value}, below value(f_0) = {seq[0][1]}"
            )
        g, _, lead = _cancel_leads(spec, f, lead, _chain_match(spec, seq, leads))
        seq.append((g, INF if lead is None else lead.value))
        _check_chain(seq[-2:])
        leads.append(lead)
    return seq, leads


def class_witness(spec: ValuationSpec, q: int, r: int) -> YPoly:
    """The polynomial y^r * (h*w)^q, h clearing the denominators of w.

    Its y-degree is q*m + r and its quotient class modulo Z*(m*alpha) is
    ((r*n) mod m, q), so distinct (q, r) with r < m give distinct classes.
    Its w-expansion is the one cell h^q at (q, r), as r < m.
    """
    if q < 0 or not 0 <= r < spec.m:
        raise ValueError("need q >= 0 and 0 <= r < m")
    return YPoly.monomial(r) * spec.w.scale(denominator_clearer(spec.w)) ** q


def witness_for_value(spec: ValuationSpec, i: int, j: int) -> YPoly:
    """Polynomial attaining value(f_j) + (i-1) * value(f_0).

    For the ex55 preset this attains exactly (-i, j-i), covering every
    element of the attained image monoid apart from (0,0).
    """
    return _target_witness(spec, i, j)[0]


def _target_witness(spec: ValuationSpec, i: int, j: int) -> tuple[YPoly, ValuePair]:
    """`witness_for_value`'s f = f_j * f_0^(i-1) with its value.

    f is formed as cleared rows, and its expansion as E(f_j) * E(f_0)^(i-1)
    from the whole expansions that the sequence keeps, so f is not divided.
    """
    if i < 1 or j < 0:
        raise ValueError("need i >= 1 and j >= 0")
    seq, leads = _sequence(spec, j)
    rows, base = _clear_denominators(seq[j][0]), _clear_denominators(seq[0][0])
    exp = leads[j].exp
    for _ in range(i - 1):
        rows = _rows_times(rows, base)
        exp = exp.times(leads[0].exp)
    return _from_rows(*rows), _lead(spec, exp=exp).value


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

    family "h_family" uses the witnesses class_witness(spec, q, r) for
    q*m + r <= ell; family "corpus" adds the monomials x^a*y^b with a <= 4
    and b <= ell and seeded random polynomials, whose drawn rows are divided
    by w.  A witness's value is read off its one-cell grid, with H^q at
    (q, r) over den 1: H^q is h^q times a nonzero rational, which changes no
    value.  A monomial's is read off E(y^b) * E(x^a), the grid of y^b from
    the divisor's store with each cell shifted by x^a, so the store grows to
    y^ell.  The count can never
    exceed ell + 1.
    """
    _check_unimodular(spec.alpha, spec.beta)
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if family not in ("h_family", "corpus"):
        raise ValueError(f"unknown family {family!r}")
    divisor, zero = spec.divisor, [([], 0)] * spec.m
    values = []
    for q, r in (divmod(i, spec.m) for i in range(ell + 1)):
        row = zero[:r] + [(divisor.hpower(q), 0)] + zero[r + 1 :]
        values.append(_lead(spec, exp=WExpansion([zero] * q + [row], [1], divisor)).value)
    if family == "corpus":
        # The monomials that `_seeded_corpus` lists first, then its drawn
        # rows, from the same stream.
        xs = [WExpansion([[([0] * a + [1], 0)] + zero[1:]], [1], divisor) for a in range(5)]
        for b in range(ell + 1):
            ypow = WExpansion(divisor.ypower(b), [1], divisor)
            values += [_lead(spec, exp=ypow.times(xa)).value for xa in xs]
        rng = random.Random(seed)
        values += [_cleared_value(spec, *_random_rows(rng, 4, ell)) for _ in range(_CENSUS_RANDOM_COUNT)]
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
