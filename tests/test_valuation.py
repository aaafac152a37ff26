"""Parameter validation, the value map, lead terms, and the axiom auditor."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from lexval import (
    INF,
    InvalidSpecError,
    RatFunc,
    UniPoly,
    ValuePair,
    YPoly,
    bundled_config_path,
    cancel_lambda,
    check_axioms,
    lead_term,
    load_spec,
    make_spec,
    parse_poly,
    random_bounded_poly,
    random_rational_poly,
    random_xy_poly,
    value,
    w_expand,
)
from lexval.ratfunc import residue_at_inf, v_inf
from lexval.valuation import (
    V_ALPHA_DIVISIBLE,
    V_ALPHA_NOT_NEGATIVE,
    V_BETA_DIVISIBLE,
    V_BETA_TOO_LOW,
    V_COMMENSURABLE,
    V_M_NOT_POSITIVE,
    V_N_NOT_POSITIVE,
    V_NOT_COPRIME,
    V_W0_MISMATCH,
    V_W_COEFF_TOO_LOW,
    V_W_DEGREE,
    V_W_NOT_MONIC,
    _cancel_leads,
    _lead,
)
from lexval.ypoly import Divisor, WExpansion

A = ValuePair(-1, -1)
B55 = ValuePair(0, 1)


def test_make_spec_accepts_presets(ex55, ex52):
    assert (ex55.m, ex55.n) == (2, 3)
    assert ex55.beta == B55
    assert ex52.beta == ValuePair(0, -1)


def test_make_spec_rejections_carry_named_violations():
    cases = [
        (V_M_NOT_POSITIVE, (0, 3, "y^2 + y/x + x^3", A, B55)),
        (V_N_NOT_POSITIVE, (2, 0, "y^2 + y/x + x^3", A, B55)),
        (V_W_DEGREE, (3, 2, "y^2 + y/x + x^3", A, B55)),
        (V_NOT_COPRIME, (2, 4, "y^2 + x^4", A, B55)),
        (V_W_NOT_MONIC, (2, 3, "2y^2 + x^3", A, B55)),
        (V_ALPHA_NOT_NEGATIVE, (2, 3, "y^2 + y/x + x^3", ValuePair(1, 1), B55)),
        (V_ALPHA_DIVISIBLE, (2, 3, "y^2 + y/x + x^3", ValuePair(-2, -2), B55)),
        (V_BETA_DIVISIBLE, (2, 3, "y^2 + y/x + x^3", A, ValuePair(0, 2))),
        (V_COMMENSURABLE, (2, 3, "y^2 + y/x + x^3", A, ValuePair(1, 1))),
        (V_BETA_TOO_LOW, (2, 3, "y^2 + y/x + x^3", A, ValuePair(-7, 1))),
        (V_W_COEFF_TOO_LOW, (2, 3, "y^2 + x^2*y + x^3", A, B55)),
        (V_W0_MISMATCH, (2, 3, "y^2 + x^2", A, B55)),
    ]
    for name, (m, n, w, alpha, beta) in cases:
        with pytest.raises(InvalidSpecError) as err:
            make_spec(m, n, parse_poly(w), alpha, beta)
        assert name in err.value.violations, (name, err.value.violations)


def test_make_spec_collects_all_violations():
    with pytest.raises(InvalidSpecError) as err:
        make_spec(2, 4, parse_poly("2y^2 + x^3"), ValuePair(-2, -2), ValuePair(0, 2))
    got = set(err.value.violations)
    assert {V_NOT_COPRIME, V_W_NOT_MONIC, V_ALPHA_DIVISIBLE, V_BETA_DIVISIBLE} <= got


def test_value_paper_anchors(ex55):
    assert value(ex55, parse_poly("x")) == ValuePair(-2, -2)
    assert value(ex55, parse_poly("y")) == ValuePair(-3, -3)
    assert value(ex55, parse_poly("0")) == INF
    assert value(ex55, parse_poly("y^2 + x^3")) == ValuePair(-1, -1)
    assert value(ex55, ex55.w) == ValuePair(0, 1)
    assert value(ex55, parse_poly("x") * ex55.w) == ValuePair(-2, -1)
    assert value(ex55, parse_poly("y^4")) == ValuePair(-12, -12)
    assert value(ex55, parse_poly("y/x - 5")) == ValuePair(-1, -1)


def test_value_on_rational_coefficients(ex55):
    # elements of Q(x)[y] are first-class inputs
    assert value(ex55, parse_poly("y/x")) == ValuePair(-1, -1)
    assert value(ex55, parse_poly("1/x")) == ValuePair(2, 2)


def test_lead_term_examples(ex55):
    t = lead_term(ex55, ex55.w)
    assert (t.i, t.j, str(t.coeff)) == (1, 0, "1")
    t = lead_term(ex55, parse_poly("y^2"))
    assert (t.i, t.j, str(t.coeff)) == (0, 0, "-x^3")
    t = lead_term(ex55, parse_poly("y^4"))
    assert (t.i, t.j) == (0, 0)
    assert t.coeff == parse_poly("x^6 - x").as_ratfunc()
    with pytest.raises(ValueError):
        lead_term(ex55, parse_poly("0"))


def test_cancel_lambda_examples(ex55):
    f = parse_poly("y^2")
    g = parse_poly("-x^3")
    lam = cancel_lambda(ex55, f, g)
    assert lam == -1
    assert value(ex55, f + g.scale(lam)) == ValuePair(-1, -1)

    assert cancel_lambda(ex55, f, f) == -1
    assert cancel_lambda(ex55, parse_poly("x"), parse_poly("2x")) == Fraction(-1, 2)


def test_cancel_lambda_preconditions(ex55):
    with pytest.raises(ValueError):
        cancel_lambda(ex55, parse_poly("x"), parse_poly("y"))
    with pytest.raises(ValueError):
        cancel_lambda(ex55, parse_poly("0"), parse_poly("0"))


def test_cancel_leads_runs_on_any_match(ex52):
    # A match that is not a chain: a table from values to named elements.
    # Under ex52, v(y^2) = v(x^3) = (-6,-6), and y^2 + x^3 is w itself, of
    # value beta = (0,-1); with w in the table too, the loop ends at 0.
    def whole_lead(f):
        return _lead(ex52, exp=ex52.divisor.expand(f))

    y2, x3, w = parse_poly("y^2"), parse_poly("x^3"), ex52.w
    table = {value(ex52, x3): ("x^3", x3, whole_lead(x3))}
    f, steps, lead = _cancel_leads(ex52, y2, whole_lead(y2), table.get)
    assert steps == [("x^3", 1)]
    assert f == w and lead.value == ValuePair(0, -1) == value(ex52, w)

    table[value(ex52, w)] = ("w", w, whole_lead(w))
    f, steps, lead = _cancel_leads(ex52, y2, whole_lead(y2), table.get)
    assert steps == [("x^3", 1), ("w", -1)]
    assert f.is_zero() and lead is None


def test_monomial_law(ex55, ex52):
    for spec in (ex55, ex52):
        for a in range(9):
            for b in range(9):
                f = parse_poly("x") ** a * parse_poly("y") ** b
                assert value(spec, f) == (a * spec.m + b * spec.n) * spec.alpha


def test_powers_of_w_law(ex55, ex52):
    for spec in (ex55, ex52):
        for j in range(2 * spec.m):
            for i in range(4):
                f = parse_poly("y") ** j * spec.w**i
                assert value(spec, f) == (j * spec.n) * spec.alpha + i * spec.beta


def test_lead_term_unique_on_random_corpus(ex55, ex52):
    rng = random.Random(11)
    for spec in (ex55, ex52):
        for _ in range(150):
            f = random_xy_poly(rng, 6)
            t = lead_term(spec, f)  # raises RuntimeError if the minimum ties
            assert not t.coeff.is_zero()
            assert t.value == value(spec, f)
            assert 0 <= t.j < spec.m


def _reference_lead(spec, f):
    """(i, j, coeff, value) of the lex-minimal cell of the reduced expansion."""
    cells = [
        (i, j, c, (-v_inf(c) * spec.m + j * spec.n) * spec.alpha + i * spec.beta)
        for i, row in enumerate(w_expand(f, spec.w).rows)
        for j, c in enumerate(row)
        if not c.is_zero()
    ]
    return min(cells, key=lambda cell: cell[3])


def _random_fraction_poly(rng):
    """Nonzero element of Q(x)[y] with fractional and non-monomial denominators."""
    x = UniPoly.x()
    dens = (UniPoly.one(), x, x**2 + 1, x + 1, UniPoly([Fraction(1, 3), 2]), (x + 1) ** 2)
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 4)):
            num = UniPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))])
            if not num.is_zero():
                terms[rng.randint(0, 7)] = RatFunc(num, rng.choice(dens))
    return YPoly(terms)


def test_lead_term_matches_reduced_expansion():
    # lead_term reads each cell's order off the unreduced Z[x] expansion and
    # reduces only the winning cell; the reference reduces every cell.  The
    # divisors have H = x, H = x + 1 and a constant H other than 1.
    a, b = ValuePair(-1, -1), ValuePair(0, 1)
    specs = [
        make_spec(2, 3, parse_poly(w), a, b)
        for w in ("y^2 + y/x + x^3", "y^2 + y/(x+1) + x^3", "y^2 + 2y/3 + x^3/2")
    ]
    specs.append(make_spec(3, 2, parse_poly("y^3 + x*y/(2*x^2 + 2) + 3*x^2/2"), a, b))
    rng = random.Random(31)
    cancelled = 0
    for spec in specs:
        corpus = [_random_fraction_poly(rng) for _ in range(30)]
        corpus += [parse_poly(s) for s in ("(x+1)^2*y^3", "(x+1)^3*y^5 + y", "x^2*y^4/(x+1)")]
        for f in corpus:
            t = lead_term(spec, f)
            ref = _reference_lead(spec, f)
            assert (t.i, t.j, t.coeff, t.value) == ref
            # (3x + 1) / (2x) has value (0, 0) and residue 3/2 at infinity,
            # so g has the value of f and a different lead coefficient.
            g = f.scale(RatFunc(UniPoly([1, 3]), UniPoly([0, 2])))
            g_ref = _reference_lead(spec, g)
            assert g_ref[3] == ref[3]
            assert cancel_lambda(spec, f, g) == -residue_at_inf(ref[2]) / residue_at_inf(g_ref[2])
            z = spec.divisor.expand(f)
            for i, row in enumerate(z.grid):
                for j, (n, _) in enumerate(row):
                    if n and len(n) - 1 != z.cell(i, j).num.degree:
                        cancelled += 1
    # The order formula is exercised where the reduction really cancels.
    assert cancelled > 0


def _lead_from_orders(spec, f):
    """(i, j, value) of the unique minimal cell, each value built from the reduced cell's v_inf."""
    exp = spec.divisor.expand(f)
    cells = [
        ((-v_inf(exp.cell(i, j)) * spec.m + j * spec.n) * spec.alpha + i * spec.beta, i, j)
        for i, row in enumerate(exp.grid)
        for j, (n, _) in enumerate(row)
        if n
    ]
    best = min(cells, key=lambda cell: cell[0])
    assert [cell[0] for cell in cells].count(best[0]) == 1
    return best[1], best[2], best[0]


def test_lead_term_ranks_cells_by_order(ex55, ex52):
    # lead_term ranks cells by integer keys; the reference builds each
    # ValuePair from the cell's order.  The divisors have H = x, H = 1,
    # H = x + 1, the constant H = 6, and m = 3.
    divisors = (
        ex55.w,
        ex52.w,
        parse_poly("y^2 + y/(x+1) + x^3"),
        parse_poly("y^2 + 2y/3 + x^3/2"),
        parse_poly("y^3 + x*y/(2*x^2 + 2) + 3*x^2/2"),
    )
    rng = random.Random(41)
    corpus = [random_xy_poly(rng, 6) for _ in range(30)] + [_random_fraction_poly(rng) for _ in range(30)]
    for w in divisors:
        n = 3 if w.deg_y == 2 else 2
        for preset in (ex55, ex52):
            spec = make_spec(w.deg_y, n, w, preset.alpha, preset.beta)
            for f in corpus:
                t = lead_term(spec, f)
                assert (t.i, t.j, t.value) == _lead_from_orders(spec, f)


# Inputs near the degree budget, whose whole division by w takes 0.06-1.5 s
# on ex55 and ex52; row 0 alone proves each value.
BUDGET_INPUTS = [
    ("ex55", "y^100", ValuePair(-300, -300)),
    ("ex55", "y^200", ValuePair(-600, -600)),
    ("ex55", "(x^200+3*x^7+1)*y^200", ValuePair(-1000, -1000)),
    ("ex55", "y^200/(x^2+x+1)^50 + y^199/(x+2)^60", ValuePair(-477, -477)),
    ("ex52", "y^200", ValuePair(-600, -600)),
    ("ex52", "y^200/(x^2+x+1)^50 + y^199/(x+2)^60", ValuePair(-477, -477)),
]


@pytest.mark.parametrize(
    "preset, text, expected", BUDGET_INPUTS, ids=[f"{p}:{t}" for p, t, _ in BUDGET_INPUTS]
)
def test_budget_inputs_build_one_row(preset, text, expected, capsys):
    from lexval.cli import main

    spec = load_spec(preset)
    f = parse_poly(text)
    t = lead_term(spec, f)
    assert len(t.exp.grid) == 1
    assert (t.i, t.j, t.value) == _lead_from_orders(spec, f)
    assert t.value == expected
    assert main(["value", "--spec", preset, text]) == 0
    assert capsys.readouterr().out == f"{expected}\n"
    assert main(["lead", "--spec", preset, text]) == 0
    assert capsys.readouterr().out.endswith(f"value = {expected}\n")


def test_lead_term_tie_raises(ex55):
    # With beta = 3*alpha, the cells y and w of y + w have the same value.
    spec = replace(ex55, beta=3 * ex55.alpha)
    with pytest.raises(RuntimeError, match="not unique"):
        lead_term(spec, parse_poly("y") + ex55.w)


def test_value_tie_raises(ex55):
    # value runs lead_term's cell search, tie check included.
    spec = replace(ex55, beta=3 * ex55.alpha)
    with pytest.raises(RuntimeError, match="not unique"):
        value(spec, parse_poly("y") + ex55.w)


@pytest.mark.parametrize("preset", ["ex52", "ex55"])
def test_value_is_the_lead_term_value(preset, request):
    # value builds only the pair; it must be the pair lead_term finds, over
    # the audit and image corpora and over rational coefficients.
    spec = request.getfixturevalue(preset)
    rng = random.Random(17)
    corpus = [random_xy_poly(rng, 5) for _ in range(60)]
    corpus += [random_bounded_poly(rng, 4, 4 * spec.m) for _ in range(30)]
    corpus += [random_rational_poly(rng, 3, 3 * spec.m) for _ in range(30)]
    corpus += [spec.w, spec.w * spec.w + parse_poly("y")]
    for f in corpus:
        assert value(spec, f) == lead_term(spec, f).value


def test_lead_term_builds_every_row_for_an_invalid_spec(ex55):
    # The row bound holds for valid bundles only.  A spec built around
    # make_spec that spec_violations rejects has every row built, and its
    # lead term is still the minimum over the whole expansion.
    corrupted = replace(ex55, alpha=-ex55.alpha)
    assert ex55.row_step == (6, 7) and corrupted.row_step is None
    rng = random.Random(43)
    for f in [random_xy_poly(rng, 8) for _ in range(20)] + [parse_poly("y^9 + x")]:
        t = lead_term(corrupted, f)
        assert len(t.exp.grid) == f.deg_y // 2 + 1
        assert (t.i, t.j, t.value) == _lead_from_orders(corrupted, f)


def _refuse_reduction(self, i, j):
    raise AssertionError(f"cell ({i}, {j}) was reduced")


def test_questions_reduce_no_cell(ex55, ex52, monkeypatch):
    # A value and a cancellation scalar need each cell's order and leading
    # residue only, which the unreduced expansion gives.
    monkeypatch.setattr(WExpansion, "cell", _refuse_reduction)
    f = parse_poly("y^3/(x^2+1) + y - 5/(3*x)")
    g = parse_poly("2*y^3/(x^2+x) + y/x")
    assert value(ex55, f) == value(ex55, g) == ValuePair(-5, -5)
    assert cancel_lambda(ex55, f, g) == Fraction(-1, 2)
    for spec in (ex55, ex52):
        assert check_axioms(spec, _corpus(5, 15), 30, seed=5).ok


def test_lead_reduces_one_cell(ex55, monkeypatch, capsys):
    from lexval.cli import main

    calls = []
    cell = WExpansion.cell

    def counted(self, i, j):
        calls.append((i, j))
        return cell(self, i, j)

    monkeypatch.setattr(WExpansion, "cell", counted)
    t = lead_term(ex55, parse_poly("y^3/(x^2+1) + x*y"))
    assert calls == []
    assert t.coeff == t.coeff == RatFunc(UniPoly([1, 0, 0, 1]), UniPoly([0, 0, 1, 0, 1]))
    assert calls == [(0, 1)]
    calls.clear()
    assert main(["lead", "y^3/(x^2+1) + x*y"]) == 0
    assert capsys.readouterr().out == "i = 0\nj = 1\ncoeff = (x^3 + 1)/(x^4 + x^2)\nvalue = (-1,-1)\n"
    assert len(calls) == 1


def test_values_clear_w_once(cleared, tmp_path):
    # The spec's divisor is built on the first question and kept.  A spec
    # loaded from a copy of the bundled file is new, so its divisor is
    # built here, not by an earlier user of the preset.  The first question
    # clears its input before it reads the divisor.
    path = tmp_path / "ex55.toml"
    path.write_text(bundled_config_path("ex55").read_text())
    spec = load_spec(str(path))
    for e in range(20):
        value(spec, parse_poly(f"y^{e + 1}/(x+2) + x"))
    assert [f is spec.w for f in cleared] == [False, True] + [False] * 19


def _corpus(seed, count, max_deg=5):
    rng = random.Random(seed)
    out = [random_xy_poly(rng, max_deg) for _ in range(count)]
    out.extend(parse_poly(s) for s in ("1", "x", "y", "x^2", "y^2", "x*y"))
    return out


def test_check_axioms_clean_on_presets(ex55, ex52):
    for spec in (ex55, ex52):
        report = check_axioms(spec, _corpus(100, 200), 500, seed=100)
        assert report.ok, report.violations
        assert report.pairs_checked == 500
        assert report.x_pairs_checked > 0


def test_check_axioms_trivial_corpus(ex55):
    report = check_axioms(ex55, [parse_poly("1")], 20)
    assert report.ok
    assert report.pairs_checked == 20


def test_check_axioms_rejects_zero_corpus(ex55):
    with pytest.raises(ValueError):
        check_axioms(ex55, [parse_poly("0")], 5)


def test_check_axioms_flags_corrupted_alpha(ex55):
    # flipping alpha to a positive pair breaks multiplicativity of the
    # induced map (e.g. the value of y*y no longer doubles), and the
    # auditor must notice
    corrupted = replace(ex55, alpha=-ex55.alpha)
    assert value(corrupted, parse_poly("y^2")) != 2 * value(corrupted, parse_poly("y"))
    report = check_axioms(corrupted, _corpus(101, 60), 300, seed=101)
    assert not report.ok
    assert report.violations.get("multiplicativity")


def test_check_axioms_records_lambda_unique_and_x_scaling(ex55, monkeypatch):
    # The audit reads its leads off the corpus lead terms and values every
    # sum and product, as cleared rows, through the module's _cleared_value,
    # looked up at call time.  A value of INF for every sum and product lets
    # lambda +- 1 raise too and breaks the scaling law.
    import lexval.valuation as valuation_mod

    monkeypatch.setattr(valuation_mod, "_cleared_value", lambda spec, den, nums: INF)
    report = check_axioms(ex55, [parse_poly("1")], 10)
    assert report.counts() == {"lambda_unique": 20, "multiplicativity": 10, "x_scaling": 4}


def test_check_axioms_negated_beta_is_still_a_valuation(ex55):
    # flipping beta alone yields the map of a different but equally valid
    # parameter bundle, so the auditor correctly finds nothing
    flipped = replace(ex55, beta=-ex55.beta)
    report = check_axioms(flipped, _corpus(102, 120), 400, seed=102)
    assert report.ok, report.violations


def test_multiplicativity_direct_random(ex55, ex52):
    rng = random.Random(12)
    for spec in (ex55, ex52):
        for _ in range(250):
            f = random_xy_poly(rng, 5)
            g = random_xy_poly(rng, 5)
            assert value(spec, f * g) == value(spec, f) + value(spec, g)


def test_triangle_direct_random(ex55):
    rng = random.Random(13)
    for _ in range(300):
        f = random_xy_poly(rng, 5)
        g = random_xy_poly(rng, 5)
        vf, vg = value(ex55, f), value(ex55, g)
        vs = value(ex55, f + g)
        assert vs >= min(vf, vg)
        if vf != vg:
            assert vs == min(vf, vg)


def _audit_pairs(spec, corpus, pair_budget, seed):
    """Replay check_axioms' pair draws: the equal-value pairs, and how many of
    the sums it values are zero (valued INF with no expansion)."""
    rng = random.Random(seed)
    equal = zero_sums = 0
    for _ in range(pair_budget):
        f, g = rng.choice(corpus), rng.choice(corpus)
        zero_sums += (f + g).is_zero()
        if value(spec, f) == value(spec, g):
            equal += 1
            lam = cancel_lambda(spec, f, g)
            zero_sums += sum((f + g.scale(s)).is_zero() for s in (lam, lam + 1, lam - 1))
    return equal, zero_sums


def test_check_axioms_reads_lambda_off_stored_lead_terms(ex52, monkeypatch):
    import lexval.valuation as valuation_mod

    corpus = _corpus(103, 30)
    assert _audit_pairs(ex52, corpus, 80, 103)[0] > 0
    expected = check_axioms(ex52, corpus, 80, seed=103)

    def refuse(*args):
        raise AssertionError("the audit expanded f and g again for lambda")

    monkeypatch.setattr(valuation_mod, "cancel_lambda", refuse)
    assert check_axioms(ex52, corpus, 80, seed=103) == expected


# Seed 107 draws one pair whose sum, valued INF, needs no expansion.
@pytest.mark.parametrize("seed, zero_sums", [(100, 0), (107, 1)])
def test_check_axioms_expands_each_question_once(ex52, monkeypatch, seed, zero_sums):
    # One expansion per corpus element, two per pair (f*g and f+g), three
    # per equal-value pair (lambda and lambda +- 1) and one per x-pair.
    corpus = _corpus(seed, 30)
    equal, zeros = _audit_pairs(ex52, corpus, 80, seed)
    assert equal > 0 and zeros == zero_sums
    calls = []
    division = Divisor.division

    def counted(self, nums):
        calls.append(nums)
        return division(self, nums)

    monkeypatch.setattr(Divisor, "division", counted)
    report = check_axioms(ex52, corpus, 80, seed=seed)
    assert report.ok
    expected = len(corpus) + 2 * report.pairs_checked + 3 * equal + report.x_pairs_checked
    assert len(calls) == expected - zero_sums


def test_check_axioms_keeps_no_expansion_of_its_corpus(ex52, monkeypatch):
    # Of each corpus element the audit keeps the value and the lead residue,
    # not the expansion, so its memory does not grow with corpus x expansion.
    import gc

    import lexval.valuation as valuation_mod

    corpus = _corpus(103, 30)

    def live_expansions():
        gc.collect()
        return sum(isinstance(o, WExpansion) for o in gc.get_objects())

    before = live_expansions()
    during = []

    cleared_value = valuation_mod._cleared_value

    def first_pair_value(spec, den, nums):
        # The first value call of the pair loop: every corpus lead term is built.
        if not during:
            during.append(live_expansions())
        return cleared_value(spec, den, nums)

    monkeypatch.setattr(valuation_mod, "_cleared_value", first_pair_value)
    assert check_axioms(ex52, corpus, 80, seed=103).ok
    assert during == [before]
