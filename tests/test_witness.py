"""Witness constructions: bounded builders, chain reduction, image sampling."""

import random

import pytest

from lexval import (
    INF,
    CorpusSpec,
    RatFunc,
    UniPoly,
    ValuePair,
    WitnessChain,
    YPoly,
    build_bounded_monic,
    class_witness,
    increasing_value_sequence,
    make_spec,
    parse_poly,
    quotient_census,
    reduce_past_chain,
    sample_image,
    structure_checks,
    value,
    witness_for_value,
    ypower_table,
)
from lexval.witness import _bounded_monic, _class_witnesses, _random_terms, denominator_clearer

from conftest import corrector, expand_by_division

A = ValuePair(-1, -1)


def test_build_bounded_monic_d0(ex55):
    f = build_bounded_monic(ex55, 0)
    assert f == parse_poly("1")
    assert value(ex55, f) == ValuePair(0, 0)


def test_build_bounded_monic_d1_exact(ex55):
    # hand execution of the corrector recursion: the top coefficient is 1,
    # the y-coefficient corrects -1/x (already proper, so 0), and the
    # constant corrects -x^3 to x^3
    assert build_bounded_monic(ex55, 1) == parse_poly("y^2 + x^3")


def test_build_bounded_monic_bound_and_shape(ex55, ex52):
    for spec in (ex55, ex52):
        bound = (spec.m * spec.n - spec.m - spec.n) * spec.alpha
        for d in range(7):
            f = build_bounded_monic(spec, d)
            assert f.deg_y == d * spec.m
            assert f.is_monic_in_y()
            assert all(c.is_polynomial() for c in f.terms.values())
            assert value(spec, f) >= bound


def test_witness_chain_validation(ex55):
    f0 = parse_poly("y^2 + x^3")
    chain = WitnessChain((f0,), (ValuePair(-1, -1),))
    assert chain.extended(f0, ValuePair(-1, 0)).values[-1] == ValuePair(-1, 0)
    with pytest.raises(ValueError):
        WitnessChain((f0, f0), (ValuePair(-1, -1), ValuePair(-1, 1)))
    with pytest.raises(ValueError):
        WitnessChain((), ())


def test_reduce_past_chain_first_step(ex55):
    f0 = parse_poly("y^2 + x^3")
    chain = WitnessChain((f0,), (value(ex55, f0),))
    raw = build_bounded_monic(ex55, 2)
    g, steps, v = reduce_past_chain(ex55, raw, chain)
    assert v == value(ex55, g)
    assert v > ValuePair(-1, -1)
    rebuilt = raw
    for idx, lam in steps:
        rebuilt = rebuilt + chain.polys[idx].scale(lam)
    assert rebuilt == g


def test_reduce_past_chain_noop_when_already_above(ex55):
    f0 = parse_poly("y^2 + x^3")
    chain = WitnessChain((f0,), (value(ex55, f0),))
    g, steps, v = reduce_past_chain(ex55, ex55.w, chain)  # value (0,1) > (-1,-1)
    assert v == value(ex55, g) == ValuePair(0, 1)
    assert steps == []
    assert g == ex55.w


def test_reduce_past_chain_span_lands_on_zero(ex55):
    # 2*f0 reduces by the unique scalar -2 straight to zero, whose value INF
    # still exceeds the chain end
    f0 = parse_poly("y^2 + x^3")
    chain = WitnessChain((f0,), (value(ex55, f0),))
    g, steps, v = reduce_past_chain(ex55, f0 + f0, chain)
    assert g.is_zero()
    assert v == value(ex55, g) == INF
    assert steps == [(0, -2)]


def test_reduce_past_chain_precondition(ex55):
    f0 = parse_poly("y^2 + x^3")
    chain = WitnessChain((f0,), (value(ex55, f0),))
    with pytest.raises(ValueError):
        reduce_past_chain(ex55, parse_poly("y^4"), chain)  # value (-12,-12)
    # The zero element has value INF, past every chain, and takes no step.
    g, steps, v = reduce_past_chain(ex55, YPoly.zero(), chain)
    assert g.is_zero() and steps == [] and v == value(ex55, g) == INF


def test_increasing_value_sequence_calls_public_reduce_past_chain(ex55, monkeypatch):
    # The sequence reduces through the module-level reduce_past_chain, so a
    # rebinding of that name (as by a tracer) sees every reduction.
    import lexval.witness as witness_mod

    results = []

    def counted(spec, f, chain):
        out = reduce_past_chain(spec, f, chain)
        results.append(out)
        return out

    monkeypatch.setattr(witness_mod, "reduce_past_chain", counted)
    seq = increasing_value_sequence(ex55, 5)
    monkeypatch.undo()
    assert len(results) == 5
    assert [(g, v) for g, _, v in results] == seq[1:]


def test_increasing_value_sequence_exact(ex55):
    seq = increasing_value_sequence(ex55, 5)
    for d, (f, v) in enumerate(seq):
        assert f.deg_y == 2 * (d + 1)
        assert v == ValuePair(-1, d - 1)
        assert all(c.is_polynomial() for c in f.terms.values())
    assert seq[0][0] == parse_poly("y^2 + x^3")


def test_increasing_value_sequence_values_each_element_once(ex55, monkeypatch):
    # The value of a reduced element is the last lead term of its reduction;
    # it is not expanded again.  The sequence itself is unchanged.
    import lexval.witness as witness_mod

    calls = {"expand": 0, "value": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # Question expansions are those over the spec's divisor; the shared y-power
    # table expands over a divisor of its own.
    monkeypatch.setattr(ex55.divisor, "expand", counted("expand", ex55.divisor.expand))
    monkeypatch.setattr(witness_mod, "value", counted("value", witness_mod.value))
    seq = increasing_value_sequence(ex55, 7)
    monkeypatch.undo()
    # f_0 is valued once.  The reductions for d = 1..4 take no step: one lead
    # term each, of the builder output, which is also the value.  Those for
    # d = 5..7 take one step: lead terms of the builder output, of the chain
    # element it cancels against, and of the result.  Valuing every result
    # again would make 7 more expansions.
    assert calls == {"expand": 1 + 4 * 1 + 3 * 3, "value": 1}
    for d, (f, v) in enumerate(seq):
        assert v == value(ex55, f) == ValuePair(-1, d - 1)
        assert f.deg_y == 2 * (d + 1)


def test_increasing_value_sequence_reduces_no_question_cell(ex55, monkeypatch):
    # The builder reads polynomial parts off the unreduced y-power cells and
    # the reductions take values and cancellation scalars off unreduced
    # expansions, so no driver reduces a cell or takes a RatFunc gcd.
    import lexval.ratfunc as ratfunc_mod
    from lexval.ypoly import WExpansion

    def refuse(*args):
        raise AssertionError("a witness driver reduced a fraction")

    monkeypatch.setattr(WExpansion, "cell", refuse)
    monkeypatch.setattr(ratfunc_mod, "_reduced", refuse)
    f4 = build_bounded_monic(ex55, 4)
    seq = increasing_value_sequence(ex55, 5)
    target = witness_for_value(ex55, 3, 2)
    monkeypatch.undo()
    assert f4.deg_y == 8 and all(c.is_polynomial() for c in f4.terms.values())
    assert [v for _, v in seq] == [ValuePair(-1, d - 1) for d in range(6)]
    assert value(ex55, target) == ValuePair(-3, -1)


def _bounded_monic_reference(w, dm, powers):
    """The corrector recursion over Q(x): coefficient t corrects the RatFunc
    sum of coeff_s times cell t of y^s, with powers[s] the expansion of y^s."""
    m = w.deg_y
    coeffs = {dm: UniPoly.one()}
    for t in range(dm - 1, -1, -1):
        i, j = divmod(t, m)
        acc = RatFunc.zero()
        for s in range(t + 1, dm + 1):
            acc = acc + RatFunc(coeffs[s]) * powers[s][i][j]
        coeffs[t] = corrector(acc)
    return YPoly({t: RatFunc(p) for t, p in coeffs.items()})


def test_bounded_monic_matches_corrector_reference(ex55, ex52):
    divisors = (
        ex55.w,
        ex52.w,
        parse_poly("y^2 + y/(x+1) + x^3"),
        parse_poly("y^2 + 2y/3 + x^3/2"),  # H is the constant 6
        parse_poly("y^3 + x*y/(2*x^2 + 2) + 3*x^2/2"),
    )
    for w in divisors:
        powers = [expand_by_division(YPoly.monomial(e), w) for e in range(9)]
        for dm in range(9):
            assert _bounded_monic(ypower_table(w, dm), dm) == _bounded_monic_reference(w, dm, powers)


def test_denominator_clearer(ex55, ex52):
    assert denominator_clearer(ex55.w) == parse_poly("x").as_ratfunc().num
    assert denominator_clearer(ex52.w) == parse_poly("1").as_ratfunc().num


def test_class_witness_examples(ex55):
    assert class_witness(ex55, 0, 0) == parse_poly("1")
    h = class_witness(ex55, 1, 0)
    assert h == parse_poly("x*y^2 + y + x^4")
    assert value(ex55, h) == ValuePair(-2, -1)
    assert value(ex55, class_witness(ex55, 2, 1)) == ValuePair(-7, -5)


def test_class_witness_value_law(ex55):
    for q in range(7):
        for r in range(2):
            h = class_witness(ex55, q, r)
            assert h.deg_y == 2 * q + r
            assert value(ex55, h) == r * ValuePair(-3, -3) + q * ValuePair(-2, -1)


def test_witness_for_value_window(ex55):
    for i in range(1, 5):
        for j in range(5):
            f = witness_for_value(ex55, i, j)
            assert value(ex55, f) == ValuePair(-i, j - i)


def test_witness_for_value_examples(ex55):
    assert witness_for_value(ex55, 1, 0) == parse_poly("y^2 + x^3")
    assert value(ex55, witness_for_value(ex55, 2, 0)) == ValuePair(-2, -2)
    assert value(ex55, witness_for_value(ex55, 3, 2)) == ValuePair(-3, -1)


def test_sample_image_ex55(ex55):
    report = sample_image(ex55, CorpusSpec(max_deg_x=5, max_deg_y=5, random_count=200, seed=9), "ex55")
    assert report.ok, report.violations[:3]
    assert ValuePair(0, 0) in report.attained
    assert report.class_count >= 1


def test_sample_image_trivial(ex55):
    report = sample_image(ex55, CorpusSpec(max_deg_x=0, max_deg_y=0, random_count=0, seed=0), "ex55")
    assert report.attained == frozenset({ValuePair(0, 0)})
    assert report.ok
    assert report.class_count == 1


def test_quotient_census_h_family(ex55, ex52):
    for spec in (ex55, ex52):
        for ell in range(7):
            assert quotient_census(spec, ell, family="h_family") == ell + 1


def test_quotient_census_corpus(ex55, ex52):
    assert quotient_census(ex52, 4, family="corpus", seed=1) == 5
    for spec in (ex55, ex52):
        for ell in range(5):
            assert quotient_census(spec, ell, family="corpus", seed=2) <= ell + 1


def test_census_items_match_class_witness(ex55, ex52):
    # The census builds its items from one running power of h*w; here each
    # is powered from scratch.
    for spec in (ex55, ex52):
        ell = 13
        hw = spec.w.scale(denominator_clearer(spec.w))
        expected = [YPoly.monomial(i % spec.m) * hw ** (i // spec.m) for i in range(ell + 1)]
        assert _class_witnesses(spec, ell) == expected
        assert [class_witness(spec, i // spec.m, i % spec.m) for i in range(ell + 1)] == expected
    assert _class_witnesses(ex55, 0) == [parse_poly("1")]


# Counts recorded when every census item was built by class_witness.
CENSUS_COUNTS = {ell: ell + 1 for ell in (0, 1, 2, 3, 5, 8, 13, 21)}


@pytest.mark.parametrize("family", ["h_family", "corpus"])
def test_quotient_census_counts_unchanged(ex55, ex52, family):
    for spec in (ex55, ex52):
        counts = {ell: quotient_census(spec, ell, family=family, seed=3) for ell in CENSUS_COUNTS}
        assert counts == CENSUS_COUNTS


def test_quotient_census_rejects(ex55):
    with pytest.raises(ValueError):
        quotient_census(ex55, -1)
    with pytest.raises(ValueError):
        quotient_census(ex55, 2, family="bogus")


def test_quotient_census_checks_family_before_building(ex55, monkeypatch):
    import lexval.witness as witness_mod

    def refuse(*args):
        raise AssertionError("census built witnesses for an unknown family")

    monkeypatch.setattr(witness_mod, "_class_witnesses", refuse)
    with pytest.raises(ValueError, match="unknown family"):
        quotient_census(ex55, 200, family="bogus")


def test_structure_checks_presets(ex55, ex52):
    corpus = CorpusSpec(max_deg_x=5, max_deg_y=5, random_count=120, seed=14)
    for spec in (ex55, ex52):
        report = structure_checks(spec, corpus)
        assert report.ok, report
        assert report.low_degree_checked > 0
        assert report.rational_checked == 120
        assert report.divisor_escapes
    assert structure_checks(ex55, corpus).divisor_value == ValuePair(0, 1)


def test_values_of_low_degree_elements_are_alpha_multiples(ex55):
    # spot check behind the aggregate report: y has value 3*alpha
    assert value(ex55, parse_poly("y")) == 3 * A


def test_sequence_beats_any_ceiling(ex55):
    # the attained values (-1, d-1) pass any candidate maximum of the form
    # (-1, c), so no largest element exists in the attained image
    seq = increasing_value_sequence(ex55, 8)
    values = [v for _, v in seq]
    assert values == sorted(values)
    assert len(set(values)) == len(values)
    assert values[-1] == ValuePair(-1, 7)


def _random_terms_reference(rng, exponents):
    """_random_terms through the validating UniPoly and RatFunc constructors."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        a, b = exponents()
        terms.setdefault(b, {})[a] = rng.choice((-3, -2, -1, 1, 2, 3))
    return YPoly({b: RatFunc(UniPoly([xs.get(e, 0) for e in range(max(xs) + 1)])) for b, xs in terms.items()})


def test_random_terms_match_validating_constructors():
    for seed in range(200):
        draws = []
        for build in (_random_terms, _random_terms_reference):
            rng = random.Random(seed)
            f = build(rng, lambda: (rng.randint(0, 5), rng.randint(0, 4)))
            draws.append((f, rng.random()))
        (f, after), (ref, ref_after) = draws
        assert f == ref and after == ref_after
        for e, c in f.terms.items():
            r = ref.terms[e]
            for p, q in ((c.num, r.num), (c.den, r.den)):
                assert (p.ints, p.denom) == (q.ints, q.denom)


def test_reduce_past_chain_steps_on_an_inner_chain_element(ex55):
    seq = increasing_value_sequence(ex55, 2)
    chain = WitnessChain(*zip(*seq))
    assert len(chain.polys) == 3
    g, steps, v = reduce_past_chain(ex55, chain.polys[1].scale(3), chain)
    assert steps == [(1, -3)]
    assert g.is_zero() and v == INF


def test_image_and_census_refuse_a_non_unimodular_basis_before_algebra(monkeypatch):
    import lexval.witness as witness_mod

    # A valid bundle whose basis has determinant 3.
    probe = make_spec(2, 3, parse_poly("y^2 + x^3"), ValuePair(-1, -1), ValuePair(1, -2))

    def refuse(*args):
        raise AssertionError("algebra started before the basis was checked")

    monkeypatch.setattr(witness_mod, "value", refuse)
    monkeypatch.setattr(witness_mod, "_class_witnesses", refuse)
    with pytest.raises(ValueError, match=r"not unimodular \(determinant 3\)"):
        sample_image(probe, CorpusSpec(random_count=5), "cone")
    for family in ("h_family", "corpus"):
        with pytest.raises(ValueError, match=r"not unimodular \(determinant 3\)"):
            quotient_census(probe, 3, family=family)
