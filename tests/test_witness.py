"""Witness constructions: bounded builders, chain reduction, image sampling."""

import hashlib
import random
from fractions import Fraction

import pytest

from lexval import (
    INF,
    CorpusSpec,
    RatFunc,
    UniPoly,
    ValuePair,
    YPoly,
    class_witness,
    increasing_value_sequence,
    make_spec,
    monoid_member,
    parse_poly,
    quotient_census,
    random_bounded_poly,
    random_rational_poly,
    random_unipoly,
    random_xy_poly,
    reduce_past_chain,
    sample_image,
    structure_checks,
    value,
    witness_for_value,
)
from lexval.presets import PRESETS
from lexval.witness import (
    _random_rational_rows,
    _random_rows,
    _seeded_corpus,
    denominator_clearer,
)
from lexval.ypoly import Divisor, WExpansion, _from_rows

from conftest import bounded_monic_reference, expand_by_division, product_reference

A = ValuePair(-1, -1)


def fresh_spec(name):
    """A preset's spec built anew, with an empty divisor store, unlike the
    session fixtures, whose stores earlier tests may have filled."""
    return make_spec(**PRESETS[name].bundle())


def test_build_bounded_monic_d0(ex55):
    f = ex55.divisor.bounded_monic(0).element()
    assert f == parse_poly("1")
    assert value(ex55, f) == ValuePair(0, 0)


def test_build_bounded_monic_d1_exact(ex55):
    # hand execution of the corrector recursion: the top coefficient is 1,
    # the y-coefficient corrects -1/x (already proper, so 0), and the
    # constant corrects -x^3 to x^3
    assert ex55.divisor.bounded_monic(ex55.m).element() == parse_poly("y^2 + x^3")


def test_build_bounded_monic_bound_and_shape(ex55, ex52):
    for spec in (ex55, ex52):
        bound = (spec.m * spec.n - spec.m - spec.n) * spec.alpha
        for d in range(7):
            f = spec.divisor.bounded_monic(d * spec.m).element()
            assert f.deg_y == d * spec.m
            assert f.is_monic_in_y()
            assert all(c.is_polynomial() for c in f.terms.values())
            assert value(spec, f) >= bound


def test_witness_chain_validation(ex55, monkeypatch):
    # A chain is a list of (f_k, value(f_k)) pairs with consecutive values,
    # such as a prefix of the sequence; reduce_past_chain refuses an empty or
    # non-consecutive one on entry, before it expands anything.
    f0 = parse_poly("y^2 + x^3")
    seq = increasing_value_sequence(ex55, 1)
    assert [v for _, v in seq] == [ValuePair(-1, -1), ValuePair(-1, 0)]
    assert reduce_past_chain(ex55, f0, seq) == (YPoly.zero(), [(0, -1)], INF)

    def refuse(f):
        raise AssertionError("a refused chain expanded its input")

    monkeypatch.setattr(ex55.divisor, "expand", refuse)
    with pytest.raises(ValueError, match=r"^chain values not consecutive: \(-1,-1\) then \(-1,1\)$"):
        reduce_past_chain(ex55, f0, [(f0, ValuePair(-1, -1)), (f0, ValuePair(-1, 1))])
    with pytest.raises(ValueError, match=r"^chain needs at least one \(f, value\) pair$"):
        reduce_past_chain(ex55, f0, [])


def test_reduce_past_chain_first_step(ex55):
    f0 = parse_poly("y^2 + x^3")
    chain = [(f0, value(ex55, f0))]
    raw = ex55.divisor.bounded_monic(2 * ex55.m).element()
    g, steps, v = reduce_past_chain(ex55, raw, chain)
    assert v == value(ex55, g)
    assert v > ValuePair(-1, -1)
    rebuilt = raw
    for idx, lam in steps:
        rebuilt = rebuilt + chain[idx][0].scale(lam)
    assert rebuilt == g


def test_reduce_past_chain_noop_when_already_above(ex55):
    f0 = parse_poly("y^2 + x^3")
    chain = [(f0, value(ex55, f0))]
    g, steps, v = reduce_past_chain(ex55, ex55.w, chain)  # value (0,1) > (-1,-1)
    assert v == value(ex55, g) == ValuePair(0, 1)
    assert steps == []
    assert g == ex55.w


def test_reduce_past_chain_span_lands_on_zero(ex55):
    # 2*f0 reduces by the unique scalar -2 straight to zero, whose value INF
    # still exceeds the chain end
    f0 = parse_poly("y^2 + x^3")
    chain = [(f0, value(ex55, f0))]
    g, steps, v = reduce_past_chain(ex55, f0 + f0, chain)
    assert g.is_zero()
    assert v == value(ex55, g) == INF
    assert steps == [(0, -2)]


def test_reduce_past_chain_precondition(ex55):
    f0 = parse_poly("y^2 + x^3")
    chain = [(f0, value(ex55, f0))]
    with pytest.raises(ValueError):
        reduce_past_chain(ex55, parse_poly("y^4"), chain)  # value (-12,-12)
    # The zero element has value INF, past every chain, and takes no step.
    g, steps, v = reduce_past_chain(ex55, YPoly.zero(), chain)
    assert g.is_zero() and steps == [] and v == value(ex55, g) == INF


def test_increasing_value_sequence_reduces_through_the_core(ex55, monkeypatch):
    # The sequence reduces each builder output through the lead-cancellation
    # loop that reduce_past_chain runs, and each result is what the public
    # function gives for that output and the chain before it.
    import lexval.witness as witness_mod

    results = []
    core = witness_mod._cancel_leads

    def counted(*args):
        out = core(*args)
        results.append(out)
        return out

    monkeypatch.setattr(witness_mod, "_cancel_leads", counted)
    seq = increasing_value_sequence(ex55, 5)
    monkeypatch.undo()
    assert len(results) == 5
    assert [(exp.element(), lead.value) for _, exp, lead in results] == seq[1:]
    for d in range(1, 6):
        g, _, v = reduce_past_chain(ex55, ex55.divisor.bounded_monic((d + 1) * ex55.m).element(), seq[:d])
        assert (g, v) == seq[d]


def test_reduce_past_chain_divides_only_the_chain_elements_it_uses(ex55, monkeypatch):
    # f and each chain element a step uses are divided once; the others
    # are never expanded.  Reducing the builder's d = 7 output past seq[:6]
    # takes one step, on chain element 1.
    seq = increasing_value_sequence(ex55, 5)
    f = ex55.divisor.bounded_monic(7 * ex55.m).element()
    divisor = ex55.divisor
    calls = []
    division = divisor.division

    def counted(nums):
        calls.append(nums)
        return division(nums)

    monkeypatch.setattr(divisor, "division", counted)
    g, steps, v = reduce_past_chain(ex55, f, seq)
    monkeypatch.undo()
    assert [idx for idx, _ in steps] == [1]
    assert len(calls) == 2
    assert v > seq[-1][1] and v == value(ex55, g)


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

    calls = {"division": 0, "value": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # Question divisions are those over the spec's divisor; the y-power grids
    # in its store are built by multiplying by y, with no division.
    monkeypatch.setattr(ex55.divisor, "division", counted("division", ex55.divisor.division))
    monkeypatch.setattr(witness_mod, "value", counted("value", witness_mod.value))
    seq = increasing_value_sequence(ex55, 7)
    monkeypatch.undo()
    # Every element is valued and reduced from the builder's expansion and
    # the expansions kept for the chain: no division by w and no value call.
    assert calls == {"division": 0, "value": 0}
    for d, (f, v) in enumerate(seq):
        assert v == value(ex55, f) == ValuePair(-1, d - 1)
        assert f.deg_y == 2 * (d + 1)


def test_increasing_value_sequence_reduces_no_question_cell(monkeypatch):
    # The builder reads polynomial parts off the unreduced y-power cells and
    # the reductions take values and cancellation scalars off unreduced
    # expansions, so no driver reduces a cell or takes a RatFunc gcd.  A
    # fresh spec's store is empty, so the builder runs under the spies.
    import lexval.ratfunc as ratfunc_mod

    ex55 = fresh_spec("ex55")

    def refuse(*args):
        raise AssertionError("a witness driver reduced a fraction or divided by w")

    monkeypatch.setattr(WExpansion, "cell", refuse)
    monkeypatch.setattr(ratfunc_mod, "_reduced", refuse)
    # The target's value is read off E(f_j) * E(f_0)^(i-1), not off a division.
    monkeypatch.setattr(Divisor, "division", refuse)
    f4 = ex55.divisor.bounded_monic(4 * ex55.m).element()
    seq = increasing_value_sequence(ex55, 5)
    target, v = witness_for_value(ex55, 3, 2)
    monkeypatch.undo()
    assert f4.deg_y == 8 and all(c.is_polynomial() for c in f4.terms.values())
    assert [v for _, v in seq] == [ValuePair(-1, d - 1) for d in range(6)]
    assert v == value(ex55, target) == ValuePair(-3, -1)


def test_witness_path_runs_no_ypoly_arithmetic(ex55, monkeypatch):
    # The sequence and the target carry each element as its expansion with
    # its cleared rows: no YPoly sum, scaling or product and no clearing
    # runs beside the grid operations, and a YPoly is built only from the
    # rows, at the end.
    import lexval.ypoly as ypoly_mod

    seq, target = increasing_value_sequence(ex55, 10), witness_for_value(ex55, 4, 3)

    def refuse(*args):
        raise AssertionError("YPoly arithmetic or clearing on the witness path")

    for name in ("__add__", "scale", "__mul__"):
        monkeypatch.setattr(YPoly, name, refuse)
    monkeypatch.setattr(ypoly_mod, "_clear_denominators", refuse)
    assert increasing_value_sequence(ex55, 10) == seq
    assert witness_for_value(ex55, 4, 3) == target
    monkeypatch.undo()
    assert target[1] == value(ex55, target[0]) == ValuePair(-4, -1)


def test_held_grid_scan_stops_at_the_row_bound(ex55):
    # E(f_1) * E(f_0)^59 holds 62 rows; with its rows known, the scan of the
    # held grid stops at the row bound and reads the same lead as a scan of
    # every row.
    from lexval.valuation import _lead
    from lexval.witness import _sequence

    (e0, _), (e1, _) = _sequence(ex55, 1)
    exp = e1
    for _ in range(59):
        exp = exp.times(e0)
    drawn = []

    def rows():
        for row in exp.grid:
            drawn.append(row)
            yield row

    lead = _lead(ex55, exp.den, exp.nums, rows())
    assert len(drawn) < len(exp.grid)
    whole = _lead(ex55, exp.den, None, exp.grid)
    assert (lead.i, lead.j, lead.value) == (whole.i, whole.j, whole.value)
    assert lead.value == ValuePair(-60, -59)


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
            assert Divisor(w).bounded_monic(dm).element() == bounded_monic_reference(w, dm, powers)


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
            f, v = witness_for_value(ex55, i, j)
            assert value(ex55, f) == v == ValuePair(-i, j - i)


def test_witness_for_value_examples(ex55):
    assert witness_for_value(ex55, 1, 0)[0] == parse_poly("y^2 + x^3")
    assert value(ex55, witness_for_value(ex55, 2, 0)[0]) == ValuePair(-2, -2)
    assert value(ex55, witness_for_value(ex55, 3, 2)[0]) == ValuePair(-3, -1)


# (value, sha256 of the printed witness) of `target`, recorded when the value
# was still found by dividing the witness by w.
TARGET_DIGESTS = {
    ("ex55", 1, 0): ("(-1,-1)", "58fed26b6a052b0d7d84c889cfa1ea1ec88879c73331dc2327a3decd78696154"),
    ("ex55", 1, 1): ("(-1,0)", "e9af136ceaa672940cf958105c63adcbee68dff199b53264245bd466cac488c7"),
    ("ex55", 1, 2): ("(-1,1)", "0efaad3e7eafcbfc120c206c956a8366678701f590536e769540da3e21189127"),
    ("ex55", 1, 3): ("(-1,2)", "6940674700dd773d9083ee2e7f2c075907247a27180e962b88b5aaab7b56f26c"),
    ("ex55", 1, 4): ("(-1,3)", "a2cd3335a7325de7c441de7b98a0ed793ce5f7412521f5e9c2158503cef605a0"),
    ("ex55", 1, 5): ("(-1,4)", "40749ab79ff64d40ff74271f3dfd9b0f519aa07e03a42d54ad78df3aa9cfc794"),
    ("ex55", 2, 0): ("(-2,-2)", "9720fc739eae7881442d2784800b9f18c3d7beed72c71257b2bd46b2eb3784d3"),
    ("ex55", 2, 1): ("(-2,-1)", "6a1e6e55bfc281b447f6e22ce5d2783c0113852033c8888f2cbbb9b54bc99cd6"),
    ("ex55", 2, 2): ("(-2,0)", "e7668c28dc17144ada2e001c042009d8ddcda6f76f34c3adb6d7b55a28354836"),
    ("ex55", 2, 3): ("(-2,1)", "44e86e94e29d23143b20804462da8e0d9fad126135b683227ced9e20161140f4"),
    ("ex55", 2, 4): ("(-2,2)", "abdcfdb64b42401f22f3527d7ea7bfe2824283049c82548e4bed0b1291d05f0d"),
    ("ex55", 2, 5): ("(-2,3)", "1507af9d52b932cd920fc4661c247b1954f973c1b57837fa367c2d3a4eba4e0e"),
    ("ex55", 3, 0): ("(-3,-3)", "9f6b0741214d017b96118d28e1392e64f8d16649df7f4d34aeff5ee68c2962e4"),
    ("ex55", 3, 1): ("(-3,-2)", "5249626542ea415576dab8bab02644f965eeec208c74f60c76604c2cb3379c0f"),
    ("ex55", 3, 2): ("(-3,-1)", "3a88d52d381f5c0a7cead269dd75435aa6ebc0e4e852cfdad664c7a9669bdad7"),
    ("ex55", 3, 3): ("(-3,0)", "e6c481fa42d618c855f13cbc3327808e1de1db417cdb7c402271bab49b5bfe04"),
    ("ex55", 3, 4): ("(-3,1)", "f9ee3b7d2a25ccd5795cd7b86516b3e8d7cd412feb233f9a9d5c70dd43155b66"),
    ("ex55", 3, 5): ("(-3,2)", "b5bebab50c33275fc919e3c8985789a9d0c13f8a6d8d13f537bc76a0d1888be4"),
    ("ex55", 4, 0): ("(-4,-4)", "cf62c5c3cbc5538f4faa047105329c434b70617445e51892aaeb8607ab0d51b8"),
    ("ex55", 4, 1): ("(-4,-3)", "158fa8d468ecb96789c50f9761723791511523bdf145aa6aceca7454ee261161"),
    ("ex55", 4, 2): ("(-4,-2)", "354adf73ace052c84a758d0eeb8b524ac161469b912cbe3e7b137ddbb622c3e9"),
    ("ex55", 4, 3): ("(-4,-1)", "39e6f3e170c0060881d9d44848d546b186077678961d427bee96764dcbe34f00"),
    ("ex55", 4, 4): ("(-4,0)", "1f147f503a2de08e86e49fae8911da6bd38a567cf87c28907c0d13880b01a0e3"),
    ("ex55", 4, 5): ("(-4,1)", "afaf56357a7b2e5c5c411a6dad628e1950a94dc242526aec06be30fb90e5338c"),
    ("ex55", 5, 0): ("(-5,-5)", "0edef7f36878ffde4ab2a63259304785adb428ed9f1b303e04f9d2b63012eccc"),
    ("ex55", 5, 1): ("(-5,-4)", "ce8a7f41fa03e753546ad8c534deceab533062c77618bb23fe2bda5d57b2e426"),
    ("ex55", 5, 2): ("(-5,-3)", "70b0d38a1205a249565694ab2555448c6695843fa8e362787cf361c1e5d55c0a"),
    ("ex55", 5, 3): ("(-5,-2)", "a0842971f66eb720f6108299748efbe6cfb7a8b0e1af1dd2653808d83f9738ff"),
    ("ex55", 5, 4): ("(-5,-1)", "a975d5f90a282a151704d9eaa416439f3ecea7839bbaa56875ab4e2723f3c1a3"),
    ("ex55", 5, 5): ("(-5,0)", "b8514532267dcd58fc7b80754759ef010018e4e2b9f05263bbba4281fb971bda"),
    ("ex52", 1, 0): ("(0,-1)", "58fed26b6a052b0d7d84c889cfa1ea1ec88879c73331dc2327a3decd78696154"),
    ("ex52", 2, 0): ("(0,-2)", "9720fc739eae7881442d2784800b9f18c3d7beed72c71257b2bd46b2eb3784d3"),
    ("ex52", 3, 0): ("(0,-3)", "9f6b0741214d017b96118d28e1392e64f8d16649df7f4d34aeff5ee68c2962e4"),
    ("ex52", 4, 0): ("(0,-4)", "cf62c5c3cbc5538f4faa047105329c434b70617445e51892aaeb8607ab0d51b8"),
    ("ex52", 5, 0): ("(0,-5)", "0edef7f36878ffde4ab2a63259304785adb428ed9f1b303e04f9d2b63012eccc"),
}


@pytest.mark.parametrize("name", ["ex55", "ex52"])
def test_target_outputs_are_pinned(name, request):
    spec = request.getfixturevalue(name)
    for (preset, i, j), pinned in TARGET_DIGESTS.items():
        if preset != name:
            continue
        f, v = witness_for_value(spec, i, j)
        assert (str(v), hashlib.sha256(str(f).encode()).hexdigest()) == pinned
        assert witness_for_value(spec, i, j) == (f, v) and value(spec, f) == v


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
    # class_witness against y^r * (h*w)^q written out here.
    for spec in (ex55, ex52):
        ell = 13
        hw = spec.w.scale(denominator_clearer(spec.w))
        expected = [YPoly.monomial(i % spec.m) * hw ** (i // spec.m) for i in range(ell + 1)]
        assert [class_witness(spec, i // spec.m, i % spec.m) for i in range(ell + 1)] == expected


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


def test_quotient_census_checks_family_before_building(monkeypatch):
    import lexval.witness as witness_mod

    def refuse(*args, **kwargs):
        raise AssertionError("census read a witness grid for an unknown family")

    spec = fresh_spec("ex55")
    monkeypatch.setattr(witness_mod, "_lead", refuse)
    monkeypatch.setattr(spec.divisor, "hpower", refuse)
    with pytest.raises(ValueError, match="unknown family"):
        quotient_census(spec, 200, family="bogus")


def test_census_divides_no_class_witness(monkeypatch):
    # The h_family census reads each witness's value off its one-cell grid;
    # the corpus family still divides its drawn rows by w.
    spec = fresh_spec("ex55")
    calls = []
    division = spec.divisor.division

    def counted(nums):
        calls.append(nums)
        return division(nums)

    monkeypatch.setattr(spec.divisor, "division", counted)
    assert quotient_census(spec, 40) == 41
    assert calls == []
    assert quotient_census(spec, 40, family="corpus") == 41
    assert calls


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
    """A sum of random terms through randint, choice and the validating
    UniPoly and RatFunc constructors: the draws the corpus generator makes."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        a, b = exponents()
        terms.setdefault(b, {})[a] = rng.choice((-3, -2, -1, 1, 2, 3))
    return YPoly({b: RatFunc(UniPoly([xs.get(e, 0) for e in range(max(xs) + 1)])) for b, xs in terms.items()})


def _unipoly_reference(rng, max_deg):
    deg = rng.randint(0, max_deg)
    return UniPoly([rng.randint(-3, 3) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))])


def _rational_reference(rng, dx, dy):
    """The element random_rational_poly drew before it drew rows: sample and
    randint for the exponents, then per term a numerator and a denominator,
    reduced by the validating RatFunc constructor."""
    terms = {}
    for b in rng.sample(range(dy + 1), rng.randint(1, min(3, dy + 1))):
        num = _unipoly_reference(rng, dx)
        terms[b] = RatFunc(num, _unipoly_reference(rng, 2))
    return YPoly(terms)


def _xy_reference(rng, d):
    def exponents():
        a = rng.randint(0, d)
        return a, rng.randint(0, d - a)

    return _random_terms_reference(rng, exponents)


def _bounded_reference(rng, dx, dy):
    return _random_terms_reference(rng, lambda: (rng.randint(0, dx), rng.randint(0, dy)))


def test_random_terms_match_validating_constructors():
    # The rows the generator draws build, through _from_rows, the canonical
    # coefficients that the validating constructors give.
    for seed in range(200):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        f, ref = _from_rows(*_random_rows(rng, 5, 4)), _bounded_reference(ref_rng, 5, 4)
        assert f == ref and rng.random() == ref_rng.random()
        for e, c in f.terms.items():
            r = ref.terms[e]
            for p, q in ((c.num, r.num), (c.den, r.den)):
                assert (p.ints, p.denom) == (q.ints, q.denom)


def test_random_polys_match_randint_draws():
    # The corpus generator draws with one getrandbits rejection loop per
    # draw; the stream must be that of randint and choice, state included.
    # The public draws and the rows behind them consume the same draws, and
    # rational elements and polynomials in x are drawn as sample, randint and
    # choice draw them.
    for seed in range(200):
        d, dx, dy = seed % 9, seed % 5, seed % 7
        cases = (
            (random_xy_poly, (d,), lambda rng: _random_rows(rng, d, d, total_degree=True), _xy_reference),
            (random_bounded_poly, (dx, dy), lambda rng: _random_rows(rng, dx, dy), _bounded_reference),
            (random_rational_poly, (dx, dy), lambda rng: _random_rational_rows(rng, dx, dy), _rational_reference),
        )
        for build, args, rows_of, reference in cases:
            rng, row_rng, ref_rng = random.Random(seed), random.Random(seed), random.Random(seed)
            f, rows, ref = build(rng, *args), rows_of(row_rng), reference(ref_rng, *args)
            assert f == ref == _from_rows(*rows)
            assert rng.getstate() == row_rng.getstate() == ref_rng.getstate()
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert random_unipoly(rng, d) == _unipoly_reference(ref_rng, d)
        assert rng.getstate() == ref_rng.getstate()


def test_seeded_corpus_rows_match_the_ypoly_corpus():
    # The corpus is the monomials x^a*y^b, a-major, then the random draws,
    # with either degree rule, and leaves the generator where they leave it.
    for seed in range(200):
        dx, dy, count = seed % 4, seed % 5, seed % 6
        for total_degree in (False, True):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            rows = _seeded_corpus(rng, dx, dy, count, total_degree)
            ref = [YPoly.monomial(b, UniPoly.monomial(a)) for a in range(dx + 1) for b in range(dy + 1)]
            for _ in range(count):
                if total_degree:
                    ref.append(_xy_reference(ref_rng, max(dx, dy)))
                else:
                    ref.append(_bounded_reference(ref_rng, dx, dy))
            assert [_from_rows(*r) for r in rows] == ref
            assert rng.getstate() == ref_rng.getstate()


def test_drawn_rows_value_as_their_ypolys(ex55, ex52):
    # The audits value the drawn rows; value of the YPoly built from the same
    # draw is the same, and so are the row product and f + lam*g, rational
    # coefficients included.
    from lexval.valuation import _cleared_value
    from lexval.ypoly import _clear_denominators, _rows_plus, _rows_times

    rng = random.Random(5)
    for spec in (ex55, ex52):
        rows = _seeded_corpus(rng, 3, 6, 40, total_degree=True)
        rows += [_clear_denominators(random_rational_poly(rng, 3, 5)) for _ in range(10)]
        polys = [_from_rows(*r) for r in rows]
        for r, f in zip(rows, polys):
            assert _cleared_value(spec, *r) == value(spec, f)
        for _ in range(60):
            a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
            prod, expected = _rows_times(rows[a], rows[b]), product_reference(polys[a], polys[b])
            assert _from_rows(*prod) == expected == polys[a] * polys[b]
            assert _cleared_value(spec, *prod) == value(spec, expected)
            for lam in (Fraction(1), Fraction(-1), Fraction(rng.choice((-3, 2)), rng.choice((1, 4))), Fraction(0)):
                combo = _rows_plus(rows[a], lam, rows[b])
                expected = polys[a] + polys[b].scale(lam)
                assert _from_rows(*combo) == expected
                assert _cleared_value(spec, *combo) == value(spec, expected)
            zero = _rows_plus(rows[a], Fraction(-1), rows[a])
            assert zero[1] == {} and _cleared_value(spec, *zero) == INF


# image --spec ex52 --mode ex55 --seed 3 --random-count 400 --max-deg-x 3
# --max-deg-y 3, recorded before the audits valued drawn rows: w's multiples
# have value beta = (0,-1), outside Z_{>0} alpha + Z_{>=0} beta.
IMAGE_VIOLATIONS = """\
mode = ex55
attained_count = 15
violation_count = 3
class_count = 3
minus_one_zero_attained = false
ok = false
violation: value=(0,-1) poly=-2*y^2 - 2*x^3
violation: value=(0,-1) poly=-3*y^2 - 3*x^3 - 2
violation: value=(0,-1) poly=-y^2 - x^3
"""
IMAGE_VIOLATIONS_JSON_SHA256 = "9d53b1f7d41193f050014a620ff9f3687ebe970d26dfcb8fab9ea4233d0a264c"


def test_image_violation_report_golden(capsys):
    import hashlib

    from lexval.cli import main

    argv = ["image", "--spec", "ex52", "--mode", "ex55", "--seed", "3", "--random-count", "400",
            "--max-deg-x", "3", "--max-deg-y", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == IMAGE_VIOLATIONS
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == IMAGE_VIOLATIONS_JSON_SHA256


def test_reduce_past_chain_steps_on_an_inner_chain_element(ex55):
    seq = increasing_value_sequence(ex55, 2)
    assert len(seq) == 3
    g, steps, v = reduce_past_chain(ex55, seq[1][0].scale(3), seq)
    assert steps == [(1, -3)]
    assert g.is_zero() and v == INF


def test_image_and_census_refuse_a_non_unimodular_basis_before_algebra(monkeypatch):
    import lexval.witness as witness_mod

    # A valid bundle whose basis has determinant 3.
    probe = make_spec(2, 3, parse_poly("y^2 + x^3"), ValuePair(-1, -1), ValuePair(1, -2))

    def refuse(*args, **kwargs):
        raise AssertionError("algebra started before the basis was checked")

    monkeypatch.setattr(witness_mod, "value", refuse)
    monkeypatch.setattr(witness_mod, "_cleared_value", refuse)
    monkeypatch.setattr(witness_mod, "_lead", refuse)
    with pytest.raises(ValueError, match=r"not unimodular \(determinant 3\)"):
        sample_image(probe, CorpusSpec(random_count=5), "cone")
    for family in ("h_family", "corpus"):
        with pytest.raises(ValueError, match=r"not unimodular \(determinant 3\)"):
            quotient_census(probe, 3, family=family)


def test_increasing_value_sequence_refuses_before_the_full_table(monkeypatch):
    # A valid bundle whose chain values are not consecutive: value(f_0) is
    # (1,-2) and value(f_1) is (2,-4).
    probe = make_spec(2, 3, parse_poly("y^2 + x^3"), ValuePair(-1, -1), ValuePair(1, -2))
    grown = []
    times_y = Divisor.times_y

    def recorded(self, grid):
        grown.append(len(self._ypow))  # the exponent of the power being built
        return times_y(self, grid)

    monkeypatch.setattr(Divisor, "times_y", recorded)
    with pytest.raises(ValueError, match=r"chain values not consecutive: \(1,-2\) then \(2,-4\)"):
        increasing_value_sequence(probe, 99)
    assert grown == list(range(1, 2 * probe.m + 1))
    assert max(probe.divisor._ypow) == 2 * probe.m


def test_witness_cli_refusals(tmp_path, capsys):
    from lexval.cli import main

    path = tmp_path / "probe.toml"
    path.write_text('name = "probe"\nm = 2\nn = 3\nw = "y^2 + x^3"\nalpha = [-1, -1]\nbeta = [1, -2]\n')
    assert main(["witness", "--spec", str(path), "--dmax", "99"]) == 1
    assert capsys.readouterr().err == "error: chain values not consecutive: (1,-2) then (2,-4)\n"
    assert main(["witness", "--spec", str(path), "--dmax", "0"]) == 0
    assert capsys.readouterr().out == "d=0 deg_y=2 value=(1,-2)\n"
    assert main(["witness", "--spec", "ex52", "--dmax", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: this bundle has no increasing value sequence: at d=1 the builder output has value (0,-2),"
        " below value(f_0) = (0,-1)\n"
    )


def test_reduce_past_chain_refuses_a_step_that_does_not_raise_the_value(ex55, monkeypatch):
    # A scalar of zero leaves the value where it was; the loop's check ends
    # the reduction at that first step.
    from lexval.valuation import LeadTerm

    calls = []

    def no_progress(self, other):
        calls.append(other)
        assert len(calls) < 1000, "reduction ran past a step that did not raise the value"
        return 0

    monkeypatch.setattr(LeadTerm, "cancel_scalar", no_progress)
    f0 = parse_poly("y^2 + x^3")
    chain = [(f0, value(ex55, f0))]
    with pytest.raises(RuntimeError, match="did not raise the value"):
        reduce_past_chain(ex55, f0, chain)
    assert len(calls) == 1


# The (index, lambda) steps of reduce_past_chain(ex55, builder output of
# degree 2(d+1), chain of seq[:d]) for d = 1..15, recorded when the
# reduction ran a loop of its own in the witness module.
_EX55_REDUCTION_STEPS = [
    [], [], [], [],
    [(0, 72)],
    [(1, 324)],
    [(2, 1056)],
    [(3, 2808)],
    [(4, 6480)],
    [(0, -1142208), (5, 13464)],
    [(1, -9839232), (6, Fraction(180576, 7))],
    [(2, -57566592), (7, 46332)],
    [(3, -260705088), (8, 78936)],
    [(4, -980683200), (9, 128700)],
    [(0, 271337361408), (5, -3200408064), (10, 202176)],
]


def test_reduce_past_chain_step_lists_are_unchanged(ex55):
    seq = increasing_value_sequence(ex55, 15)
    for d, want in enumerate(_EX55_REDUCTION_STEPS, start=1):
        _, steps, _ = reduce_past_chain(ex55, ex55.divisor.bounded_monic((d + 1) * ex55.m).element(), seq[:d])
        assert steps == want, d
        assert all(isinstance(lam, Fraction) for _, lam in steps)


def test_structure_checks_records_violations(ex55, monkeypatch):
    # -beta lies in neither Z_{>=0} alpha nor Z alpha + Z_{>=0} beta.
    import lexval.witness as witness_mod

    monkeypatch.setattr(witness_mod, "value", lambda spec, f: -spec.beta)
    monkeypatch.setattr(witness_mod, "_cleared_value", lambda spec, den, nums: -spec.beta)
    report = structure_checks(ex55, CorpusSpec(max_deg_x=2, max_deg_y=2, random_count=5, seed=1))
    assert not report.ok
    assert len(report.low_degree_violations) == report.low_degree_checked > 0
    assert len(report.rational_violations) == report.rational_checked == 5
    assert report.divisor_escapes


def test_structure_reports_the_drawn_rational_elements(ex55, ex52, monkeypatch):
    # With every value forced outside the image, the rational violations are
    # the elements random_rational_poly drew before it drew rows, in order,
    # after the low-degree corpus's draws.
    import lexval.witness as witness_mod

    monkeypatch.setattr(witness_mod, "value", lambda spec, f: -spec.beta)
    monkeypatch.setattr(witness_mod, "_cleared_value", lambda spec, den, nums: -spec.beta)
    for spec in (ex55, ex52):
        for seed in range(8):
            report = structure_checks(spec, CorpusSpec(max_deg_x=3, max_deg_y=6, random_count=10, seed=seed))
            rng = random.Random(seed)
            for _ in range(10):
                _bounded_reference(rng, 3, spec.m - 1)
            expected = [_rational_reference(rng, 3, 6) for _ in range(10)]
            assert [f for f, _ in report.rational_violations] == expected
            assert {v for _, v in report.rational_violations} == {-spec.beta}


def test_builder_expansion_matches_division(ex55, ex52):
    # The builder's remainders are the cells of its output: the same rows
    # and reduced cells as division gives, over one integer den.
    for spec in (ex55, ex52):
        divisor = Divisor(spec.w)
        for d in range(9):
            exp = divisor.bounded_monic(d * spec.m)
            f = exp.element()
            assert f == spec.divisor.bounded_monic(d * spec.m).element()
            assert len(exp.den) == 1
            rows = expand_by_division(f, spec.w)
            assert len(exp.grid) == len(rows)
            assert exp.rows == rows


def test_reduce_past_chain_of_its_own_chain_element_lands_on_zero(ex55, ex52):
    # f against the chain (f,) takes the step lambda = -1; E(f) - E(f) is the
    # zero grid, whose value is INF.
    rng = random.Random(3)
    for spec in (ex55, ex52):
        for f in [random_rational_poly(rng, 3, 6) for _ in range(5)] + [spec.w]:
            chain = [(f, value(spec, f))]
            g, steps, v = reduce_past_chain(spec, f, chain)
            assert g.is_zero() and steps == [(0, -1)] and v == INF


def test_witness_ex52_refusal_past_the_first_element(capsys):
    from lexval.cli import main

    assert main(["witness", "--spec", "ex52", "--dmax", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: this bundle has no increasing value sequence: at d=1 the builder output has value (0,-2),"
        " below value(f_0) = (0,-1)\n"
    )
    assert main(["target", "--spec", "ex52", "--i", "1", "--j", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "this bundle has no increasing value sequence: at d=1" in captured.err


def test_reduce_past_chain_keeps_its_own_refusal(ex52):
    # The chain reduction names the chain it was given; only
    # increasing_value_sequence turns that into the bundle having no
    # increasing sequence.
    f0, f1 = ex52.divisor.bounded_monic(ex52.m).element(), ex52.divisor.bounded_monic(2 * ex52.m).element()
    chain = [(f0, value(ex52, f0))]
    with pytest.raises(ValueError) as err:
        reduce_past_chain(ex52, f1, chain)
    assert str(err.value) == "value (0,-2) of input is below the chain start (0,-1)"


def test_sample_image_checks_its_mode_before_algebra(ex55, monkeypatch):
    import lexval.witness as witness_mod

    def refuse(*args):
        raise AssertionError("algebra started before the mode was checked")

    monkeypatch.setattr(witness_mod, "value", refuse)
    monkeypatch.setattr(witness_mod, "_cleared_value", refuse)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        sample_image(ex55, CorpusSpec(random_count=5), "bogus")


def test_sample_image_tests_membership_without_rechecking_the_basis(ex55, ex52, monkeypatch):
    # The basis and the mode are checked once per call; each value takes one
    # decompose and the membership rule that monoid_member also applies.
    import lexval.valgroup as valgroup_mod

    calls = []
    commensurable = valgroup_mod.commensurable

    def counted(*args):
        calls.append(args)
        return commensurable(*args)

    for spec, mode in ((ex55, "ex55"), (ex52, "cone")):
        corpus_spec = CorpusSpec(max_deg_x=3, max_deg_y=5, random_count=40, seed=2)
        monkeypatch.setattr(valgroup_mod, "commensurable", counted)
        report = sample_image(spec, corpus_spec, mode)
        monkeypatch.undo()
        assert calls == []
        assert {v for _, v in report.violations} == {
            v for v in report.attained if not monoid_member(v, spec.alpha, spec.beta, mode)
        }


# The commands of the witness_ex55 bench workload: witness --dmax 5, and
# target for i in 1..4 with j in 0..2 and for i in 1..3 with j in 3..4.
WITNESS_EX55_COMMANDS = [["witness", "--dmax", "5"]] + [
    ["target", "--i", str(i), "--j", str(j)]
    for i, js in ((1, range(5)), (2, range(5)), (3, range(5)), (4, range(3)))
    for j in js
]


def test_a_warm_store_prints_what_a_cold_store_prints(capsys):
    # By preset name every command reads one spec, whose divisor's store
    # warms on the first; by file path load_spec builds a fresh spec, so
    # every command starts from an empty store.
    from lexval import bundled_config_path
    from lexval.cli import main

    def run(source):
        outs = []
        for argv in WITNESS_EX55_COMMANDS:
            for extra in ([], ["--json"]):
                assert main([argv[0], "--spec", source, *extra, *argv[1:]]) == 0
                outs.append(capsys.readouterr().out)
        return outs

    warm = run("ex55")
    assert run("ex55") == warm
    assert run(str(bundled_config_path("ex55"))) == warm
    assert warm[0].splitlines()[-1] == "d=5 deg_y=12 value=(-1,4)"


# Degrees asked in an order that grows and shrinks, with repeats.
SHUFFLED_DEGREES = (2, 0, 4, 1, 4, 3, 0, 2)


def test_bounded_monic_in_any_order_matches_the_reference():
    for name in ("ex55", "ex52"):
        spec = fresh_spec(name)
        powers = [expand_by_division(YPoly.monomial(e), spec.w) for e in range(4 * spec.m + 1)]
        for d in SHUFFLED_DEGREES:
            assert spec.divisor.bounded_monic(d * spec.m).element() == bounded_monic_reference(spec.w, d * spec.m, powers)


def test_increasing_value_sequence_grows_the_store_as_it_builds():
    # On a fresh spec the builder of f_d leaves the y-power store at
    # y^((d+1)m) exactly: each element grows it only as far as it needs.
    spec = fresh_spec("ex55")
    divisor, tops = spec.divisor, []
    build = divisor._bounded_monic

    def recorded(dm):
        out = build(dm)
        tops.append((dm, max(divisor._ypow)))
        return out

    divisor._bounded_monic = recorded
    increasing_value_sequence(spec, 5)
    assert tops == [((d + 1) * spec.m, (d + 1) * spec.m) for d in range(6)]


def test_the_divisor_store_is_shared_and_never_changed(monkeypatch):
    import copy

    # A fresh spec, so that other tests cannot have warmed its store.
    spec = fresh_spec("ex55")
    divisor = spec.divisor
    seq = increasing_value_sequence(spec, 5)
    ypow = copy.deepcopy(divisor._ypow)
    monic = {dm: (exp, copy.deepcopy((exp.grid, exp.den, exp.nums))) for dm, exp in divisor._monic.items()}
    assert sorted(monic) == [(d + 1) * spec.m for d in range(6)]

    calls = {"times_y": 0, "build": 0, "division": 0, "cell": 0}
    times_y, build, division, cell = Divisor.times_y, Divisor._bounded_monic, Divisor.division, WExpansion.cell

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(Divisor, "times_y", counted("times_y", times_y))
    monkeypatch.setattr(Divisor, "_bounded_monic", counted("build", build))
    monkeypatch.setattr(Divisor, "division", counted("division", division))
    monkeypatch.setattr(WExpansion, "cell", counted("cell", cell))
    targets = {(i, j): witness_for_value(spec, i, j) for i in range(1, 5) for j in range(6)}
    assert calls == {"times_y": 0, "build": 0, "division": 0, "cell": 0}
    monkeypatch.undo()

    # The target path's values against division, and reductions of stored
    # outputs and of a fresh one past chains of stored outputs.
    for (i, j), (f, v) in targets.items():
        assert v == value(spec, f) == ValuePair(-i, j - i)
    assert increasing_value_sequence(spec, 5) == seq
    for d in range(1, 8):
        g, _, v = reduce_past_chain(spec, spec.divisor.bounded_monic(d * spec.m).element(), seq)
        assert v == value(spec, g)
    assert divisor._ypow.keys() >= ypow.keys()
    assert {e: divisor._ypow[e] for e in ypow} == ypow
    for dm, (exp, lists) in monic.items():
        stored = divisor._monic[dm]
        assert stored is exp and (exp.grid, exp.den, exp.nums) == lists
