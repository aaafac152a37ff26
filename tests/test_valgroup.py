"""Lexicographic order on Z+Z, lattice predicates, and quotient classes."""

import random

import pytest

from lexval import (
    INF,
    QuotClass,
    ValuePair,
    commensurable,
    decompose,
    is_indivisible,
    monoid_member,
    quotient_class,
)

ALPHA = ValuePair(-1, -1)
BETA = ValuePair(0, 1)


def test_lex_cmp_examples():
    assert ValuePair(0, 1) > ValuePair(-6, -6)
    assert ValuePair(-1, 0) > ValuePair(-1, -1)
    assert INF > ValuePair(100, 100)
    assert ValuePair(2, 3) == ValuePair(2, 3)
    assert ValuePair(-1, 5) < ValuePair(0, -9)


def test_infinity_is_maximum():
    assert INF == INF
    assert not INF < INF
    assert INF > ValuePair(10**9, -(10**9))
    assert ValuePair(0, 0) < INF
    assert INF + ValuePair(1, 1) == INF
    assert ValuePair(1, 1) + INF == INF
    assert INF + INF == INF
    u = ValuePair(-3, 7)
    assert (u < INF, u <= INF, u > INF, u >= INF) == (True, True, False, False)
    assert (INF < u, INF <= u, INF > u, INF >= u) == (False, False, True, True)
    mixed = [INF, ValuePair(2, -1), u, INF, ValuePair(-3, 6)]
    assert min(mixed) == ValuePair(-3, 6)
    assert max(mixed) == INF
    assert max(mixed[1:3]) == ValuePair(2, -1)
    assert sorted(mixed) == [ValuePair(-3, 6), u, ValuePair(2, -1), INF, INF]
    with pytest.raises(TypeError):
        ValuePair(0, 0) < 0


def test_pair_minus_a_non_pair_is_a_type_error():
    # value(spec, f) - value(spec, 0) is a pair minus INF: a TypeError that
    # names both operands, not an AttributeError from reading INF.a.
    with pytest.raises(TypeError, match="'ValuePair' and 'Infinity'"):
        ValuePair(-1, 2) - INF
    with pytest.raises(TypeError, match="'ValuePair' and 'int'"):
        ValuePair(-1, 2) - 0
    assert ValuePair(-1, 2) - ValuePair(3, -5) == ValuePair(-4, 7)


def test_foreign_operands_are_type_errors():
    # A float or a string times a pair is no lattice value, and INF absorbs
    # and outranks only values.
    for op in (
        lambda: 1.5 * ValuePair(1, 1),
        lambda: "ab" * ValuePair(1, 2),
        lambda: INF + "x",
        lambda: "x" + INF,
        lambda: INF > "abc",
        lambda: INF < 0,
    ):
        with pytest.raises(TypeError):
            op()
    pair = ValuePair(1, -2)
    assert pair + INF is INF and INF + pair is INF and INF + INF is INF
    assert pair < INF and INF > pair and not INF < INF and INF <= INF
    assert 3 * pair == ValuePair(3, -6)


def test_pair_arithmetic():
    assert ValuePair(1, 2) + ValuePair(3, -5) == ValuePair(4, -3)
    assert 3 * ValuePair(-1, 2) == ValuePair(-3, 6)
    assert -ValuePair(1, -1) == ValuePair(-1, 1)
    assert str(ValuePair(-1, 0)) == "(-1,0)"
    assert str(INF) == "inf"


def test_lex_total_order_random():
    rng = random.Random(3)
    pairs = [ValuePair(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(300)]
    for _ in range(10_000):
        u, v = rng.choice(pairs), rng.choice(pairs)
        # exactly one of <, ==, > holds, and swapping the operands mirrors it
        assert [u < v, u == v, u > v].count(True) == 1
        assert (u < v, u == v, u > v) == (v > u, v == u, v < u)
        assert (u == v) == ((u.a, u.b) == (v.a, v.b))
    for _ in range(3000):
        u, v, t = rng.choice(pairs), rng.choice(pairs), rng.choice(pairs)
        if u <= v <= t:
            assert u <= t


def test_order_translation_invariant():
    rng = random.Random(4)
    for _ in range(2000):
        u = ValuePair(rng.randint(-30, 30), rng.randint(-30, 30))
        v = ValuePair(rng.randint(-30, 30), rng.randint(-30, 30))
        t = ValuePair(rng.randint(-30, 30), rng.randint(-30, 30))
        if u < v:
            assert u + t < v + t


def test_indivisible_examples():
    assert is_indivisible(ValuePair(-1, -1))
    assert not is_indivisible(ValuePair(-2, -2))
    assert is_indivisible(ValuePair(0, 1))
    assert not is_indivisible(ValuePair(0, 2))
    assert not is_indivisible(ValuePair(4, 6))
    with pytest.raises(ValueError):
        is_indivisible(ValuePair(0, 0))


def test_commensurable_examples():
    assert not commensurable(ValuePair(-1, -1), ValuePair(0, 1))
    assert commensurable(ValuePair(2, 2), ValuePair(-1, -1))
    assert commensurable(ValuePair(-2, -2), ValuePair(-3, -3))
    with pytest.raises(ValueError):
        commensurable(ValuePair(0, 0), ValuePair(1, 1))


def test_decompose_solves_exactly():
    rng = random.Random(5)
    for _ in range(500):
        s = rng.randint(-12, 12)
        t = rng.randint(-12, 12)
        gamma = s * ALPHA + t * BETA
        assert decompose(gamma, ALPHA, BETA) == (s, t)


def test_decompose_rejects_dependent_basis():
    with pytest.raises(ValueError):
        decompose(ValuePair(1, 1), ValuePair(1, 1), ValuePair(-2, -2))


def test_decompose_non_unimodular_lattice_gaps():
    # basis (2,0), (0,1) spans only even first coordinates
    a, b = ValuePair(2, 0), ValuePair(0, 1)
    assert decompose(ValuePair(4, 3), a, b) == (2, 3)
    assert decompose(ValuePair(3, 0), a, b) is None


def test_quotient_class_examples():
    assert quotient_class(ValuePair(-2, -1), 2, ALPHA, BETA) == QuotClass(0, 1)
    assert quotient_class(ValuePair(0, 0), 2, ALPHA, BETA) == QuotClass(0, 0)
    assert quotient_class(ValuePair(-3, -3), 2, ALPHA, BETA) == QuotClass(1, 0)


def test_quotient_class_requires_unimodular_basis():
    with pytest.raises(ValueError):
        quotient_class(ValuePair(1, 1), 2, ValuePair(2, 0), ValuePair(0, 1))


def test_quotient_class_respects_equivalence():
    rng = random.Random(6)
    m = 2
    m_alpha = m * ALPHA
    for _ in range(300):
        gamma = ValuePair(rng.randint(-15, 15), rng.randint(-15, 15))
        base = quotient_class(gamma, m, ALPHA, BETA)
        for k in range(-10, 11):
            assert quotient_class(gamma + k * m_alpha, m, ALPHA, BETA) == base


def test_pair_condition_matches_subgroup_condition():
    # equivalence behind the class definition: for the monoid M of
    # nonnegative multiples of m*alpha inside the group, "m1 + n1 = m2 + n2
    # for some m1, m2 in M" holds exactly when n1 - n2 is an integer
    # multiple of m*alpha
    rng = random.Random(8)
    m_alpha = 2 * ALPHA
    multiples = [k * m_alpha for k in range(0, 25)]
    for _ in range(400):
        n1 = ValuePair(rng.randint(-8, 8), rng.randint(-8, 8))
        n2 = ValuePair(rng.randint(-8, 8), rng.randint(-8, 8))
        pair_cond = any(m1 + n1 == m2 + n2 for m1 in multiples for m2 in multiples)
        diff = n1 - n2
        subgroup_cond = diff.b == diff.a and diff.a % 2 == 0
        assert pair_cond == subgroup_cond
        same_class = quotient_class(n1, 2, ALPHA, BETA) == quotient_class(n2, 2, ALPHA, BETA)
        assert same_class == subgroup_cond


def test_quotient_class_distinct_in_fundamental_window():
    seen = {}
    for s in range(2):
        for t in range(-3, 4):
            gamma = s * ALPHA + t * BETA
            cls = quotient_class(gamma, 2, ALPHA, BETA)
            assert cls not in seen, f"classes collide for {seen.get(cls)} and {(s, t)}"
            seen[cls] = (s, t)


@pytest.mark.parametrize(
    "gamma,mode,expected",
    [
        (ValuePair(-3, -1), "ex55", True),
        (ValuePair(0, 0), "ex55", True),
        (ValuePair(0, 0), "cone", True),
        (ValuePair(0, 1), "ex55", False),  # needs s >= 1 unless zero
        (ValuePair(-1, -1), "ex55", True),
        (ValuePair(1, 1), "ex55", False),
    ],
)
def test_monoid_member_ex55_examples(gamma, mode, expected):
    assert monoid_member(gamma, ALPHA, BETA, mode) is expected


def test_monoid_member_cone_example_52():
    beta52 = ValuePair(0, -1)
    assert monoid_member(ValuePair(-1, 0), ALPHA, beta52, "cone") is False
    assert monoid_member(ValuePair(0, 0), ALPHA, beta52, "cone") is True
    assert monoid_member(ValuePair(-2, -3), ALPHA, beta52, "cone") is True


def test_monoid_member_rejects_commensurable_basis():
    with pytest.raises(ValueError):
        monoid_member(ValuePair(0, 0), ALPHA, ValuePair(2, 2), "cone")
    with pytest.raises(ValueError):
        monoid_member(ValuePair(0, 0), ALPHA, BETA, "bogus")


def test_monoid_member_against_brute_force():
    box = 12
    for beta, mode in ((BETA, "ex55"), (ValuePair(0, -1), "cone")):
        reachable = set()
        for i in range(0, 64):
            for j in range(0, 64):
                if mode == "ex55" and i == 0 and j > 0:
                    continue
                v = i * ALPHA + j * beta
                if abs(v.a) <= box and abs(v.b) <= box:
                    reachable.add(v)
        for a in range(-box, box + 1):
            for b in range(-box, box + 1):
                gamma = ValuePair(a, b)
                assert monoid_member(gamma, ALPHA, beta, mode) == (gamma in reachable), (
                    gamma,
                    mode,
                )
