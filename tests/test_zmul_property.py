"""Products and divisions in Z[x], on lists with low zero runs."""

from itertools import zip_longest

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lexval.ratfunc import _zdivmod, _zmul  # noqa: E402


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


# Nonzero coefficient lists without trailing zeros: a run of low zeros, a
# body that may hold more zeros, and a nonzero top entry.  An empty body
# gives a monomial, and with top entry 1 a pure power of x.
ZLISTS = st.builds(
    lambda s, body, top: [0] * s + body + [top],
    st.integers(0, 6),
    st.lists(st.integers(-9, 9), max_size=6),
    st.integers(-9, 9).filter(bool),
)


@given(ZLISTS, st.one_of(ZLISTS, ZLISTS.map(tuple)))
@example([3, 0, -1], [0, 0, 0, 1])
@example([0, 2], [0, 0, 0, -1])
@example([5], [0, 0, 0, 0, 0, 0, 1])
def test_zmul_matches_schoolbook(a, b):
    assert _zmul(a, b) == _schoolbook(a, b)


def _strip(c):
    while c and not c[-1]:
        c.pop()
    return c


@settings(derandomize=True)
@given(st.one_of(st.just([]), ZLISTS), ZLISTS, ZLISTS)
@example(a=[1], b=[-2], q=[1])
@example(a=[0, 4, 0, 6], b=[0, 0, -3], q=[5, 0, -1])
def test_zdivmod_contract(a, b, q):
    quo, rem, s = _zdivmod(a, b)
    assert s >= 1
    qb = _zmul(quo, b) if quo else []
    assert _strip([x + y for x, y in zip_longest(qb, rem, fillvalue=0)]) == [c * s for c in a]
    assert len(rem) < len(b)
    assert quo[-1:] != [0] and rem[-1:] != [0]
    # A multiple of b divides exactly, with no scaling step.
    assert _zdivmod(_zmul(q, b), b) == (q, [], 1)
