"""Products in Z[x] against the schoolbook reference, on lists with low zero runs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lexval.ratfunc import _zmul  # noqa: E402


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
