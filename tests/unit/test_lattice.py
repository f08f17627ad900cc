"""The binade-lattice kernel against the literal repeated addition.

Every closed form in :mod:`repro.core.lattice` must equal the loop it
replaces bit for bit, or decline; the draws cover zero, subnormal and
power-of-two starts, the wire times and idle delays the simulator adds,
and steps built to be an odd multiple of one half ulp.
"""

from __future__ import annotations

from math import inf, ulp

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.lattice import Lattice, grid
from repro.core.units import cycles_to_ns, wire_time_ns


def _loop(t, d, n):
    for _ in range(n):
        t += d
    return t


def _loop_polls(p, d, bound, end):
    n = 0
    last = None
    while p < bound and p <= end:
        n += 1
        last = p
        p += d
    return n, last, p


_starts = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),  # subnormal
    # Up to 4.5 ms (1,024 of the longest steps) below or above 2**k ns.
    st.tuples(
        st.integers(min_value=10, max_value=40),
        st.floats(min_value=-1.0, max_value=1.0),
    ).map(lambda case: 2.0 ** case[0] + case[1] * min(2.0 ** (case[0] - 1), 4.5e6)),
    st.floats(min_value=1.0, max_value=2.0**40),
)

_steps = st.one_of(
    st.integers(min_value=64, max_value=1518).map(wire_time_ns),
    st.floats(min_value=80.0, max_value=11_000.0).map(lambda c: cycles_to_ns(c, 2.6e9)),
)


@st.composite
def _cases(draw):
    """``(t, d)``: a start and a step, a third of them a constructed tie
    (``d / ulp(t)`` an odd multiple of one half)."""
    t = draw(_starts)
    if t >= 2.2250738585072014e-308 and draw(st.integers(min_value=0, max_value=2)) == 0:
        u = ulp(t)
        m = draw(st.integers(min_value=1, max_value=1 << 24))
        return t, (m + 0.5) * u
    return t, draw(_steps)


@seed(20261019)
@settings(max_examples=600, deadline=None)
@given(case=_cases(), n=st.integers(min_value=0, max_value=1024))
def test_closed_form_matches_the_loop_or_declines(case, n):
    t, d = case
    expected = _loop(t, d, n)
    found = grid(t, d)
    if found is not None:
        u, m = found
        assert u == ulp(t) and m >= 1
        lattice = Lattice()
        assert lattice.fit(t, d)
        assert lattice.lo <= t < lattice.hi
        end = t + n * lattice.step
        if end < lattice.hi:
            assert end == expected
    ratio = d / ulp(t) if t > 0.0 else 0.0
    if ratio % 1.0 == 0.5:
        assert found is None  # a tie declines
    assert Lattice().add(t, d, n) == expected


@seed(20261019)
@settings(max_examples=600, deadline=None)
@given(
    case=_cases(),
    reach=st.integers(min_value=0, max_value=1024),
    slack=st.floats(min_value=0.0, max_value=1.0),
    end_reach=st.one_of(st.none(), st.integers(min_value=0, max_value=1024)),
)
def test_poll_count_matches_the_loop(case, reach, slack, end_reach):
    p, d = case
    # A bound between two polls or on one, past the binade top or not;
    # an end that binds first, last, or never.
    bound = _loop(p, d, reach) + slack * d
    end = inf if end_reach is None else _loop(p, d, end_reach)
    lattice = Lattice()
    assert lattice.polls(p, d, bound, end) == _loop_polls(p, d, bound, end)
    # A second call reads the lattice the first one left.
    assert lattice.polls(p, d, bound, end) == _loop_polls(p, d, bound, end)


def test_a_tie_declines():
    # ulp is 2**-32 in [2**20, 2**21): 30 + 2**-33 is 30 * 2**32 + 1/2 ulps.
    assert grid(2.0**20 + 5.0, 30 + 2.0**-33) is None
    assert grid(2.0**20 + 5.0, 30 + 2.0**-32) == (2.0**-32, 30 * 2**32 + 1)


def test_zero_subnormal_and_the_top_decline():
    d = wire_time_ns(64)
    assert grid(0.0, d) is None
    assert grid(1e-310, d) is None
    assert grid(2.0**20, 2.0**20) is None  # one addition reaches 2**21
    assert grid(2.0**20, d) is not None
    lattice = Lattice()
    assert not lattice.fit(0.0, d) and lattice.lo == inf
