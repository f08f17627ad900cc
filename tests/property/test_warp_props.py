"""Property-based tests for the chain turbo's lattice advance.

The turbo's closed-form multi-chain advance either declines (leaving the
chain rows untouched) or returns exactly what the k-way ``(time, seq)``
merge returns and leaves the same rows, across lock-step groups and
independent poll grids, bounds at chain heads, deadlines at or below
heads, ``t_end`` cuts on polls, heads just below a power of two,
half-ulp delays and the table's common case (every deadline and
``t_end`` at or past the bound); it decides every span whose polls stay
inside one binade, and takes its closed-form common case where it
applies.  Sampled with pinned hypothesis seeds so CI failures reproduce.

Every tier's end-to-end exactness -- replay, turbo, fluid and the
between-fault segments of resilience runs -- is the differential
oracle's (``tools/oracle.py``, ``tests/property/test_oracle.py``).
"""

from __future__ import annotations

import inspect
import sys
from math import inf, nextafter

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.turbo import _advance, _lattice_advance, _merge_advance


#: Idle re-arm delays: 30.77 ns is every default 2.6 GHz poll loop,
#: 4230.77 ns Snabb's idle breath; the others are off that grid.
_DELAYS = (30.76923076923077, 4230.7692307692305, 16.0, 33.333333333333336)


def _poll_after(t, delay, steps):
    """A chain's poll ``steps`` re-arms after ``t`` (repeated addition)."""
    for _ in range(steps):
        t += delay
    return t


#: An odd multiple of one half ulp for heads in ``[2**20, 2**21)``
#: (ulp ``2**-32``): ties-to-even makes its step depend on each poll's
#: parity, so the lattice must decline it.
_HALF_ULP_DELAY = 30 + 2.0 ** -33


def _grid_rows(draw, n, origin, delay, layout, seqs):
    """``n`` chain rows starting near ``origin``.

    ``grid``: every chain on one poll grid, a few re-arms apart;
    ``groups``: lock-step groups of 2-4 chains, each group on its own
    grid; ``free``: independent heads and delays.
    """
    rows = []
    while len(rows) < n:
        if layout == "free":
            delay_i = draw(st.sampled_from(_DELAYS))
            t = origin + draw(st.floats(min_value=0.0, max_value=2 * delay_i))
            rows.append([t, seqs[len(rows)], None, None, delay_i, 0, inf])
            continue
        if layout == "grid":
            size, start = n, origin
        else:
            size = min(draw(st.integers(min_value=2, max_value=4)), n - len(rows))
            start = origin + draw(st.floats(min_value=0.0, max_value=2 * delay))
        for _ in range(size):
            t = _poll_after(start, delay, draw(st.integers(0, 3)))
            rows.append([t, seqs[len(rows)], None, None, delay, 0, inf])
    return rows


def _even_seqs(draw, n):
    """Distinct even heap seqs, leaving an odd seq on either side of each."""
    values = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True))
    return [2 * value for value in values]


@st.composite
def _common_spans(draw):
    """Spans of the table's common case: one delay, every deadline and
    ``t_end`` at or past the bound, no head on it, and the bound inside
    the earliest head's binade (rows past the bound included)."""
    n = draw(st.integers(min_value=2, max_value=6))
    delay = draw(st.sampled_from(_DELAYS))
    low = 2.0 ** draw(st.integers(min_value=19, max_value=50))
    origin = draw(st.floats(min_value=low, max_value=2 * low - 80 * delay))
    layout = draw(st.sampled_from(("grid", "groups")))
    seqs = _even_seqs(draw, n)
    rows = _grid_rows(draw, n, origin, delay, layout, seqs)
    heads = {row[0] for row in rows}
    t_lo = min(heads)
    if draw(st.booleans()):
        # On a poll of one of the chains: a later poll lands on the bound.
        row = draw(st.sampled_from(rows))
        bound_t = _poll_after(row[0], delay, draw(st.integers(1, 60)))
    else:
        bound_t = t_lo + draw(st.floats(min_value=0.0, max_value=60 * delay))
    while bound_t in heads:
        bound_t = nextafter(bound_t, inf)
    for row in rows:
        # At or past the bound, and above the row's own head (a table row
        # whose head reaches its deadline has left).
        floor = max(bound_t, nextafter(row[0], inf))
        row[6] = draw(st.one_of(
            st.just(inf), st.just(floor),
            st.floats(min_value=floor, max_value=floor + 60 * delay),
        ))
    t_end = draw(st.one_of(
        st.just(bound_t),
        st.floats(min_value=bound_t, max_value=bound_t + 60 * delay),
    ))
    bound_s = 2 * draw(st.integers(0, 10_000)) + 1
    return rows, bound_t, bound_s, t_end, max(seqs + [bound_s]) + 1


@st.composite
def _chain_spans(draw):
    """Chain rows plus ``(bound_t, bound_s, t_end, seq)`` for one span."""
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(_common_spans())
    n = draw(st.integers(min_value=2, max_value=6))
    delay = draw(st.sampled_from(_DELAYS))
    where = draw(st.sampled_from(("anywhere", "below-power-of-two", "half-ulp")))
    if where == "anywhere":
        origin = draw(st.floats(min_value=0.0, max_value=1e7))
    elif where == "below-power-of-two":
        power = 2.0 ** draw(st.integers(min_value=17, max_value=40))
        origin = power - draw(st.floats(min_value=0.0, max_value=8 * delay))
    else:
        delay = _HALF_ULP_DELAY
        origin = draw(st.floats(min_value=2.0**20, max_value=2.0**21 - 4096.0))
    layout = draw(st.sampled_from(("grid", "groups", "free")))
    seqs = _even_seqs(draw, n)
    rows = _grid_rows(draw, n, origin, delay, layout, seqs)
    span = 60 * min(row[4] for row in rows)

    def some_poll():
        row = draw(st.sampled_from(rows))
        steps = draw(st.one_of(st.just(0), st.integers(0, int(span / row[4]) + 1)))
        return _poll_after(row[0], row[4], steps)

    def some_time(kinds, row=None):
        kind = draw(st.sampled_from(kinds))
        if kind == "poll":
            return some_poll()
        if kind == "free":
            return origin + draw(st.floats(min_value=0.0, max_value=span))
        if kind == "head":
            return draw(st.sampled_from(rows))[0]
        if kind == "below":
            return row[0] - draw(st.floats(min_value=0.0, max_value=row[4]))
        return inf

    for row in rows:
        # A poll time of its own chain or another one's, a head, or a
        # deadline at or below the chain's own head.
        row[6] = some_time(("none", "poll", "free", "head", "below"), row)
    bound_s = 2 * draw(st.integers(0, 10_000)) + 1
    if draw(st.booleans()):
        # The bound exactly at a head, its seq just below or above.
        head = draw(st.sampled_from(rows))
        bound_t = head[0]
        bound_s = head[1] + draw(st.sampled_from((-1, 1)))
    else:
        bound_t = some_time(("none", "poll", "free"))
    t_end = some_time(("poll", "free", "head"))
    return rows, bound_t, bound_s, t_end, max(seqs + [bound_s]) + 1


@st.composite
def _lattice_spans(draw):
    """Spans the lattice must decide: one delay, every poll up to the
    stop inside one binade, deadlines above their heads."""
    n = draw(st.integers(min_value=2, max_value=6))
    delay = draw(st.sampled_from(_DELAYS))
    # Binades from 2**19: wide enough for 80 polls of every delay, and
    # clear of the one binade per delay where it is an odd multiple of
    # one half ulp (2**5, 2**6, 2**15 and 2**57).
    low = 2.0 ** draw(st.integers(min_value=19, max_value=50))
    origin = draw(st.floats(min_value=low, max_value=2 * low - 80 * delay))
    layout = draw(st.sampled_from(("grid", "groups")))
    seqs = _even_seqs(draw, n)
    rows = _grid_rows(draw, n, origin, delay, layout, seqs)
    t_lo = min(row[0] for row in rows)

    def some_time(kinds, row=None):
        kind = draw(st.sampled_from(kinds))
        if kind == "poll":
            row = row or draw(st.sampled_from(rows))
            return _poll_after(row[0], delay, draw(st.integers(1, 60)))
        if kind == "free":
            return t_lo + draw(st.floats(min_value=0.0, max_value=60 * delay))
        if kind == "head":
            return draw(st.sampled_from(rows))[0]
        if kind == "after":
            gap = draw(st.floats(min_value=0.0, max_value=60 * delay))
            return nextafter(row[0] + gap, inf)
        return inf

    for row in rows:
        row[6] = some_time(("none", "poll", "after"), row)
    bound_s = 2 * draw(st.integers(0, 10_000)) + 1
    bound_t = some_time(("none", "poll", "free", "head"))
    # t_end ends the span before the binade top: the first poll past it
    # lies at most one delay further.
    t_end = some_time(("poll", "free", "head"))
    return rows, bound_t, bound_s, t_end, max(seqs + [bound_s]) + 1


class TestLatticeAdvance:
    @seed(20261017)
    @settings(max_examples=300, deadline=None)
    @given(case=_chain_spans())
    def test_matches_the_merge(self, case):
        rows, bound_t, bound_s, t_end, seq = case
        ref = [list(row) for row in rows]
        expected = _merge_advance(ref, bound_t, bound_s, t_end, seq)
        fast = [list(row) for row in rows]
        result = _lattice_advance(fast, bound_t, bound_s, t_end, seq)
        if result is None:
            assert fast == rows
        else:
            assert result == expected
            assert fast == ref
        rows_out = [list(row) for row in rows]
        assert _advance(rows_out, bound_t, bound_s, t_end, seq) == expected
        assert rows_out == ref

    @seed(20261017)
    @settings(max_examples=150, deadline=None)
    @given(case=_lattice_spans())
    def test_decides_spans_inside_one_binade(self, case):
        rows, bound_t, bound_s, t_end, seq = case
        ref = [list(row) for row in rows]
        expected = _merge_advance(ref, bound_t, bound_s, t_end, seq)
        fast = [list(row) for row in rows]
        assert _lattice_advance(fast, bound_t, bound_s, t_end, seq) == expected
        assert fast == ref

    @seed(20261017)
    @settings(max_examples=150, deadline=None)
    @given(case=_common_spans())
    def test_takes_the_common_case(self, case):
        rows, bound_t, bound_s, t_end, seq = case
        ref = [list(row) for row in rows]
        expected = _merge_advance(ref, bound_t, bound_s, t_end, seq)
        fast = [list(row) for row in rows]
        result, lines = _lines_run(_lattice_advance, fast, bound_t, bound_s, t_end, seq)
        assert result == expected
        assert fast == ref
        if expected[0]:
            assert _COMMON_CASE_LINE in lines


def _lines_run(func, *args):
    """``func(*args)`` and the line numbers it ran in its own frame."""
    code = func.__code__
    lines = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    def dispatch(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(dispatch)
    try:
        result = func(*args)
    finally:
        sys.settrace(previous)
    return result, lines


def _common_case_line() -> int:
    """The line of ``_lattice_advance`` that counts a row's polls in the
    common case, ``ceil((b - n) / M)``."""
    source, first = inspect.getsourcelines(_lattice_advance)
    (offset,) = [
        i for i, line in enumerate(source)
        if "count = (bound - n + step - 1) // step" in line
    ]
    return first + offset


_COMMON_CASE_LINE = _common_case_line()
