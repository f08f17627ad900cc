"""Property-based tests for the fast-forward tiers' contracts.

Five contracts, sampled with pinned hypothesis seeds so CI failures
reproduce:

1. **Replay observable-invariance** -- on clean unidirectional p2p the
   replay tier, which verifies the run's opening slice and replays the
   rest, warm-up included, is bit-identical to warp-off runs wherever
   the window opens (in the verify slice or in the replay), for sampled
   (switch, rate, warm-up, trial, seed).
2. **Turbo observable-invariance** -- on every turbo-eligible shape,
   warp-on runs are bit-identical to warp-off runs: same end-state
   fingerprint, same per-direction rates (repr-compared), same event
   count, for sampled (switch, shape, rate, seed).
3. **Fluid tolerance** -- when the fluid tier engages, the extrapolated
   rate is within the declared tolerance of the exact rate, across a
   sampled (rate, seed, window) grid.
4. **Between-fault exactness** -- a resilience run with the chain turbo
   warping the inter-fault stretches reproduces the event-exact
   degradation timeline and recovery metrics bit-for-bit, for sampled
   fault instants and durations.
5. **Tie-free chain advance** -- the turbo's time-ordered multi-chain
   advance either declines (leaving the chain rows untouched) or returns
   exactly what the k-way ``(time, seq)`` merge returns and leaves the
   same rows, across chains on shared and independent poll grids, bounds
   and deadlines that land exactly on polls, and ``t_end`` cuts.
"""

from __future__ import annotations

from math import inf

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.fluid import fluid_tolerance
from repro.core.turbo import _advance, _advance_tie_free, _merge_advance
from repro.core.units import line_rate_pps
from repro.core.warp import state_fingerprint
from repro.measure.runner import drive
from repro.scenarios import loopback, p2p, p2v, v2v

#: Turbo-eligible shapes beyond clean uni p2p (which replay covers) and
#: a sub-capacity rate band per shape (slowest-switch headroom).
SHAPES = {
    "p2p-bidi": (p2p.build, {"bidirectional": True}, 0.5e6, 2.0e6),
    "p2v": (p2v.build, {}, 0.3e6, 1.0e6),
    "v2v": (v2v.build, {}, 0.2e6, 0.8e6),
    "loopback": (loopback.build, {"n_vnfs": 2}, 0.1e6, 0.5e6),
}

EXACT_SWITCHES = ["bess", "fastclick", "ovs-dpdk", "vpp", "t4p4s"]


class TestReplayInvariance:
    @seed(20261017)
    @settings(max_examples=15, deadline=None)
    @given(
        switch=st.sampled_from(EXACT_SWITCHES),
        # Sub-capacity up to line rate, past every switch's capacity.
        rate=st.floats(min_value=0.3e6, max_value=line_rate_pps(64)),
        # No warm-up; the window opening inside the verify slice; and
        # opening inside the replay.
        warmup_ns=st.sampled_from([0.0, 100_000.0, 600_000.0]),
        trial=st.sampled_from([0, 3]),
        run_seed=st.integers(min_value=1, max_value=1_000_000),
    )
    def test_warp_on_matches_warp_off(self, switch, rate, warmup_ns, trial, run_seed):
        def run(warp):
            tb = p2p.build(switch, frame_size=64, rate_pps=rate, seed=run_seed, trial=trial)
            res = drive(tb, warmup_ns=warmup_ns, measure_ns=7e5, warp=warp)
            return res, state_fingerprint(tb)

        r_off, f_off = run(False)
        r_on, f_on = run(True)
        assert r_on.warp is not None and r_on.warp.engaged
        assert r_on.warp.mode == "replay"
        # The fingerprint includes the meter's warm-up count, which the
        # replay accumulates for every arrival before the window opens.
        assert f_off == f_on
        assert [repr(v) for v in r_off.per_direction_gbps] == [
            repr(v) for v in r_on.per_direction_gbps
        ]
        assert r_off.events == r_on.events


class TestTurboInvariance:
    @seed(20260807)
    @settings(max_examples=8, deadline=None)
    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        switch=st.sampled_from(EXACT_SWITCHES),
        rate_frac=st.floats(min_value=0.0, max_value=1.0),
        run_seed=st.integers(min_value=1, max_value=1_000_000),
    )
    def test_warp_on_matches_warp_off(self, shape, switch, rate_frac, run_seed):
        build, kwargs, lo, hi = SHAPES[shape]
        rate = lo + rate_frac * (hi - lo)
        bidir = kwargs.get("bidirectional", False)

        def run(warp):
            tb = build(switch, frame_size=64, rate_pps=rate, seed=run_seed, **kwargs)
            res = drive(
                tb, warmup_ns=2e5, measure_ns=2.5e6,
                bidirectional=bidir, warp=warp,
            )
            return res, state_fingerprint(tb)

        r_off, f_off = run(False)
        r_on, f_on = run(True)
        assert r_on.warp is not None and r_on.warp.engaged
        assert f_off == f_on
        assert [repr(v) for v in r_off.per_direction_gbps] == [
            repr(v) for v in r_on.per_direction_gbps
        ]
        assert r_off.events == r_on.events


class TestFluidTolerance:
    @seed(20260807)
    @settings(max_examples=6, deadline=None)
    @given(
        rate_mpps=st.floats(min_value=0.5, max_value=5.0),
        run_seed=st.integers(min_value=1, max_value=1_000_000),
        window_ms=st.floats(min_value=20.0, max_value=80.0),
    )
    def test_fluid_rate_within_tolerance(self, rate_mpps, run_seed, window_ms):
        rate = rate_mpps * 1e6
        measure_ns = window_ms * 1e6

        def run(fluid):
            tb = p2p.build("vpp", frame_size=64, rate_pps=rate, seed=run_seed)
            return drive(tb, warmup_ns=6e5, measure_ns=measure_ns, fluid=fluid)

        exact = run(False)
        approx = run(True)
        assert approx.fluid is not None and approx.fluid.engaged
        assert exact.mpps > 0
        rel_err = abs(approx.mpps - exact.mpps) / exact.mpps
        assert rel_err <= fluid_tolerance(), (
            f"fluid {approx.mpps} vs exact {exact.mpps}: {rel_err:.4%}"
        )


class TestBetweenFaultExactness:
    @seed(20260807)
    @settings(max_examples=5, deadline=None)
    @given(
        fault_frac=st.floats(min_value=0.1, max_value=0.7),
        duration_ns=st.floats(min_value=1e5, max_value=6e5),
        run_seed=st.integers(min_value=1, max_value=1_000_000),
    )
    def test_resilience_timeline_bit_identical(
        self, fault_frac, duration_ns, run_seed
    ):
        from repro.faults.plan import FaultEvent, FaultPlan
        from repro.measure.resilience import measure_resilience

        warmup_ns, measure_ns = 6e5, 4e6

        def run(warp):
            plan = FaultPlan.of(
                FaultEvent.from_dict(
                    {"kind": "nic-link-flap", "target": "sut-nic.p1",
                     "at_ns": warmup_ns + fault_frac * measure_ns,
                     "duration_ns": duration_ns}
                )
            )
            return measure_resilience(
                p2p.build, "vpp", 64, plan,
                warmup_ns=warmup_ns, measure_ns=measure_ns,
                rate_pps=1e6, seed=run_seed, warp=warp,
            )

        res_off, rep_off, _ = run(False)
        res_on, rep_on, _ = run(True)
        assert rep_off.to_dict() == rep_on.to_dict()
        assert repr(res_off.gbps) == repr(res_on.gbps)
        assert res_off.events == res_on.events


#: Idle re-arm delays: 30.77 ns is every default 2.6 GHz poll loop,
#: 4230.77 ns Snabb's idle breath; the others are off that grid.
_DELAYS = (30.76923076923077, 4230.7692307692305, 16.0, 33.333333333333336)


def _poll_after(t, delay, steps):
    """A chain's poll ``steps`` re-arms after ``t`` (repeated addition)."""
    for _ in range(steps):
        t += delay
    return t


@st.composite
def _chain_spans(draw):
    """Chain rows plus ``(bound_t, bound_s, t_end, seq)`` for one span."""
    n = draw(st.integers(min_value=2, max_value=6))
    origin = draw(st.floats(min_value=0.0, max_value=1e7))
    shared = draw(st.booleans())
    grid_delay = draw(st.sampled_from(_DELAYS))
    seqs = draw(
        st.lists(st.integers(0, 10_000), min_size=n + 1, max_size=n + 1, unique=True)
    )
    rows = []
    for index in range(n):
        if shared:
            # One poll grid, chains a few re-arms apart: every pair ties.
            delay = grid_delay
            t = _poll_after(origin, delay, draw(st.integers(0, 3)))
        else:
            delay = draw(st.sampled_from(_DELAYS))
            t = origin + draw(st.floats(min_value=0.0, max_value=2 * delay))
        rows.append([t, seqs[index], None, None, delay, 0, inf])
    span = 60 * min(row[4] for row in rows)

    def some_poll():
        row = draw(st.sampled_from(rows))
        steps = draw(st.one_of(st.just(0), st.integers(0, int(span / row[4]) + 1)))
        return _poll_after(row[0], row[4], steps)

    def some_time(kinds):
        kind = draw(st.sampled_from(kinds))
        if kind == "poll":
            return some_poll()
        if kind == "free":
            return origin + draw(st.floats(min_value=0.0, max_value=span))
        return inf

    for row in rows:
        # A poll time of its own chain or another one's.
        row[6] = some_time(("none", "poll", "free"))
    bound_t = some_time(("none", "poll", "free"))
    t_end = some_time(("poll", "free"))
    return rows, bound_t, seqs[-1], t_end, max(seqs) + 1


class TestTieFreeAdvance:
    @seed(20261017)
    @settings(max_examples=300, deadline=None)
    @given(case=_chain_spans())
    def test_matches_the_merge(self, case):
        rows, bound_t, bound_s, t_end, seq = case
        ref = [list(row) for row in rows]
        expected = _merge_advance(ref, bound_t, bound_s, t_end, seq)
        fast = [list(row) for row in rows]
        result = _advance_tie_free(fast, bound_t, t_end, seq)
        if result is None:
            assert fast == rows
        else:
            assert result == expected
            assert fast == ref
        rows_out = [list(row) for row in rows]
        assert _advance(rows_out, bound_t, bound_s, t_end, seq) == expected
        assert rows_out == ref
