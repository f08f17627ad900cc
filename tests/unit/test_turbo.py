"""Unit tests for the chain turbo (tier-1 exact fast-forward).

Bit-identity across switches, shapes, flows, faults and trials is the
differential oracle's (``tools/oracle.py``); these tests pin the
engage/decline contract, the table of idle chains and the report
plumbing on small windows.
"""

from __future__ import annotations

import random
from math import inf, nextafter

import pytest

from repro.core.engine import Simulator
from repro.core.lattice import Lattice
from repro.core.packet import Packet
from repro.core.ring import Ring
from repro.core.turbo import (
    _BENIGN,
    MIN_SPAN_POLLS,
    _advance,
    _chain_delay,
    _core_profile,
    _first_due,
    _l2fwd_check,
    _lattice_advance,
    _merge_advance,
    _switch_check,
    turbo_drive,
)
from repro.core.fluid import try_fluid
from repro.core.warp import state_fingerprint, try_warp
from repro.cpu.cores import Core
from repro.measure.runner import drive
from repro.obs import ObsConfig, observe
from repro.scenarios import loopback, p2p, p2v, v2v
from repro.vif.vhost_user import make_vhost_user_interface
from repro.vm.apps import GuestL2Fwd
from oracle import Run, compare
from tests._helpers import count_opcodes

pytestmark = pytest.mark.usefixtures("unwatched")

FAST = dict(warmup_ns=2e5, measure_ns=3e6)

def test_turbo_skips_simulated_time_in_bulk():
    tb = p2p.build("vpp", frame_size=64, rate_pps=1e6, seed=1, bidirectional=True)
    result = drive(tb, bidirectional=True, warp=True, **FAST)
    report = result.warp
    assert report.engaged and report.warped_ns > 0
    assert report.events_replayed > 0
    assert report.verify_ns > 0  # shadow verification actually ran


def _assert_bit_identical(build, switch, kwargs, rate, window=FAST):
    """Run warp off and on; return the warp-on result after comparing."""
    runs = []
    for warp in (False, True):
        tb = build(switch, frame_size=64, rate_pps=rate, seed=1, **kwargs)
        runs.append(Run.of(tb, drive(tb, warp=warp, **window)))
    assert compare(*runs) == []
    return runs[1].result


@pytest.mark.parametrize("switch", ["snabb", "vale"])
def test_turbo_engages_on_vnf_chains_behind_unprofiled_switch_cores(switch):
    """Snabb's and VALE's own core stays real; the VNF cores advance."""
    window = dict(warmup_ns=1e5, measure_ns=1e6)
    r_on = _assert_bit_identical(loopback.build, switch, {"n_vnfs": 2}, 5e5, window)
    assert r_on.warp.engaged and r_on.warp.mode == "turbo"
    assert r_on.warp.events_replayed > 0


@pytest.mark.parametrize(
    "switch,build,rate",
    [
        ("t4p4s", p2v.build, 1_000_000.0),
        ("t4p4s", v2v.build, 800_000.0),
        ("fastclick", p2v.build, 1_000_000.0),
        ("fastclick", v2v.build, 800_000.0),
    ],
)
def test_timer_waiting_polls_advance_in_bulk(switch, build, rate):
    """Polls waiting on t4p4s's strict-batch or FastClick's TX-drain
    timer are no-ops up to the timer's first due time."""
    window = dict(warmup_ns=1e5, measure_ns=1e6)
    r_on = _assert_bit_identical(build, switch, {}, rate, window)
    assert r_on.warp.engaged
    assert r_on.warp.events_replayed / r_on.events >= 0.5


def test_first_due_is_the_least_due_float():
    rng = random.Random(20261017)
    above = below = 0
    for _ in range(4000):
        origin = rng.uniform(0.0, 10.0 ** rng.uniform(0, 9))
        interval = rng.choice((27_000.0, 30_000.0, 60_000.0, 100_000.0))
        t = _first_due(origin, interval)
        assert t - origin >= interval
        assert nextafter(t, -inf) - origin < interval
        naive = origin + interval
        above += t > naive
        below += t < naive
    # The naive sum misses the boundary by an ulp in both directions.
    assert above and below


def test_l2fwd_drain_deadline_is_the_first_flushing_poll(sim):
    app = GuestL2Fwd(
        sim, make_vhost_user_interface("eth0"), make_vhost_user_interface("eth1"),
        burst=32, drain_ns=100_000.0,
    )
    app._tx_buffer = [Packet()]
    app._tx_frames = 1
    app._last_flush_ns = 11787.823596769442
    # One ulp below _last_flush_ns + drain_ns, yet exactly drain_ns after it.
    flush_at = 111787.82359676943
    assert _l2fwd_check(app)() == flush_at
    core = Core(sim, "vcpu0")
    sim._now = nextafter(flush_at, -inf)
    assert app.poll(core) == 0.0 and app._tx_buffer
    sim._now = flush_at
    assert app.poll(core) > 0.0 and not app._tx_buffer


def test_switch_check_deadline_follows_the_strict_batch_timer():
    tb = p2v.build("t4p4s", frame_size=64, seed=1)
    sw = tb.switch
    check = _switch_check(sw, sw.paths)
    path = sw.paths[0]
    ring = path.input.input_ring
    assert check() == inf
    ring.push_batch([Packet()])
    assert check() == -inf  # the next poll starts the wait
    path.wait_started_ns = 1234.5678
    assert check() == _first_due(1234.5678, sw.params.batch_wait_ns)
    ring.push_batch([Packet() for _ in range(sw.params.batch_size)])
    assert check() == -inf  # a full batch pops at once
    ring.pop_batch(ring.capacity)
    assert check() == -inf  # the next poll clears the stale wait
    path.wait_started_ns = None
    assert check() == inf


def test_switch_check_deadline_follows_the_tx_drain_timer():
    tb = p2v.build("fastclick", frame_size=64, seed=1)
    sw = tb.switch
    path = next(path for path in sw.paths if path.output.is_vif)
    check = _switch_check(sw, sw.paths)
    assert check() == inf
    path.tx_buffer = [Packet()]
    path.tx_buffer_frames = 1
    path.tx_buffer_since_ns = 98765.4321
    assert check() == _first_due(98765.4321, sw.params.tx_drain_ns)
    path.input.input_ring.push_batch([Packet()])
    assert check() == -inf  # FastClick pops any batch at once


_D = 30.76923076923077


def _three_chains(shift=0.0):
    """Three chains off each other's grid; rows are
    ``[t, seq, cb, core, delay, fired, deadline]``."""
    return [
        [1000.0 + shift, 5, None, None, _D, 0, inf],
        [1010.0 + shift, 3, None, None, _D, 0, inf],
        [1020.0 + shift, 9, None, None, _D, 0, 1400.0 + shift],
    ]


def _assert_lattice(rows, bound_t, bound_s, t_end, seq, decides):
    """The lattice decides (and equals the merge) or declines (rows
    untouched); ``_advance`` always equals the merge."""
    ref = [list(row) for row in rows]
    expected = _merge_advance(ref, bound_t, bound_s, t_end, seq)
    fast = [list(row) for row in rows]
    result = _lattice_advance(fast, bound_t, bound_s, t_end, seq)
    if decides:
        assert result == expected
        assert fast == ref
    else:
        assert result is None
        assert fast == rows
    out = [list(row) for row in rows]
    assert _advance(out, bound_t, bound_s, t_end, seq) == expected
    assert out == ref
    return expected


def test_lattice_declines_a_span_across_a_power_of_two():
    """Polls from 1000 ns up to 1400 ns cross 1024 ns, where the ulp
    doubles; the merge takes the span."""
    expected = _assert_lattice(_three_chains(), 1500.0, 2, 2000.0, 100, decides=False)
    assert expected[0] > 0


def test_lattice_advance_equals_the_merge_inside_one_binade():
    expected = _assert_lattice(
        _three_chains(100.0), 1600.0, 2, 2100.0, 100, decides=True
    )
    assert expected[0] > 3


@pytest.mark.parametrize(
    "case",
    ["mixed-delays", "half-ulp-delay", "deadline-at-head", "deadline-below-head"],
)
def test_lattice_declines(case):
    rows = _three_chains(100.0)
    if case == "mixed-delays":
        rows[1][4] = 16.0
    elif case == "half-ulp-delay":
        # ulp is 2**-32 in [2**20, 2**21): the step is an odd multiple
        # of one half ulp, so ties-to-even depends on each poll's parity.
        for row in rows:
            row[0] += 2.0 ** 20
            row[4] = 30 + 2.0 ** -33
            row[6] = inf
    elif case == "deadline-at-head":
        rows[0][6] = rows[0][0]
    else:
        rows[2][6] = rows[2][0] - 1.0
    offset = rows[0][0] - 1100.0
    _assert_lattice(rows, 1600.0 + offset, 2, 2100.0 + offset, 100, decides=False)


def _single_row(head):
    """One table row on a fresh core's idle grid."""
    core = Core(Simulator(), "c")
    return [head, 5, None, core, _chain_delay(core), 0, inf]


@pytest.mark.parametrize("binding", ["bound", "deadline", "t_end", "power-of-two"])
def test_single_row_advance_matches_the_literal_loop(binding):
    """A single row counts its polls on its core's idle lattice; the
    one-chain merge is the literal loop.  Each case runs twice: on a
    fresh lattice, then on one fitted to the head's binade."""
    row = _single_row(2.0**21 + 1000.0)
    delay = row[4]
    if binding == "power-of-two":
        row[0] = 2.0**21 - 200.5 * delay
    head = row[0]
    bound_t, t_end = head + 300.5 * delay, head + 900.0 * delay
    if binding == "deadline":
        row[6] = head + 120.25 * delay
    elif binding == "t_end":
        t_end = head + 80.75 * delay
    for fitted in (False, True):
        if fitted:
            assert row[3]._idle_lattice.fit(head + delay, delay)
        ref = [list(row)]
        expected = _merge_advance(ref, bound_t, 9, t_end, 100)
        out = [list(row)]
        assert _advance(out, bound_t, 9, t_end, 100) == expected
        assert out == ref
    assert expected[0] == {"deadline": 121, "t_end": 81}.get(binding, 301)


def _single_row_opcodes(polls):
    """Bytecodes of a single-row ``_advance`` over ``polls`` polls, on a
    lattice fitted by an earlier call."""
    row = _single_row(2.0**21 + 1000.0)
    bound_t = row[0] + (polls - 0.5) * row[4]
    span = lambda: _advance([list(row)], bound_t, 9, 2.0**22, 100)  # noqa: E731
    assert span()[0] == polls
    return count_opcodes(span, (_advance.__code__, Lattice.polls.__code__))


def test_single_row_advance_costs_the_same_bytecodes_at_any_length():
    assert _single_row_opcodes(1000) == _single_row_opcodes(10)


def test_turbo_registers_the_timeline_sampler_as_benign():
    from repro.measure.resilience import _TimelineSampler

    tb = p2p.build("vpp", frame_size=64, seed=1, bidirectional=True)
    assert turbo_drive(tb, 2e5).engaged
    assert _TimelineSampler._tick.__code__ in _BENIGN


def test_declines_on_pipeline_switch():
    tb = p2v.build("snabb", frame_size=64, seed=1)
    report = turbo_drive(tb, 1e6)
    assert not report.engaged
    assert report.reason == "pipeline-switch"
    assert report.mode == "turbo"


def test_declines_on_interrupt_driven_switch():
    tb = v2v.build("vale", frame_size=64, seed=1)
    report = turbo_drive(tb, 1e6)
    assert not report.engaged
    assert report.reason == "interrupt-driven"


#: (builder, switch, build kwargs, sub-capacity rate in pps) per shape.
OBSERVED_SHAPES = {
    "p2p-bidi": (p2p.build, "vpp", {"bidirectional": True}, 2e6),
    "p2v": (p2v.build, "ovs-dpdk", {}, 1e6),
    "v2v": (v2v.build, "vpp", {}, 8e5),
    "loopback-2": (loopback.build, "ovs-dpdk", {"n_vnfs": 2}, 5e5),
}


@pytest.mark.parametrize(
    "config",
    [ObsConfig(metrics=True, profile=True), ObsConfig(flowstats=True)],
    ids=["metrics-profile", "flowstats"],
)
@pytest.mark.parametrize("shape", sorted(OBSERVED_SHAPES))
def test_observed_runs_keep_the_turbo(shape, config):
    """Probes only see busy polls, and the turbo dispatches every one:
    an observed run engages it and matches the event-by-event observed
    run, metric snapshot included."""
    build, switch, kwargs, rate = OBSERVED_SHAPES[shape]
    runs = []
    for warp in (False, True):
        tb = build(switch, frame_size=64, rate_pps=rate, seed=1, **kwargs)
        observation = observe(tb, config)
        result = drive(tb, warp=warp, warmup_ns=2e5, measure_ns=1.2e6)
        runs.append(Run.of(tb, result, observation=observation))
    off, on = runs
    report = on.result.warp
    assert report.engaged and report.mode == "turbo" and report.events_replayed > 0
    assert on.snapshot is not None
    assert compare(off, on) == []


def test_tracing_declines_and_a_probe_names_its_decline():
    """The engine observer still declines every tier; a probe without it
    declines only the replay and fluid, which skip the batches it reads."""
    tb = p2p.build("vpp", frame_size=64, rate_pps=2e6, seed=1, bidirectional=True)
    observe(tb, ObsConfig(trace=True))
    assert turbo_drive(tb, 1e6).reason == "per-packet-tracing"
    tb = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
    observe(tb, ObsConfig(metrics=True, profile=False))
    for report in (try_warp(tb, 1.4e6), try_fluid(tb, 2e5, 1.4e6)):
        assert not report.engaged and report.reason == "observed"


def test_resilience_between_fault_warp_is_bit_identical(monkeypatch):
    """Timeline, recovery metrics and end state match event-exact runs."""
    from repro.faults.plan import FaultEvent, FaultPlan
    from repro.measure.resilience import measure_resilience

    def run(warp):
        monkeypatch.setenv("REPRO_WARP", "1" if warp else "0")
        plan = FaultPlan.of(
            FaultEvent.from_dict(
                {"kind": "nic-link-flap", "target": "sut-nic.p1",
                 "at_ns": 1.2e6, "duration_ns": 4e5}
            )
        )
        return measure_resilience(
            p2p.build, "vpp", 64, plan,
            warmup_ns=6e5, measure_ns=5e6, rate_pps=1e6,
        )

    res_off, rep_off, _ = run(False)
    res_on, rep_on, _ = run(True)
    assert res_on.warp is not None and res_on.warp.engaged
    assert rep_off.to_dict() == rep_on.to_dict()
    assert repr(res_off.gbps) == repr(res_on.gbps)
    assert res_off.events == res_on.events


# -- the table of idle chains -------------------------------------------------


def _chain_cores(tb):
    return [
        core for node in tb.machine.nodes for core in node.cores
        if _core_profile(core) is not None
    ]


def _pending_polls(tb, core) -> int:
    return sum(
        1 for _t, _s, cb in tb.sim._queue
        if getattr(cb, "__self__", None) is core and cb.__name__ == "_iterate"
    )


def test_table_advances_to_a_t_end_inside_an_idle_stretch():
    """The run ends while every chain sits in the table: the turbo itself
    advances the rows to ``t_end`` and puts them back on the heap at
    their exact seqs."""
    t_end = 5e5 + 12.3

    def build():
        return loopback.build("vpp", frame_size=64, rate_pps=5e4, seed=1, n_vnfs=2)

    tb_off = build()
    tb_off.sim.run_until(t_end)
    tb_on = build()
    report = turbo_drive(tb_on, t_end)
    assert report.engaged and report.events_replayed > 0
    assert min(tb_on.sim._queue)[0] > t_end  # nothing left for run_until
    tb_on.sim.run_until(t_end)
    assert state_fingerprint(tb_off) == state_fingerprint(tb_on)
    chains = _chain_cores(tb_on)
    assert len(chains) == 3
    for core in chains:
        # Idle for many polls up to t_end, and its next poll is pending.
        assert core._idle_streak >= MIN_SPAN_POLLS
        assert _pending_polls(tb_on, core) == 1


def test_every_row_is_back_on_the_heap_when_a_fault_fires(monkeypatch):
    """A VNF crash mid-run: before each fault callback runs, every chain
    core's next poll is back on the heap; the recovery report and the end
    state equal an event-by-event run's."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultEvent, FaultPlan
    from repro.measure.resilience import measure_resilience

    seen = []
    testbeds = []

    def checked(method):
        def wrapper(self, *args, **kwargs):
            testbeds.append(self.tb)
            seen.append([
                _pending_polls(self.tb, core)
                for core in _chain_cores(self.tb)
                if core._started and not core._sleeping
            ])
            return method(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(FaultInjector, "_start", checked(FaultInjector._start))
    monkeypatch.setattr(FaultInjector, "_stop", checked(FaultInjector._stop))

    def run(warp):
        monkeypatch.setenv("REPRO_WARP", "1" if warp else "0")
        plan = FaultPlan.of(
            FaultEvent.from_dict(
                {"kind": "vnf-crash", "target": "vm1",
                 "at_ns": 6.8e5, "duration_ns": 4e5}
            )
        )
        return measure_resilience(
            loopback.build, "vpp", 64, plan, epsilon=0.3,
            warmup_ns=2e5, measure_ns=1.6e6, rate_pps=1e6, n_vnfs=2,
        )

    res_off, rep_off, _ = run(False)
    res_on, rep_on, _ = run(True)
    assert res_on.warp is not None and res_on.warp.engaged
    assert res_on.warp.events_replayed > 0
    assert len(seen) == 4  # start and stop, in each run
    for counts in seen:
        assert counts and all(count == 1 for count in counts)
    off = Run.of(testbeds[0], res_off, rep_off)
    assert compare(off, Run.of(testbeds[-1], res_on, rep_on)) == []


class _WatchedRing(Ring):
    """A ring that records, at each push, whether its consumer's next poll
    is on the heap or held in the turbo's table."""

    __slots__ = ()
    pushes: list = []
    owner: tuple | None = None  # (testbed, consumer core)

    def push_batch(self, items):
        tb, core = _WatchedRing.owner
        _WatchedRing.pushes.append(_pending_polls(tb, core))
        return Ring.push_batch(self, items)


def test_a_row_whose_ring_a_real_event_fills_leaves_at_its_next_poll(monkeypatch):
    """Frames land in an idle VNF's ring while its chain is in the table;
    the row must leave so that its next poll forwards them for real."""
    monkeypatch.setattr(_WatchedRing, "pushes", [])
    monkeypatch.setattr(_WatchedRing, "owner", None)

    def run(warp):
        tb = loopback.build("vpp", frame_size=64, rate_pps=5e4, seed=1, n_vnfs=2)
        vm = tb.vms[0]
        (app,) = vm.cores[0].tasks
        app.rx_vif.to_guest.__class__ = _WatchedRing
        _WatchedRing.owner = (tb, vm.cores[0])
        _WatchedRing.pushes.clear()
        result = drive(tb, warp=warp, warmup_ns=1e5, measure_ns=4e5)
        return tb, result, app.forwarded, list(_WatchedRing.pushes)

    tb_off, r_off, fwd_off, pushes_off = run(False)
    tb_on, r_on, fwd_on, pushes_on = run(True)
    assert r_on.warp.engaged
    assert pushes_off and all(count == 1 for count in pushes_off)
    # With the turbo, the idle VNF's chain was in the table at most pushes.
    assert pushes_on.count(0) >= len(pushes_on) // 2
    assert fwd_on == fwd_off > 0
    assert compare(Run.of(tb_off, r_off), Run.of(tb_on, r_on)) == []
