"""Unit tests for the steady-state fast-forward (repro.core.warp).

The warp's contract has two halves, and both get tested here:

* when it engages, the fast-forwarded run is *bit-identical* to the
  event-by-event run -- every counter, timestamp, stats accumulator and
  RNG state (see also the differential oracle, tools/oracle.py);
* when the run is not provably replay-safe (faults armed, per-packet
  observers, probes, non-p2p shapes...) it declines automatically, with
  a stable reason surfaced in the WarpReport.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SimulationError, Simulator
from repro.core.packet import PacketBlock
from repro.core.stats import RateMeter
from repro.core.units import wire_time_ns
from repro.core.warp import (
    MIN_VERIFY_NS,
    WARP_VERSION,
    WarpReport,
    _clone_backend,
    _eligibility,
    _replay,
    _send_frames,
    _snapshot,
    _switch_view,
    engine_features,
    state_fingerprint,
    try_warp,
    warp_enabled,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.measure.runner import drive
from repro.nic.port import NicPort
from repro.scenarios import p2p, v2v
from oracle import Run, compare

pytestmark = pytest.mark.usefixtures("unwatched")

WARMUP = 600_000.0
MEASURE = 3_000_000.0

#: Switches the replay tier engages on (clean unidirectional p2p).
REPLAY_SWITCHES = ["bess", "fastclick", "ovs-dpdk", "vpp", "t4p4s"]


def _verify_ns(tb):
    return max(MIN_VERIFY_NS, 2.5 * tb.switch.params.jitter_period_ns)


def _drive(tb, warp):
    return drive(tb, warmup_ns=WARMUP, measure_ns=MEASURE, warp=warp)


# -- environment switch and feature flags -----------------------------------


def test_warp_enabled_parses_environment(monkeypatch):
    monkeypatch.delenv("REPRO_WARP", raising=False)
    assert warp_enabled() is True
    assert warp_enabled(default=False) is False
    for value in ("0", "false", "off", "no", " OFF "):
        monkeypatch.setenv("REPRO_WARP", value)
        assert warp_enabled() is False, value
    for value in ("1", "true", "on", "yes"):
        monkeypatch.setenv("REPRO_WARP", value)
        assert warp_enabled(default=False) is True, value
    monkeypatch.setenv("REPRO_WARP", "gibberish")
    assert warp_enabled() is True  # unrecognised -> default


def test_engine_features_reflect_warp_state(monkeypatch):
    monkeypatch.delenv("REPRO_WARP", raising=False)
    assert engine_features() == {"warp": True, "warp_version": WARP_VERSION}
    monkeypatch.setenv("REPRO_WARP", "0")
    assert engine_features() == {"warp": False, "warp_version": WARP_VERSION}


def test_report_describe_both_shapes():
    ok = WarpReport(engaged=True, warped_ns=2e6, events_replayed=7, verify_ns=2.5e5)
    assert "engaged" in ok.describe() and "7 events" in ok.describe()
    no = WarpReport(engaged=False, reason="probes-active")
    assert no.describe() == "declined[replay]: probes-active"
    turbo = WarpReport(engaged=True, mode="turbo", warped_ns=1e6)
    assert turbo.describe().startswith("engaged[turbo]")


@pytest.mark.parametrize("switch,table,counter", [
    ("vpp", "node_runtime", "calls"),
    ("vpp", "node_runtime", "vectors"),
    ("t4p4s", "table", "hits"),
    ("t4p4s", "table", "misses"),
    ("ovs-dpdk", "flow_table", "lookups"),
    ("ovs-dpdk", "flow_table", "misses"),
])
def test_state_fingerprint_sees_switch_table_counters(switch, table, counter):
    """VPP's node runtimes, t4p4s's P4 table and OvS-DPDK's OpenFlow table
    keep their counters in objects of their own; the fingerprint compares
    them, so a warp that skipped their updates would show."""
    tb = p2p.build(switch, frame_size=64, rate_pps=1e6, seed=1)
    drive(tb, warmup_ns=1e5, measure_ns=4e5, warp=False)
    before = state_fingerprint(tb)
    counters = getattr(tb.switch, table)
    if isinstance(counters, dict):  # VPP keeps one runtime per graph node
        counters = next(iter(counters.values()))
    setattr(counters, counter, getattr(counters, counter) + 1)
    assert state_fingerprint(tb) != before


@pytest.mark.parametrize("edit", ["seq", "payload", "drop"])
def test_state_fingerprint_sees_pending_events(edit):
    """A fast-forward that put an event back at another seq, with other
    frames, or not at all leaves a different heap; the fingerprint
    compares the pending events, so it would show."""
    tb = v2v.build("vpp", frame_size=64, rate_pps=8e5, seed=1)
    drive(tb, warmup_ns=1e5, measure_ns=4e5, warp=False)
    before = state_fingerprint(tb)
    assert before == state_fingerprint(tb)
    queue = tb.sim._queue
    if edit == "payload":
        # The frames an in-flight closure carries: one more hop on one.
        frames = next(
            cell.cell_contents
            for _t, _s, cb in queue
            for cell in getattr(cb, "__closure__", None) or ()
            if isinstance(cell.cell_contents, list) and cell.cell_contents
        )
        frames[0].hops += 1
    else:
        index = max(range(len(queue)), key=lambda i: queue[i][1])
        time, seq, cb = queue.pop(index)
        if edit == "seq":
            queue.append((time, seq + 1, cb))
    assert state_fingerprint(tb) != before


# -- engagement and bit-identity --------------------------------------------


@pytest.mark.parametrize("switch", ["vpp", "ovs-dpdk"])
def test_warp_engages_and_is_bit_identical(switch):
    off = p2p.build(switch, frame_size=64, rate_pps=3e6)
    r_off = _drive(off, warp=False)
    on = p2p.build(switch, frame_size=64, rate_pps=3e6)
    r_on = _drive(on, warp=True)

    assert r_off.warp is None
    assert r_on.warp is not None and r_on.warp.engaged, r_on.warp.describe()
    assert r_on.warp.warped_ns > 0
    assert compare(Run.of(off, r_off), Run.of(on, r_on)) == []


@pytest.mark.parametrize("switch", ["bess", "vpp"])
@pytest.mark.parametrize("trial", [3, 6])
def test_replay_follows_the_trial_salted_drop_schedule(switch, trial):
    # Trial replicas salt each port's drop schedule; a replay drawing
    # gaps with the unsalted port-name key replays the base run's drops
    # instead.
    runs = []
    for warp in (False, True):
        tb = p2p.build(switch, 64, rate_pps=8e6, trial=trial, seed=1)
        runs.append(Run.of(tb, drive(tb, warmup_ns=WARMUP, measure_ns=6_000_000.0, warp=warp)))
    report = runs[1].result.warp
    assert report is not None and report.engaged and report.mode == "replay"
    assert compare(*runs) == []


@pytest.mark.parametrize("switch", REPLAY_SWITCHES)
def test_replay_starts_at_the_first_event(switch):
    # Only the verify slice at the run's start is dispatched; the replay
    # covers the rest of the warm-up and the whole window.
    tb = p2p.build(switch, frame_size=64, rate_pps=3e6)
    verify_ns = _verify_ns(tb)
    report = _drive(tb, warp=True).warp
    assert report is not None and report.engaged and report.mode == "replay"
    assert report.verify_ns == verify_ns
    # t_close - t_verify, with the slice starting at t = 0.
    assert report.warped_ns == (WARMUP + MEASURE) - verify_ns
    assert report.warped_ns > MEASURE


@pytest.mark.parametrize("switch", REPLAY_SWITCHES)
def test_shadow_replay_from_the_first_event_leaves_the_live_switch_alone(switch):
    # The shadow backend's switch is a shallow clone (t4p4s's table
    # entries stay shared); a hook that mutated shared state would
    # corrupt the live run from t = 0.
    tb = p2p.build(switch, frame_size=64, rate_pps=3e6)
    ctx = _eligibility(tb)
    live = _switch_view(ctx.sw, ctx.path.jitter)
    before = state_fingerprint(tb)
    st = _snapshot(ctx)
    shadow = _clone_backend(ctx)
    _replay(ctx, st, shadow, _verify_ns(tb))
    assert _switch_view(ctx.sw, ctx.path.jitter) == live
    assert state_fingerprint(tb) == before
    if switch == "ovs-dpdk":
        # The slice opens with the flow's first packet: the shadow took
        # the cold-start upcall and installed the megaflow, the live
        # switch did not.
        def upcall_state(view):
            _, (_, _, upcalls, _, megaflows, _) = view
            return upcalls, megaflows

        assert upcall_state(_switch_view(shadow.sw, shadow.jitter)) == (1, (ctx.flow_id,))
        assert upcall_state(live) == (0, ())


def test_warp_engages_under_saturating_input():
    tb = p2p.build("bess", frame_size=64)
    result = _drive(tb, warp=True)
    assert result.warp is not None and result.warp.engaged


@pytest.mark.parametrize("rate_pps", [3e6, None], ids=["3mpps", "saturating"])
@pytest.mark.parametrize("switch", REPLAY_SWITCHES)
def test_replay_matches_dispatch_under_frequent_driver_hiccups(switch, rate_pps):
    # At the default 1e-4 a driver drop seldom lands inside the replayed
    # span.  At 2e-2 both wires drop frames there, so the replay's
    # per-frame paths (generator side and SUT side) draw gaps from the
    # drop schedule, as send_batch does with warp off.
    runs = []
    for warp in (False, True):
        tb = p2p.build(switch, frame_size=64, rate_pps=rate_pps, seed=5)
        ports = tb.extras["gen_ports"] + tb.extras["sut_ports"]
        for port in ports:
            port.driver_drop_prob = 2e-2
        runs.append(Run.of(tb, _drive(tb, warp=warp)))
        drops = {port.name: port.driver_drops for port in ports}
    on = runs[1].result
    assert on.warp is not None and on.warp.engaged and on.warp.mode == "replay", (
        on.warp.describe()
    )
    assert compare(*runs) == []
    assert drops["gen-nic.p0"] > 0 and drops["sut-nic.p1"] > 0


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=6),
    backlog=st.integers(min_value=0, max_value=40),
    prob=st.sampled_from([1e-4, 0.05, 0.5]),
    salt=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_replay_frame_loop_matches_send_batch(counts, backlog, prob, salt):
    # The replay's per-frame loop against NicPort.send_batch, with a
    # 32-slot tx ring that the blocks overfill: backlog refusals and
    # driver drops interleave, which replayed spans seldom see.
    sim = Simulator()
    port = NicPort(sim, "gen-nic.p0", tx_slots=32)
    port.connect(NicPort(sim, "sut-nic.p0"))
    port.driver_drop_prob = prob
    port.set_hiccup_salt(salt)
    wire = wire_time_ns(64, port.rate_bps)
    port._tx_busy_until_ns = busy = backlog * wire
    off, nd, dd, txd = port._offered, port._next_drop, 0, 0
    for count in counts:
        sent = port.send_batch([PacketBlock(count=count, seq0=0)])
        accepted, busy, off, nd, dd, txd = _send_frames(
            count, busy, 0.0, wire, port.tx_slots * wire, off, nd, dd, txd,
            port._drop_key, prob,
        )
        assert accepted == sent
        assert (repr(busy), off, nd, dd, txd) == (
            repr(port._tx_busy_until_ns), port._offered, port._next_drop,
            port.driver_drops, port.tx_dropped,
        )


# -- automatic declines ------------------------------------------------------


def _reason(tb):
    report = try_warp(tb, WARMUP + MEASURE)
    assert not report.engaged
    return report.reason


def test_declines_on_armed_fault_plan():
    tb = p2p.build("vpp", frame_size=64)
    plan = FaultPlan.of(
        FaultEvent.from_dict(
            {
                "kind": "nic-link-flap",
                "target": "sut-nic.p1",
                "at_ns": 1.2e6,
                "duration_ns": 3e5,
            }
        )
    )
    injector = FaultInjector(tb, plan)
    assert "fault_injector" not in tb.extras  # constructing does not mark
    injector.arm()
    assert tb.extras["fault_injector"] is injector  # arm() marks the testbed
    assert _reason(tb) == "fault-plan-active"


def test_declines_on_per_packet_observation():
    from repro.obs import ObsConfig, observe

    tb = p2p.build("vpp", frame_size=64)
    observe(tb, ObsConfig(profile=True))
    assert _reason(tb) == "per-packet-tracing"


def test_declines_on_latency_probes():
    tb = p2p.build("vpp", frame_size=64, probe_interval_ns=20_000.0)
    assert _reason(tb) == "probes-active"


def test_declines_on_non_p2p_scenario():
    tb = v2v.build("vpp", frame_size=64)
    assert _reason(tb) == "scenario:v2v"


def test_declines_on_bidirectional_traffic():
    tb = p2p.build("vpp", frame_size=64, bidirectional=True)
    assert _reason(tb) == "bidirectional"


@pytest.mark.parametrize("switch", ["snabb", "vale"])
def test_declines_on_unsupported_switches(switch):
    tb = p2p.build(switch, frame_size=64)
    report = try_warp(tb, WARMUP + MEASURE)
    assert not report.engaged
    assert report.reason  # a stable, non-empty reason is part of the contract
    # ...and the run still completes normally afterwards.
    result = _drive(tb, warp=True)
    assert result.warp is not None and not result.warp.engaged
    assert result.mpps > 0


def test_declines_on_short_span():
    tb = p2p.build("vpp", frame_size=64)
    report = try_warp(tb, 200_000.0)
    assert not report.engaged
    assert report.reason == "span-too-short"


# -- commit plumbing ---------------------------------------------------------


def test_replace_pending_refuses_mid_dispatch():
    sim = Simulator()

    def hostile():
        sim.replace_pending([], now=5.0, seq=99, events=1)

    sim.at(1.0, hostile)
    with pytest.raises(SimulationError, match="mid-dispatch"):
        sim.run_until(2.0)


def test_replace_pending_refuses_rewind():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    sim.run_until(10.0)
    with pytest.raises(SimulationError, match="rewind"):
        sim.replace_pending([], now=5.0, seq=99, events=1)


def test_replace_pending_installs_state():
    sim = Simulator()
    fired = []
    sim.replace_pending(
        [(12.0, 3, lambda: fired.append("a")), (13.0, 4, lambda: fired.append("b"))],
        now=11.0,
        seq=5,
        events=2,
    )
    assert sim.now == 11.0
    assert sim.events_executed == 2
    sim.run_until(20.0)
    assert fired == ["a", "b"]
    assert sim.events_executed == 4


def test_rate_meter_set_counts():
    meter = RateMeter(frame_size_hint=64)
    meter.open_window(10.0)
    meter.close_window(20.0)
    meter.set_counts(100, 6_400, 7)
    assert meter.packets == 100
    assert meter.bytes == 6_400
    assert meter.warmup_packets == 7


def test_warp_label_maps_reports_to_record_column():
    from types import SimpleNamespace

    from repro.campaign.spec import _warp_label
    from repro.core.warp import WarpReport

    assert _warp_label(SimpleNamespace(warp=None)) is None
    engaged = WarpReport(engaged=True, mode="turbo", warped_ns=1e6)
    assert _warp_label(SimpleNamespace(warp=engaged)) == "turbo"
    declined = WarpReport(engaged=False, mode="replay", reason="interrupt-driven")
    assert _warp_label(SimpleNamespace(warp=declined)) == "declined:interrupt-driven"


def test_warp_decline_prometheus_counters():
    from types import SimpleNamespace

    from repro.obs.exporters import warp_decline_prometheus_text

    outcomes = [
        ("a", SimpleNamespace(warp="replay")),
        ("b", SimpleNamespace(warp="turbo")),
        ("c", SimpleNamespace(warp="turbo")),
        ("d", SimpleNamespace(warp="declined:interrupt-driven")),
        ("e", SimpleNamespace(warp="declined:interrupt-driven")),
        ("f", SimpleNamespace(warp="declined:scenario:weird")),
        ("g", SimpleNamespace(warp=None)),  # warp off: not counted
    ]
    text = warp_decline_prometheus_text(outcomes, labels={"campaign": "x"})
    assert "# TYPE repro_warp_engaged_total counter" in text
    assert "# TYPE repro_warp_declined_total counter" in text
    assert 'repro_warp_engaged_total{campaign="x",mode="turbo"} 2' in text
    assert 'repro_warp_engaged_total{campaign="x",mode="replay"} 1' in text
    # Label values are sanitised for Prometheus (hyphens and colons
    # become underscores).
    assert (
        'repro_warp_declined_total{campaign="x",reason="interrupt_driven"} 2'
        in text
    )
    assert 'reason="scenario_weird"' in text


def test_warp_decline_prometheus_empty_is_just_headers():
    from repro.obs.exporters import warp_decline_prometheus_text

    text = warp_decline_prometheus_text([])
    assert text.count("# TYPE") == 2
