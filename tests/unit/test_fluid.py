"""Unit tests for the fluid (rate-based) fast-forward tier.

The differential oracle (``tools/oracle.py``) holds fluid to its
tolerance on a switch grid and an hour-scale window, and predicts its
decline reasons; these tests pin the environment switch, the report and
the fall-through to the exact tiers.
"""

from __future__ import annotations

import pytest

import repro.core.fluid as fluid_tier
from repro.core.fluid import (
    CAL_CAP_NS,
    CAL_FLOOR_NS,
    FLUID_TOLERANCE,
    fluid_enabled,
    try_fluid,
)
from repro.core.warp import WarpReport, engine_features
from repro.measure.runner import drive
from repro.scenarios import p2p
from oracle import Run, compare

pytestmark = pytest.mark.usefixtures("unwatched")

#: Switches the replay tier engages on (clean unidirectional p2p).
REPLAY_SWITCHES = ["bess", "fastclick", "ovs-dpdk", "vpp", "t4p4s"]


def test_fluid_enabled_parses_environment(monkeypatch):
    monkeypatch.delenv("REPRO_FLUID", raising=False)
    assert fluid_enabled() is False
    assert fluid_enabled(default=True) is True
    for value, expected in [
        ("1", True), ("true", True), ("on", True), ("yes", True),
        ("0", False), ("false", False), ("off", False), ("", False),
    ]:
        monkeypatch.setenv("REPRO_FLUID", value)
        assert fluid_enabled() is expected, value


def test_engine_features_gain_fluid_keys_only_when_enabled(monkeypatch):
    """Cache-key safety: a fluid-off session must fingerprint exactly as
    it did before the fluid tier existed."""
    monkeypatch.delenv("REPRO_FLUID", raising=False)
    off = dict(engine_features())
    assert not any(key.startswith("fluid") for key in off)
    monkeypatch.setenv("REPRO_FLUID", "1")
    on = dict(engine_features())
    assert on["fluid_version"] >= 1
    assert on["fluid_tolerance"] == FLUID_TOLERANCE == 0.05


def test_report_describe_both_shapes():
    engaged = WarpReport(engaged=True, warped_ns=9e6, verify_ns=1e6, mode="fluid")
    assert engaged.describe() == (
        "engaged[fluid]: extrapolated 9.000 ms from a 1.000 ms calibration slice"
    )
    declined = WarpReport(engaged=False, reason="span-too-short", mode="fluid")
    assert declined.describe() == "declined[fluid]: span-too-short"


def test_engages_on_clean_run_and_extrapolates():
    tb = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
    result = drive(tb, warmup_ns=6e5, measure_ns=6e7, fluid=True)
    report = result.fluid
    assert report is not None and report.engaged, result
    assert report.mode == "fluid"
    assert CAL_FLOOR_NS <= report.verify_ns <= CAL_CAP_NS
    assert report.warped_ns == pytest.approx(6e7 - report.verify_ns)
    # drive records fluid's own report as the run's tier report.
    assert result.warp is report
    # The heap was drained and meters hold extrapolated window counts.
    assert result.mpps == pytest.approx(3.0, rel=0.05)
    total = sum(m.packets for m in tb.meters)
    assert total == pytest.approx(3e6 * 6e7 / 1e9, rel=0.05)


def test_declines_below_double_calibration_span():
    tb = p2p.build("vpp", frame_size=64, seed=1)
    report = try_fluid(tb, 6e5, 6e5 + 1.5 * CAL_FLOOR_NS)
    assert not report.engaged
    assert report.reason == "span-too-short"
    assert tb.sim.events_executed == 0  # declined before touching the run


def test_declines_a_calibration_too_short_to_resolve_the_tolerance():
    """Half a 1 ms calibration slice at 0.5 Mpps holds about 250 frames:
    one 32-frame burst more or less is already 12%, so the halves cannot
    show a drift within the tolerance."""
    tb = p2p.build("vpp", frame_size=64, rate_pps=5e5, seed=1)
    report = try_fluid(tb, 6e5, 6e5 + 3e6)
    assert not report.engaged
    assert report.reason == "unstable-rate"

def test_declines_on_armed_fault_plan():
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultEvent, FaultPlan

    tb = p2p.build("vpp", frame_size=64, seed=1)
    plan = FaultPlan.of(
        FaultEvent.from_dict(
            {"kind": "nic-link-flap", "target": "sut-nic.p1",
             "at_ns": 1.2e6, "duration_ns": 3e5}
        )
    )
    FaultInjector(tb, plan).arm()
    report = try_fluid(tb, 6e5, 6e7)
    assert not report.engaged
    assert report.reason == "fault-plan-active"


def test_declines_on_flow_telemetry():
    tb = p2p.build("ovs-dpdk", frame_size=64, seed=1)
    tb.extras["flowstats"] = object()  # what obs attach leaves behind
    report = try_fluid(tb, 6e5, 6e7)
    assert not report.engaged
    assert report.reason == "flow-telemetry"


def test_declines_on_flow_churn():
    tb = p2p.build(
        "ovs-dpdk", frame_size=64, seed=1,
        flow_dist="uniform", flows=64, churn=1000.0,
    )
    report = try_fluid(tb, 6e5, 6e7)
    assert not report.engaged
    assert report.reason == "flow-churn"


def test_drive_fluid_kwarg_pins_the_tier(monkeypatch):
    monkeypatch.delenv("REPRO_FLUID", raising=False)
    tb = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
    result = drive(tb, measure_ns=6e7, fluid=True)
    assert result.fluid is not None and result.fluid.engaged
    assert result.warp is not None
    assert result.warp.engaged and result.warp.mode == "fluid"
    # Default-off: no fluid attempt at all without the kwarg or env.
    tb = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
    result = drive(tb, measure_ns=6e7)
    assert result.fluid is None


def test_fluid_rate_within_declared_tolerance():
    runs = []
    for fluid in (False, True):
        tb = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
        runs.append(Run.of(tb, drive(tb, measure_ns=6e7, fluid=fluid)))
    assert runs[1].result.fluid.engaged
    assert compare(*runs, level="fluid") == []


@pytest.mark.parametrize("switch", REPLAY_SWITCHES)
def test_mid_window_decline_falls_through_to_the_replay(monkeypatch, switch):
    """After ``unstable-rate`` the run stands at the calibration edge; the
    replay verifies and replays from there, and the end state equals a
    run with every tier off."""
    monkeypatch.setattr(fluid_tier, "FLUID_TOLERANCE", 0.0)
    monkeypatch.setattr(fluid_tier, "QUANT_SLACK_PACKETS", 0)
    windows = dict(warmup_ns=6e5, measure_ns=3e6)

    tb_on = p2p.build(switch, frame_size=64, seed=3)
    on = drive(tb_on, fluid=True, warp=True, **windows)
    assert on.fluid.reason == "unstable-rate"
    assert on.warp.engaged and on.warp.mode == "replay", on.warp.describe()

    tb_off = p2p.build(switch, frame_size=64, seed=3)
    off = drive(tb_off, fluid=False, warp=False, **windows)
    assert compare(Run.of(tb_off, off), Run.of(tb_on, on)) == []
