"""Unit tests for the measurement runner's result records."""

from __future__ import annotations

import pytest

from repro.core.stats import LatencySample
from repro.measure.runner import RunResult


def test_aggregate_gbps_sums_directions():
    result = RunResult(
        scenario="p2p",
        switch="vpp",
        frame_size=64,
        bidirectional=True,
        duration_ns=1e6,
        per_direction_gbps=[5.0, 4.5],
        per_direction_mpps=[7.4, 6.7],
    )
    assert result.gbps == pytest.approx(9.5)
    assert result.mpps == pytest.approx(14.1)


def test_unidirectional_single_entry():
    result = RunResult(
        scenario="p2v",
        switch="vale",
        frame_size=256,
        bidirectional=False,
        duration_ns=1e6,
        per_direction_gbps=[9.9],
        per_direction_mpps=[4.4],
    )
    assert result.gbps == pytest.approx(9.9)


def test_empty_directions_zero():
    result = RunResult(
        scenario="x", switch="y", frame_size=64, bidirectional=False, duration_ns=1.0
    )
    assert result.gbps == 0.0
    assert result.mpps == 0.0


def test_latency_field_defaults_none():
    result = RunResult(
        scenario="x", switch="y", frame_size=64, bidirectional=False, duration_ns=1.0
    )
    assert result.latency is None


def test_drive_rejects_negative_warmup_with_specific_message():
    from repro.measure.runner import drive

    with pytest.raises(ValueError, match="warmup_ns must be non-negative"):
        drive(object(), warmup_ns=-1.0, measure_ns=1e6)


def test_drive_rejects_nonpositive_measure_with_specific_message():
    from repro.measure.runner import drive

    with pytest.raises(ValueError, match="measure_ns must be positive"):
        drive(object(), warmup_ns=0.0, measure_ns=0.0)
    with pytest.raises(ValueError, match="measure_ns must be positive"):
        drive(object(), warmup_ns=1e5, measure_ns=-5.0)


def test_drive_accepts_zero_warmup():
    """warmup_ns=0 is a legal window (measure from t=0)."""
    from repro.measure.runner import drive
    from repro.scenarios import p2p

    result = drive(p2p.build("bess"), warmup_ns=0.0, measure_ns=200_000.0)
    assert result.gbps >= 0.0


def test_latency_sample_attachable():
    sample = LatencySample()
    sample.add(5_000.0)
    result = RunResult(
        scenario="x", switch="y", frame_size=64, bidirectional=False,
        duration_ns=1.0, latency=sample,
    )
    assert result.latency.mean_us == pytest.approx(5.0)


def test_drive_runs_no_tier_under_the_watchdog(monkeypatch):
    """With the invariant watchdog attached, drive attempts no tier: the
    run is dispatched event by event and both reports say why."""
    from repro.core.warp import WarpReport
    from repro.measure.runner import drive
    from repro.scenarios import p2p

    windows = dict(warmup_ns=1e5, measure_ns=2.5e6)
    monkeypatch.delenv("REPRO_WATCHDOG_REPORT", raising=False)
    monkeypatch.setenv("REPRO_WATCHDOG", "1")
    tb = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
    watched = drive(tb, fluid=True, warp=True, **windows)
    assert watched.fluid == WarpReport(engaged=False, reason="watchdog-active", mode="fluid")
    assert watched.warp == WarpReport(engaged=False, reason="watchdog-active", mode="turbo")
    assert drive(p2p.build("vpp", frame_size=64, seed=1), **windows).fluid is None

    monkeypatch.delenv("REPRO_WATCHDOG")
    plain = drive(
        p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1),
        fluid=False, warp=False, **windows,
    )
    assert [repr(v) for v in watched.per_direction_gbps] == [
        repr(v) for v in plain.per_direction_gbps
    ]
