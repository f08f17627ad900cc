"""Integration tests for the observability layer (repro.obs).

Covers the PR's acceptance bars: the `repro-bench trace` artifact is
valid Chrome trace JSON, the cycle-attribution profiler agrees with the
closed-form capacity model within queueing noise, observation never
changes the measurement, snapshots are deterministic across serial and
parallel campaign execution, and redirected stdout stays a clean CSV.
"""

from __future__ import annotations

import csv
import heapq
import json

import pytest

from _helpers import FAST_MEASURE_NS, FAST_WARMUP_NS, count_opcodes
from repro.analysis.bottleneck import diff_attribution, stage_breakdown
from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, RunRecord, RunSpec
from repro.cli import main
from repro.core.engine import Simulator
from repro.measure.runner import drive
from repro.measure.throughput import measure_throughput
from repro.obs import ObsConfig, observe
from repro.scenarios import p2p, v2v

WINDOWS = dict(warmup_ns=FAST_WARMUP_NS, measure_ns=FAST_MEASURE_NS)


# --- the CLI trace artifact (acceptance criterion) ------------------------


def test_cli_trace_emits_valid_chrome_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    rc = main([
        "trace", "p2p", "--switch", "vpp", "--trace-out", str(out),
        "--warmup-ns", str(FAST_WARMUP_NS), "--measure-ns", str(FAST_MEASURE_NS),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] in ("ms", "ns")
    assert len(events) > 10
    # Every event carries the Chrome trace-event envelope fields
    # (metadata records have no timestamp).
    assert all({"ph", "pid", "tid"} <= set(e) for e in events)
    assert all("ts" in e for e in events if e["ph"] != "M")
    phases = {e["ph"] for e in events}
    assert "X" in phases  # spans
    assert "M" in phases  # thread-name metadata for the string tracks
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert any(name.startswith("core/") for name in names)
    assert any(name.startswith("path/") for name in names)
    # tids are remapped to ints for the viewer.
    assert all(isinstance(e["tid"], int) for e in events)


def test_cli_trace_rejects_unknown_target(capsys):
    assert main(["trace", "nonsense", "--switch", "vpp"]) == 1


# --- profiler vs closed form (acceptance criterion) -----------------------


def _observed_chain(build, switch, scenario):
    tb = build(switch, frame_size=64)
    obs = observe(tb)
    result = drive(tb, **WINDOWS)
    obs.finish(result)
    return obs.profile().chain_cycles_per_packet()


@pytest.mark.parametrize("name", ("vpp", "bess"))
def test_attribution_matches_closed_form_p2p(name):
    observed = _observed_chain(p2p.build, name, "p2p")
    predicted = stage_breakdown(name, "p2p", 64)
    diff = diff_attribution(observed, predicted)
    assert diff["total"]["ratio"] == pytest.approx(1.0, abs=0.25)
    # The raw stages individually, not just a lucky total.
    for stage in ("rx", "proc", "tx"):
        assert diff[stage]["ratio"] == pytest.approx(1.0, abs=0.35)


@pytest.mark.parametrize("name", ("vpp", "snabb"))
def test_attribution_matches_closed_form_v2v(name):
    observed = _observed_chain(v2v.build, name, "v2v")
    predicted = stage_breakdown(name, "v2v", 64)
    diff = diff_attribution(observed, predicted)
    assert diff["total"]["ratio"] == pytest.approx(1.0, abs=0.30)


# --- observation is read-only ---------------------------------------------


def test_observed_run_is_bit_identical_to_unobserved():
    plain = measure_throughput(p2p.build, "vpp", 64, seed=5, **WINDOWS)

    tb = p2p.build("vpp", frame_size=64, seed=5)
    obs = observe(tb, trace=True)
    observed = drive(tb, **WINDOWS)
    obs.finish(observed)

    assert observed.per_direction_gbps == plain.per_direction_gbps
    assert observed.per_direction_mpps == plain.per_direction_mpps
    assert observed.events == plain.events


# --- determinism across serial and parallel execution (satellite f) -------


def test_metric_snapshots_identical_serial_vs_parallel(tmp_path):
    campaign = CampaignSpec(
        name="obs-determinism",
        runs=(
            RunSpec("p2p", "vpp", seed=7, **WINDOWS),
            RunSpec("v2v", "snabb", seed=7, **WINDOWS),
        ),
    ).with_obs(trace=True, metrics=True, profile=True)

    serial = run_campaign(campaign, workers=1)
    parallel = run_campaign(campaign, workers=2)

    def snapshots(result):
        out = {}
        for key, outcome in result.outcomes:
            assert isinstance(outcome, RunRecord)
            assert outcome.metrics is not None
            out[key] = json.dumps(outcome.metrics, sort_keys=True)
        return out

    assert snapshots(serial) == snapshots(parallel)


def test_snapshot_contains_all_three_surfaces():
    tb = p2p.build("vpp", frame_size=64)
    obs = observe(tb, trace=True)
    result = drive(tb, **WINDOWS)
    obs.finish(result)
    snapshot = obs.metrics_snapshot()
    assert snapshot["metrics"]["run.gbps"] == pytest.approx(result.gbps)
    assert snapshot["profile"]["packets"] > 0
    assert snapshot["trace"]["events"] > 0
    json.dumps(snapshot)  # must survive the JSONL store / CSV column


# --- clean stdout when piping (satellite a) --------------------------------


def test_campaign_stdout_is_clean_csv(tmp_path, capsys):
    rc = main([
        "campaign", "--suite", "smoke", "--switches", "vpp",
        "--no-cache", "--export-csv", "-", "--metrics",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    # stdout parses as a CSV table and contains nothing else.
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert rows and all(row["switch"] == "vpp" for row in rows)
    assert all(row["status"] == "ok" for row in rows)
    assert all(json.loads(row["metrics"])["metrics"] for row in rows)
    # The human-facing telemetry went to stderr instead.
    assert "campaign summary" in captured.err


# --- disabled observability is near-free (acceptance criterion) ------------


class _SeedSimulator(Simulator):
    """The growth seed's dispatch loop, replicated for the micro-benchmark.

    The engine's unobserved branch is meant to stay byte-identical to
    this; the timing test below fails if per-event observer support ever
    creeps into the disabled path.
    """

    def run_until(self, t_end_ns: float) -> None:
        self._running = True
        try:
            queue = self._queue
            while queue and queue[0][0] <= t_end_ns:
                time_ns, _, callback = heapq.heappop(queue)
                self._now = time_ns
                callback()
                self.events_executed += 1
            self._now = max(self._now, t_end_ns)
        finally:
            self._running = False


def _dispatch_opcodes(sim_cls, n_events=2_000) -> int:
    """Bytecodes the dispatch loop runs for ``n_events`` events (the
    callbacks themselves are not counted)."""
    sim = sim_cls()

    def rearm() -> None:
        if sim.events_executed < n_events:
            sim.after(1.0, rearm)

    sim.after(0.0, rearm)
    codes = (sim_cls.run_until.__code__, Simulator._drain.__code__)
    opcodes = count_opcodes(lambda: sim.run_until(float(n_events + 2)), codes)
    assert sim.events_executed >= n_events
    return opcodes


def test_disabled_observability_dispatch_overhead_under_5_percent():
    # Counted, not timed: one extra statement per event costs thousands of
    # bytecodes here, while the host's noise costs none.  The engine may
    # spend more than the seed once per call (the call into _drain and its
    # observer test): that allowance is counted on the running interpreter
    # with a single event, so nothing per event is allowed.
    per_call = _dispatch_opcodes(Simulator, 0) - _dispatch_opcodes(_SeedSimulator, 0)
    baseline = _dispatch_opcodes(_SeedSimulator)
    current = _dispatch_opcodes(Simulator)
    assert current <= baseline + per_call, (
        f"unobserved dispatch loop regressed: {current} bytecodes vs "
        f"seed-style {baseline} for 2,000 events ({per_call} allowed per call)"
    )


def _ring_push_pop_opcodes(ring, n_rounds=500) -> int:
    from repro.core.packet import make_block

    def rounds() -> None:
        for _ in range(n_rounds):
            ring.push(make_block(32, 64, 0.0))
            ring.pop_batch(32)

    cls = type(ring)
    return count_opcodes(rounds, (cls.push.__code__, cls.pop_batch.__code__))


def test_fault_capable_ring_hot_path_overhead_under_5_percent():
    """The fault layer must cost unfaulted rings nothing measurable.

    Fault states are entered by swapping the ring's *class* and left by
    swapping it back, so a pristine ring and a faulted-then-restored ring
    must run the same push/pop machinery: no flags, no extra branches.
    The watchdog is likewise external (a periodic scanner), so with
    ``REPRO_WATCHDOG`` unset the hot path is exactly the pre-fault code.
    """
    from repro.core.packet import make_block
    from repro.core.ring import Ring, disconnect_ring, freeze_ring, restore_ring

    pristine = Ring(64)
    restored = Ring(64)
    freeze_ring(restored)
    restore_ring(restored)
    disconnect_ring(restored)
    restored.push(make_block(32, 64, 0.0))  # dropped while disconnected
    restore_ring(restored)
    assert restored.__class__ is Ring and restored.dropped == 32

    # Counted, not timed: the same code on the same workload runs the
    # same bytecodes, whatever the host's noise.
    baseline = _ring_push_pop_opcodes(pristine)
    current = _ring_push_pop_opcodes(restored)
    assert current == baseline, (
        f"faulted-then-restored ring runs more bytecodes than pristine: "
        f"{current} vs {baseline} for 500 push/pop rounds"
    )
