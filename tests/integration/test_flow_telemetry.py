"""Integration tests for per-flow telemetry (repro.obs.flowstats).

The contract, end to end:

* flow telemetry is **free when off** -- no hot-path object carries a
  live tracker unless a session enables it (PR 2's ``obs is None``
  economics), and the seed workload's numbers stay bit-identical;
* flow telemetry is **invisible when on** -- hooks only read, so an
  accounted run reports exactly the numbers of an unaccounted one;
* warp declines accounted runs (replay would skip the hook sites);
* the observation session, campaign records, CSV export, suite tables
  and CLI all carry the summary through.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.packet import flows_front, make_block
from repro.core.ring import Ring
from repro.measure.runner import drive
from repro.measure.flowreport import flow_report
from repro.obs.session import ObsConfig, observe
from repro.scenarios import p2p, v2v

from tests._helpers import FAST_MEASURE_NS, FAST_WARMUP_NS, count_opcodes

WINDOWS = {"warmup_ns": FAST_WARMUP_NS, "measure_ns": FAST_MEASURE_NS}
FLOW_KWARGS = {"flows": 1000, "flow_dist": "zipf"}


# -- disabled-by-default economics ------------------------------------------


def test_hot_path_objects_stay_unaccounted_without_session():
    tb = p2p.build("ovs-dpdk", frame_size=64, **FLOW_KWARGS)
    assert tb.switch.flowstats is None
    for key in ("gen_ports", "sut_ports"):
        for port in tb.extras[key]:
            assert port.flowstats is None
            assert port.rx_ring.flowstats is None
    for source in tb.extras["tx"]:
        assert source.flowstats is None
    drive(tb, **WINDOWS)
    assert tb.switch.flowstats is None
    assert "flowstats" not in tb.extras


def test_obs_config_flowstats_defaults_off():
    config = ObsConfig(trace=True, metrics=True, profile=True)
    assert config.flowstats is False
    tb = p2p.build("ovs-dpdk", frame_size=64)
    observation = observe(tb, config)
    assert observation.flowstats is None
    assert tb.switch.flowstats is None
    drive(tb, **WINDOWS)
    try:
        observation.flow_summary()
    except ValueError:
        pass
    else:
        raise AssertionError("flow_summary must raise when flowstats is off")


class _SeedRing(Ring):
    """The pre-flowstats ring push, replicated for the micro-benchmark.

    ``Ring.push`` with telemetry disabled is meant to do exactly this
    much work; the timing test below fails if per-flow accounting ever
    creeps out from behind its ``flowstats is not None`` gates.
    """

    __slots__ = ()

    def push(self, item):
        count = item.count
        free = self.capacity - self._frames
        if free <= 0:
            self.dropped += count
            return False
        if count > free:
            self.dropped += count - free
            item.count = free
            if item.flows is not None:
                item.flows = flows_front(item.flows, free)
            count = free
        was_empty = self._frames == 0
        self._queue.append(item)
        self._frames += count
        self.enqueued += count
        if was_empty and self.on_push is not None:
            self.on_push()
        return True


def _ring_drop_path_opcodes(ring, n_rounds=500) -> int:
    # Overflow-heavy workload: the second push truncates and drops, so
    # every round exercises both flowstats-gated branches in push().
    def rounds() -> None:
        for _ in range(n_rounds):
            ring.push(make_block(48, 64, 0.0))
            ring.push(make_block(48, 64, 0.0))
            ring.pop_batch(64)

    cls = type(ring)
    return count_opcodes(rounds, (cls.push.__code__, cls.pop_batch.__code__))


def _gate_opcodes() -> int:
    """Bytecodes one skipped ``flowstats is not None`` test runs on the
    running interpreter (the compiled form differs between versions)."""

    def gated(ring):
        if ring.flowstats is not None:
            ring.flowstats.drop_item(None)

    def bare(ring):
        pass

    ring = Ring(64)
    return count_opcodes(lambda: gated(ring), (gated.__code__,)) - count_opcodes(
        lambda: bare(ring), (bare.__code__,)
    )


def test_disabled_flowstats_ring_drop_path_overhead_under_5_percent():
    # Counted, not timed: each round drops once, so disabled telemetry may
    # cost one skipped gate per round and nothing more.
    n_rounds = 500
    baseline = _ring_drop_path_opcodes(_SeedRing(64), n_rounds)
    current = _ring_drop_path_opcodes(Ring(64), n_rounds)
    assert current <= baseline + _gate_opcodes() * n_rounds, (
        f"disabled flow telemetry costs the ring drop path: {current} "
        f"bytecodes vs seed-style {baseline} for {n_rounds} rounds"
    )


# -- accounting is bit-identical --------------------------------------------


def test_accounted_run_matches_unaccounted_run():
    """Hooks only read: same Gbps/Mpps/events with telemetry on or off."""
    def run(flowstats: bool):
        tb = p2p.build("ovs-dpdk", frame_size=64, seed=3, **FLOW_KWARGS)
        observation = (
            observe(tb, ObsConfig(flowstats=True, top_k=32)) if flowstats else None
        )
        result = drive(tb, **WINDOWS)
        return result, observation

    plain, _ = run(False)
    accounted, observation = run(True)
    assert plain.per_direction_gbps == accounted.per_direction_gbps
    assert plain.per_direction_mpps == accounted.per_direction_mpps
    assert plain.events == accounted.events
    summary = observation.flow_summary()
    assert summary["totals"]["tx_frames"] > 0
    assert 0 < summary["tracked"] <= 32


@pytest.mark.usefixtures("unwatched")
def test_warp_declines_accounted_runs():
    """The replay skips the calls the flow tracker counts, so it declines
    an accounted run; the turbo, which dispatches every one of them,
    keeps it."""
    tb = p2p.build("ovs-dpdk", frame_size=64)
    observe(tb, ObsConfig(flowstats=True))
    result = drive(tb, **WINDOWS, warp=True)
    assert result.warp is not None
    assert result.warp.engaged
    assert result.warp.mode == "turbo"


# -- session plumbing --------------------------------------------------------


def test_observation_carries_flow_summary_and_metrics():
    tb = p2p.build("ovs-dpdk", frame_size=64, seed=2, **FLOW_KWARGS)
    observation = observe(tb, ObsConfig(metrics=True, flowstats=True, top_k=16))
    result = drive(tb, **WINDOWS)
    observation.finish(result)

    summary = observation.flow_summary()
    json.dumps(summary)
    assert summary["top_k"] == 16
    assert summary["totals"]["cache_hits"] + summary["totals"]["cache_misses"] > 0
    assert "flow.tracked" in observation.registry.names()
    snapshot = observation.metrics_snapshot()
    assert snapshot["flowstats"]["totals"] == summary["totals"]

    text = observation.flow_prometheus_text(labels={"switch": "ovs-dpdk"})
    assert 'repro_flow_tx_frames{switch="ovs-dpdk",flow="total"}' in text


def test_per_flow_latency_histograms_for_probe_flows():
    tb = v2v.build_latency("vale", frame_size=64, seed=1)
    observation = observe(tb, ObsConfig(flowstats=True))
    result = drive(tb, warmup_ns=FAST_WARMUP_NS, measure_ns=4 * FAST_MEASURE_NS)
    observation.finish(result)
    digests = observation.flow_summary()["latency_us"]
    assert digests, "probe RTT samples must land in per-flow histograms"
    digest = next(iter(digests.values()))
    assert digest["count"] > 0
    assert digest["p50"] is not None


def test_flow_report_measure_entry_point():
    report = flow_report(
        p2p.build, "ovs-dpdk", top_k=8, seed=1, **WINDOWS, **FLOW_KWARGS
    )
    assert report.result.gbps > 0
    assert report.summary["top_k"] == 8
    assert report.fairness["jain"] > 0
    assert "total" in report.table()


# -- campaign persistence ----------------------------------------------------


def test_campaign_records_and_csv_carry_flowstats(tmp_path):
    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import RunRecord, grid
    from repro.campaign.store import export_csv

    spec = grid(
        name="flowstats-it",
        switches=["ovs-dpdk"],
        scenarios=("p2p",),
        frame_sizes=(64,),
        directions=(False,),
        flows=(500,),
        flow_dist="zipf",
        **WINDOWS,
    ).with_obs(ObsConfig(flowstats=True, top_k=8))
    result = run_campaign(spec, workers=1)
    assert not result.failures
    (_, record), = result.outcomes
    assert record.flowstats is not None
    assert record.flowstats["top_k"] == 8
    assert record.flowstats["totals"]["tx_frames"] > 0

    # Round-trips through the record dict and the CSV export.
    revived = RunRecord.from_dict(record.to_dict())
    assert revived.flowstats == record.flowstats
    path = export_csv(result.outcomes, tmp_path / "out.csv")
    text = path.read_text()
    assert "flowstats" in text.splitlines()[0]
    assert '""totals""' in text or "totals" in text


def test_suite_outcomes_carry_flow_columns():
    from repro.measure.suites import SMOKE_SUITE

    outcomes = SMOKE_SUITE.run_outcomes(
        "ovs-dpdk",
        obs=ObsConfig(flowstats=True),
        flows=200,
        flow_dist="zipf",
        **WINDOWS,
    )
    ok = [o for o in outcomes.values() if o.status == "ok"]
    assert ok
    for outcome in ok:
        assert outcome.cache_hit_rate is not None
        assert 0.0 <= outcome.cache_hit_rate <= 1.0
        assert outcome.jain is not None


# -- CLI ---------------------------------------------------------------------


def test_cli_flowstats_command(capsys, tmp_path):
    out = tmp_path / "flows.prom"
    assert main([
        "flowstats", "p2p", "--switch", "ovs-dpdk",
        "--flows", "1k", "--flow-dist", "zipf", "--top-k", "16",
        "--warmup-ns", str(FAST_WARMUP_NS), "--measure-ns", str(FAST_MEASURE_NS),
        "--flow-out", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "jain=" in stdout and "total" in stdout
    assert 'flow="total"' in out.read_text()


def test_cli_flow_stats_flag_on_single_run(capsys):
    assert main([
        "p2p", "--switch", "vale", "--flow-stats",
        "--warmup-ns", str(FAST_WARMUP_NS), "--measure-ns", str(FAST_MEASURE_NS),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "Gbps" in stdout and "jain=" in stdout


def test_cli_flow_flags_error_on_unsupported_commands(capsys):
    # One shared validation path: commands that cannot carry the flow
    # axis reject it loudly instead of silently dropping it.
    for argv in (
        ["v2v-latency", "--switch", "vale", "--flows", "100"],
        ["validate", "--flows", "100"],
        ["flowstats", "v2v-latency", "--switch", "vale", "--flows", "100"],
    ):
        assert main(argv) == 1, argv
    err = capsys.readouterr().err
    assert "not supported" in err


def test_cli_resilience_carries_flow_axis(capsys):
    # Satellite of the flag-parity audit: resilience used to silently
    # ignore --flows; now the grid carries it into every run spec.
    assert main([
        "resilience", "p2p", "--switch", "ovs-dpdk",
        "--flows", "200", "--flow-dist", "zipf",
        "--fault", "nic-link-flap@sut-nic.p1:at_ns=800000,duration_ns=200000",
        "--warmup-ns", str(FAST_WARMUP_NS),
        "--measure-ns", str(2 * FAST_MEASURE_NS),
    ]) == 0
    out = capsys.readouterr().out
    assert "resilience 'p2p'" in out


def test_cli_suite_shows_flow_columns(capsys):
    assert main([
        "suite", "--switch", "ovs-dpdk", "--suite", "smoke",
        "--flows", "200", "--flow-dist", "zipf",
        "--warmup-ns", str(FAST_WARMUP_NS), "--measure-ns", str(FAST_MEASURE_NS),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "hit-rate" in stdout and "jain" in stdout
