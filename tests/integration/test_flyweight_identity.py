"""Representation-independence of the flyweight packet blocks.

The block representation and the scheduler fast paths are *encodings*, not
model changes: every observable figure -- throughput, loss, latency, meter
and port counters, observed metrics -- must be bit-identical to running
the same scenario with seed-style one-object-per-frame emission, and a run
must be deterministic regardless of how many runs preceded it.  The same
holds for multi-flow traffic, whose blocks carry flow run-lengths.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import numpy as np
import pytest
from _helpers import FAST_MEASURE_NS, FAST_WARMUP_NS
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.core.engine import Simulator
from repro.core.packet import PacketBlock, per_packet_emission
from repro.flows import FlowPopulation
from repro.flows.population import FLOW_DISTS
from repro.measure.runner import drive
from repro.scenarios import p2p, v2v
from repro.traffic.generator import PacedSource


class _Recorder(PacedSource):
    """A source that keeps every batch it emits."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.emitted = []

    def _emit(self, batch):
        self.emitted.extend(batch)


def _canon(value):
    return repr(value) if isinstance(value, float) else value


def _run_stats(tb, result) -> dict:
    """Every observable figure of a driven testbed, floats repr-exact.

    ``events_executed`` is deliberately absent: it is an engine performance
    counter (core parking removes no-op poll events), not a measurement.
    """
    stats = {
        "gbps": [_canon(g) for g in result.per_direction_gbps],
        "mpps": [_canon(m) for m in result.per_direction_mpps],
        "forwarded": tb.switch.total_forwarded,
        "meter_packets": [m.packets for m in tb.meters],
        "meter_bytes": [m.bytes for m in tb.meters],
        "warmup_packets": [m.warmup_packets for m in tb.meters],
        "ring_drops": [
            (p.input.input_ring.name, p.input.input_ring.dropped, p.input.input_ring.enqueued)
            for p in tb.switch.paths
        ],
        "path_forwarded": [p.forwarded for p in tb.switch.paths],
        "port_tx": [
            (p.name, p.tx_packets, p.tx_bytes, p.tx_dropped, p.driver_drops, p.rx_packets)
            for p in (tb.extras.get("sut_ports") or ())
        ],
    }
    if result.latency is not None and len(result.latency):
        lat = result.latency
        stats["latency"] = {
            "n": len(lat),
            "mean_us": _canon(lat.mean_us),
            "p50": _canon(lat.percentile_us(50)),
            "p99": _canon(lat.percentile_us(99)),
        }
    return stats


def _drive_fast(tb, **kwargs):
    return drive(tb, warmup_ns=FAST_WARMUP_NS, measure_ns=FAST_MEASURE_NS, **kwargs)


class TestBlockVsPerPacketBitIdentity:
    def test_p2p_throughput_identical(self):
        tb_blocks = p2p.build("ovs-dpdk", frame_size=64)
        blocks = _run_stats(tb_blocks, _drive_fast(tb_blocks))
        with per_packet_emission():
            tb_exact = p2p.build("ovs-dpdk", frame_size=64)
            exact = _run_stats(tb_exact, _drive_fast(tb_exact))
        assert blocks == exact

    def test_p2p_bidirectional_identical(self):
        tb_blocks = p2p.build("vale", frame_size=64, bidirectional=True)
        blocks = _run_stats(tb_blocks, _drive_fast(tb_blocks, bidirectional=True))
        with per_packet_emission():
            tb_exact = p2p.build("vale", frame_size=64, bidirectional=True)
            exact = _run_stats(tb_exact, _drive_fast(tb_exact, bidirectional=True))
        assert blocks == exact

    def test_v2v_identical(self):
        tb_blocks = v2v.build("vale", frame_size=64)
        blocks = _run_stats(tb_blocks, _drive_fast(tb_blocks))
        with per_packet_emission():
            tb_exact = v2v.build("vale", frame_size=64)
            exact = _run_stats(tb_exact, _drive_fast(tb_exact))
        assert blocks == exact

    def test_v2v_latency_probes_identical(self):
        """Probes materialise out of blocks with the same seqs and RTTs."""
        tb_blocks = v2v.build_latency("ovs-dpdk")
        blocks = _run_stats(tb_blocks, drive(tb_blocks, measure_ns=2_000_000.0))
        with per_packet_emission():
            tb_exact = v2v.build_latency("ovs-dpdk")
            exact = _run_stats(tb_exact, drive(tb_exact, measure_ns=2_000_000.0))
        assert "latency" in blocks
        assert blocks == exact

    def test_observed_run_metrics_identical(self):
        """The obs layer sees the same figures whichever encoding runs."""
        from repro.obs.session import ObsConfig, observe

        def observed_snapshot():
            tb = p2p.build("ovs-dpdk", frame_size=64)
            obs = observe(tb, ObsConfig(trace=True, metrics=True, profile=True))
            result = _drive_fast(tb)
            obs.finish(result)
            snap = json.loads(json.dumps(obs.metrics_snapshot(), default=repr, sort_keys=True))
            return _run_stats(tb, result), snap

        stats_blocks, snap_blocks = observed_snapshot()
        with per_packet_emission():
            stats_exact, snap_exact = observed_snapshot()
        assert stats_blocks == stats_exact
        assert snap_blocks == snap_exact


class TestSeqDeterminism:
    """Satellite: per-run seq scoping -- identical runs, identical seqs."""

    @staticmethod
    def _emitted_seqs(probe_interval=20_000.0, per_packet=False):
        sim = Simulator()  # resets the per-run seq counter
        src = _Recorder(sim, rate_pps=2e6, frame_size=64, probe_interval_ns=probe_interval)
        if per_packet:
            with per_packet_emission():
                src.start(0.0)
                sim.run_until(200_000.0)
        else:
            src.start(0.0)
            sim.run_until(200_000.0)
        seqs, probe_seqs = [], []
        for item in src.emitted:
            if item.__class__ is PacketBlock:
                seqs.extend(range(item.seq0, item.seq0 + item.count))
            else:
                seqs.append(item.seq)
                if item.is_probe:
                    probe_seqs.append(item.seq)
        return seqs, probe_seqs

    def test_two_identical_runs_assign_identical_seqs(self):
        first = self._emitted_seqs()
        second = self._emitted_seqs()
        assert first == second
        assert first[0][0] == 0  # scoped to the run, not the process

    def test_block_and_per_packet_emission_assign_identical_seqs(self):
        blocks = self._emitted_seqs()
        exact = self._emitted_seqs(per_packet=True)
        assert blocks == exact

    def test_scenario_runs_are_process_history_independent(self):
        def stats():
            tb = p2p.build("vpp", frame_size=64)
            return _run_stats(tb, _drive_fast(tb))

        assert stats() == stats()


def _emitted_frames(population, rate_pps, flow_id, probe_interval, rng_seed, per_packet):
    """Every frame a multi-flow source emits in 60 us, plus its RNG's end state."""
    sim = Simulator()  # resets the per-run seq counter
    rng = np.random.default_rng(rng_seed)
    src = _Recorder(
        sim, rate_pps=rate_pps, frame_size=64, flow_id=flow_id,
        probe_interval_ns=probe_interval, flow_population=population, rng=rng,
    )
    with per_packet_emission() if per_packet else nullcontext():
        src.start(0.0)
        sim.run_until(60_000.0)
    frames = []
    for item in src.emitted:
        packets = item.materialize() if item.__class__ is PacketBlock else (item,)
        # A block's template is its first frame (the NIC hashes it).
        assert (item.flow_id, item.src_mac) == (packets[0].flow_id, packets[0].src_mac)
        frames.extend(
            (p.size, p.flow_id, p.src_mac, p.t_created, p.seq, p.is_probe) for p in packets
        )
    return frames, rng.bit_generator.state


class TestMultiFlowEmissionIdentity:
    @seed(20261017)
    @settings(max_examples=30, deadline=None)
    @given(
        dist=st.sampled_from(FLOW_DISTS),
        flows=st.integers(min_value=2, max_value=10**6),
        churn=st.sampled_from((0.0, 2e5, 1e9)),
        size_mix=st.sampled_from((None, "imix")),
        rate_pps=st.sampled_from((1e6, 14.88e6)),
        flow_id=st.sampled_from((0, 1_000)),
        probe_interval=st.sampled_from((None, 1_000.0, 20_000.0)),
        rng_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(  # the largest population perfbench's flow-zipf offers
        dist="zipf", flows=10**6, churn=0.0, size_mix=None, rate_pps=14.88e6,
        flow_id=0, probe_interval=20_000.0, rng_seed=7,
    )
    def test_blocks_materialise_to_the_per_packet_stream(
        self, dist, flows, churn, size_mix, rate_pps, flow_id, probe_interval, rng_seed
    ):
        """A flow-population source's blocks are the per-packet stream,
        frame by frame, and both modes leave the RNG in the same state."""
        population = FlowPopulation(flows=flows, dist=dist, churn_fps=churn, size_mix=size_mix)
        args = (population, rate_pps, flow_id, probe_interval, rng_seed)
        blocks, block_state = _emitted_frames(*args, per_packet=False)
        frames, frame_state = _emitted_frames(*args, per_packet=True)
        assert blocks == frames
        assert block_state == frame_state


#: Flow populations the scenario identity runs offer (p2p, seed 3).
MULTI_FLOW_POPULATIONS = {
    "zipf-1k": {"flows": 1_000, "flow_dist": "zipf"},
    "uniform-100-churn": {"flows": 100, "churn": 2e5},
    "zipf-500-imix": {"flows": 500, "flow_dist": "zipf", "size_mix": "imix"},
}


def _multi_flow_run(switch: str, population: dict):
    tb = p2p.build(switch, frame_size=64, seed=3, **population)
    drive(tb, warmup_ns=100_000.0, measure_ns=600_000.0)
    return (
        [(m.packets, m.bytes, m.warmup_packets) for m in tb.meters],
        [
            (p.name, p.driver_drops, p.tx_dropped)
            for p in (*tb.extras["gen_ports"], *tb.extras["sut_ports"])
        ],
        tb.switch.cache_stats(),
        repr(tb.sut_core.busy_ns),
    )


class TestMultiFlowScenarioIdentity:
    """Multi-flow p2p runs: blocks and per-packet emission agree on the
    meters, the switch's cache counters and the SUT core's busy time.

    Driver drops stay on: each port's drop schedule counts offered
    frames, so both encodings drop the same frames whatever the flow ids
    and block boundaries.  Every cell drops frames on the generator's
    port, and most also on the SUT's egress port.
    """

    @pytest.mark.parametrize("population", sorted(MULTI_FLOW_POPULATIONS))
    @pytest.mark.parametrize("switch", ("ovs-dpdk", "vale", "t4p4s", "vpp"))
    def test_block_and_per_packet_runs_identical(self, switch, population):
        flows = MULTI_FLOW_POPULATIONS[population]
        blocks = _multi_flow_run(switch, flows)
        with per_packet_emission():
            exact = _multi_flow_run(switch, flows)
        assert blocks == exact


class TestCoreParkingEquivalence:
    def test_parked_and_busy_polled_runs_match(self, monkeypatch):
        """Parking removes idle poll events, not observable behaviour."""
        from repro.traffic.guest import GuestMonitor

        tb = v2v.build("ovs-dpdk", frame_size=64)
        parked = _run_stats(tb, _drive_fast(tb))

        original_init = GuestMonitor.__init__

        def no_parking_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            del self.park_rings

        monkeypatch.setattr(GuestMonitor, "__init__", no_parking_init)
        tb = v2v.build("ovs-dpdk", frame_size=64)
        assert tb.vms  # the monitor runs in a guest in this scenario
        busy = _run_stats(tb, _drive_fast(tb))
        assert parked == busy
