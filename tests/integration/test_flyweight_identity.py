"""Representation-independence of the flyweight packet blocks.

The block representation and the scheduler fast paths are *encodings*, not
model changes: a run must be deterministic regardless of how many runs
preceded it, and a source's blocks must be its per-packet stream, frame
by frame, multi-flow blocks included.  Whole scenario runs in both
encodings -- observables, metric snapshots, flow caches, parking -- are
the differential oracle's (``tools/oracle.py``).
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext

import numpy as np
import pytest
from _helpers import FAST_MEASURE_NS, FAST_WARMUP_NS
from golden_stats import _run_stats
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.core.engine import Simulator
from repro.core.packet import PacketBlock, per_packet_emission
from repro.flows import FlowPopulation
from repro.flows.population import FLOW_DISTS
from repro.measure.runner import drive
from repro.scenarios import p2p
from repro.traffic.generator import PacedSource


class _Recorder(PacedSource):
    """A source that keeps every batch it emits."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.emitted = []

    def _emit(self, batch):
        self.emitted.extend(batch)


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
            result = drive(tb, warmup_ns=FAST_WARMUP_NS, measure_ns=FAST_MEASURE_NS)
            return _run_stats(tb, result)

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


def _frame_digest(population, rate_pps, flow_id, probe_interval, per_packet, frames=2_048):
    """SHA-256 prefix of a source's first ``frames`` frames
    ``(size, flow_id, src_mac, is_probe)``."""
    sim = Simulator()
    src = _Recorder(
        sim, rate_pps=rate_pps, frame_size=64, flow_id=flow_id,
        probe_interval_ns=probe_interval, flow_population=population,
        rng=np.random.default_rng(2026),
    )
    with per_packet_emission() if per_packet else nullcontext():
        src.start(0.0)
        sim.run_until(frames * 1e9 / rate_pps)
    rows = []
    for item in src.emitted:
        packets = item.materialize() if item.__class__ is PacketBlock else (item,)
        rows.extend(f"{p.size},{p.flow_id},{p.src_mac},{int(p.is_probe)}" for p in packets)
    assert len(rows) >= frames
    return hashlib.sha256(";".join(rows[:frames]).encode()).hexdigest()[:16]


#: Sources whose draw shapes the golden corpus's multi-flow cells
#: (Zipf, Zipf + IMIX, uniform + churn) do not cover, with the digest of
#: their first 2,048 frames.  Burst lengths other than 32 (rate x 4 us)
#: put a draw-chunk edge inside the digested frames.
_PINNED_SHAPES = {
    "uniform+imix": (
        FlowPopulation(flows=1_000, dist="uniform", size_mix="imix"), 6e6, 0, None,
    ),
    "size-mix-alone": (FlowPopulation(flows=1, size_mix="datacenter"), 7e6, 0, None),
    "churn-alone": (FlowPopulation(flows=1, churn_fps=1e7), 14.88e6, 0, 20_000.0),
    "uniform": (FlowPopulation(flows=50_000, dist="uniform"), 3e6, 0, None),
    "zipf+probes+churn+flow-id": (
        FlowPopulation(flows=10_000, dist="zipf", churn_fps=1e7), 5e6, 1_000, 20_000.0,
    ),
    "4-frame-burst": (FlowPopulation(flows=1_000, dist="zipf"), 1e6, 0, 10_000.0),
}

_PINNED_DIGESTS = {
    "4-frame-burst": "5dfd9c61c0de4646",
    "churn-alone": "10e6e2d3b78f8ba6",
    "size-mix-alone": "f23c6d074e144b40",
    "uniform": "12b248cb5a7d8c3f",
    "uniform+imix": "891feb9538d419c1",
    "zipf+probes+churn+flow-id": "f736c50388557889",
}


class TestFramesPinnedAcrossCommits:
    @pytest.mark.parametrize("per_packet", (False, True), ids=("blocks", "per-packet"))
    @pytest.mark.parametrize("shape", sorted(_PINNED_SHAPES))
    def test_first_frames_match_the_pinned_digest(self, shape, per_packet):
        """Both emission modes emit the frames pinned for each draw shape."""
        assert _frame_digest(*_PINNED_SHAPES[shape], per_packet=per_packet) == (
            _PINNED_DIGESTS[shape]
        )
